"""The paper's experiments: one module per figure (F1–F6), claim
(C1–C8) and extension (E1–E6).

Each module exposes ``run()`` — the rows of its sweep, plain data —
and ``CHECKS``: the predicates the paper's argument makes of those
rows, by name, each ``rows -> (passed, value)`` with ``value`` the
measured figure it judged (or ``None``); :func:`above` and its
siblings build that pair.  :data:`EXPERIMENTS` is the one table
of them; :func:`run_experiment` runs one and records the verdicts.
``repro bench --exp`` is the entry point.

``import repro`` does not import this package.
"""

from __future__ import annotations

import importlib
from typing import NamedTuple

__all__ = ["EXPERIMENTS", "Experiment", "above", "at_least", "at_most",
           "below", "between", "exactly", "experiment_module",
           "run_experiment", "same_answer"]


class Experiment(NamedTuple):
    section: str
    """Where the paper makes the claim."""
    title: str
    module: str
    """Module name under :mod:`repro.experiments`."""


EXPERIMENTS: dict[str, Experiment] = {
    "f1": Experiment("Figure 1, §2.1",
                     "conventional data path amplification",
                     "f1_conventional_path"),
    "f2": Experiment("Figure 2, §3.2-3.3",
                     "storage pushdown of selection/projection",
                     "f2_storage_pushdown"),
    "f3": Experiment("Figure 3, §4.3-4.4",
                     "staged group-by pipeline across NICs",
                     "f3_nic_pipeline"),
    "f4": Experiment("Figure 4, §4.4",
                     "NIC-scattered distributed join + COUNT on NIC",
                     "f4_scatter_join"),
    "f5": Experiment("Figure 5, §5.2-5.4",
                     "near-memory filter / pointer-chase / GC units",
                     "f5_near_memory"),
    "f6": Experiment("Figure 6, §7",
                     "full pipeline storage->cores (+A2 DMA ablation)",
                     "f6_full_pipeline"),
    "c1": Experiment("§5.1", "single-core vs controller memory bandwidth",
                     "c1_membw"),
    "c2": Experiment("§2.2, §3.2",
                     "data-center tax + bytes-scanned billing",
                     "c2_datacenter_tax"),
    "c3": Experiment("§7.1", "credit-based flow control window sweep",
                     "c3_credit_flow"),
    "c4": Experiment("§7.3",
                     "interference-aware scheduling (+A1 ablation)",
                     "c4_scheduling"),
    "c5": Experiment("§7.4", "no more buffer pools", "c5_no_bufferpool"),
    "c6": Experiment("§7.5", "no more data caches", "c6_no_caches"),
    "c7": Experiment("§3.3", "which operators to push down",
                     "c7_pushdown_survey"),
    "c8": Experiment("§6.2", "CXL coherence + PCIe ladder",
                     "c8_cxl_coherence"),
    "e1": Experiment("§2.1", "zone maps (extension)", "e1_zonemaps"),
    "e2": Experiment("§5.3", "disaggregated-memory offload (extension)",
                     "e2_disagg_memory"),
    "e3": Experiment("§5.4",
                     "compressed memory + on-demand decompress "
                     "(extension)", "e3_compressed_memory"),
    "e4": Experiment("§7.2", "kernel installation break-even (extension)",
                     "e4_kernel_overhead"),
    "e5": Experiment("§3.3", "pre-sorting at storage (extension)",
                     "e5_presort"),
    "e6": Experiment("§4.2",
                     "storage->GPU: GPUDirect vs host staging "
                     "(extension)", "e6_gpudirect"),
}
"""Experiment id -> where the paper argues it, what it shows, and the
module that reproduces it."""


def above(value, bound):
    return value > bound, value


def at_least(value, bound):
    return value >= bound, value


def below(value, bound):
    return value < bound, value


def at_most(value, bound):
    return value <= bound, value


def between(value, low, high):
    return low <= value <= high, value


def exactly(value, expected):
    return value == expected, value


def same_answer(rows):
    """Every row's ``answers_agree`` verdict (its run compared each
    configuration's exact rows) holds, and all share one checksum;
    the value counts the rows that disagree."""
    disagree = sum(not row["answers_agree"] for row in rows)
    return (disagree == 0 and len({row["checksum"] for row in rows}) == 1,
            disagree)


def experiment_module(exp_id: str):
    """The module that reproduces experiment ``exp_id``."""
    return importlib.import_module(
        f"{__name__}.{EXPERIMENTS[exp_id].module}")


def _sanitize(value):
    """JSON-safe rows: tuples become lists, numpy scalars Python
    values, NaN null."""
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if hasattr(value, "item"):  # a numpy scalar
        value = value.item()
    return None if isinstance(value, float) and value != value else value


def run_experiment(exp_id: str) -> dict:
    """Run one experiment: ``{name, rows, checks}``.

    The checks judge the recorded (JSON-safe) rows, so a record's
    verdicts can be re-derived from the record alone.
    """
    module = experiment_module(exp_id)
    rows = _sanitize(module.run())
    checks = []
    for name, check in module.CHECKS.items():
        passed, value = check(rows)
        checks.append({"name": name, "passed": bool(passed),
                       "value": _sanitize(value)})
    return {"name": exp_id, "rows": rows, "checks": checks}
