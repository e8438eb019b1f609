"""The causal what-if engine (``repro whatif``).

COZ-style causal profiling made *exact*: instead of inferring virtual
speedups statistically, re-run the deterministic simulation with one
resource scaled at a time and measure the real end-to-end effect.

Three guarantees the acceptance tests pin down:

* **Bit-identical baseline** — before sweeping, every swept resource
  is perturbed by ``factor=1.0`` (an exact FP no-op on all hooks) and
  the run's event-order digest must equal the unperturbed run's.
  Any hidden nondeterminism or non-neutral hook shows up here.
* **Exact attribution** — the baseline's critical-path buckets
  reconcile exactly (rational arithmetic) with the query's elapsed
  time.
* **Answer stability** — perturbing hardware changes timing, never
  the answer: every perturbed run's result checksum must equal the
  baseline's.

A resource is **off-path** when even its largest swept improvement
yields less than :data:`OFFPATH_GAIN` (2%) end-to-end speedup — the
causal version of "don't optimize what the critical path never
touches".
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .scenarios import SCENARIO_ROWS, figure_scenario, run_scenario

__all__ = [
    "WHATIF_SCHEMA",
    "DEFAULT_FACTORS",
    "OFFPATH_GAIN",
    "parse_vary",
    "run_whatif",
    "whatif_violations",
    "optimizer_crosscheck",
]

WHATIF_SCHEMA = "repro.whatif/v1"
"""Schema identifier embedded in what-if JSON artifacts."""

DEFAULT_FACTORS = (1.25, 1.5, 2.0, 4.0)
"""Improvement factors swept per resource."""

OFFPATH_GAIN = 0.02
"""Minimum best-case relative gain for a resource to be on-path."""


def parse_vary(text: str) -> list[tuple[str, float]]:
    """Parse ``"nic.bw=2x,cxl.lat=0.5x"`` into (resource, factor).

    Factors are *raw* multipliers on the underlying quantity (a
    ``lat`` factor below 1 is an improvement); the trailing ``x`` is
    optional.
    """
    out: list[tuple[str, float]] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"bad --vary item {item!r} (expected resource=FACTORx)")
        resource, _, factor_text = item.partition("=")
        factor_text = factor_text.strip().rstrip("xX")
        try:
            factor = float(factor_text)
        except ValueError as exc:
            raise ValueError(
                f"bad --vary factor {factor_text!r} "
                f"for {resource.strip()!r}") from exc
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(
                f"--vary factor for {resource.strip()!r} must be a "
                f"finite positive number, got {factor_text!r}")
        out.append((resource.strip(), factor))
    return out


def _improvement_to_raw(resource: str, factor: float) -> float:
    """An *improvement* factor as a raw quantity multiplier.

    Improving bandwidth or compute speed multiplies the quantity;
    improving latency divides it.
    """
    return 1.0 / factor if resource.endswith(".lat") else factor


def run_whatif(query: str, engine: str = "dataflow",
               rows: Optional[int] = None,
               factors: Sequence[float] = DEFAULT_FACTORS,
               resources: Optional[Sequence[str]] = None,
               vary: Sequence[tuple[str, float]] = ()) -> dict:
    """Run the full causal what-if analysis for one figure scenario.

    Returns the ``repro.whatif/v1`` payload: baseline identity
    verification, exact critical-path attribution, the per-resource
    sensitivity sweep, and (optionally) explicit ``--vary`` runs.
    """
    baseline = run_scenario(query, engine=engine, rows=rows)
    base_elapsed = baseline.result.elapsed
    base_checksum = baseline.result.checksum()
    base_digest = baseline.digest()

    available = baseline.fabric.perturbable_resources()
    if resources is None:
        swept = sorted(available)
    else:
        swept = [baseline.fabric.canonical_resource(r)
                 for r in resources]
        for resource in swept:
            if resource not in available:
                raise ValueError(
                    f"resource {resource!r} absent from the {query} "
                    f"fabric (have: {sorted(available)})")

    # Identity check: factor=1.0 on every swept knob must reproduce
    # the baseline bit for bit.
    identity = run_scenario(
        query, engine=engine, rows=rows,
        perturbations=tuple((r, 1.0) for r in swept))
    verified = identity.digest() == base_digest

    attribution = baseline.attribution()

    sensitivity = []
    checksum_stable = True
    for resource in swept:
        speedups: dict[str, float] = {}
        for factor in factors:
            raw = _improvement_to_raw(resource, factor)
            run = run_scenario(query, engine=engine, rows=rows,
                               perturbations=((resource, raw),))
            checksum_stable = (checksum_stable and
                               run.result.checksum() == base_checksum)
            elapsed = run.result.elapsed
            speedups[f"{factor:g}"] = (base_elapsed / elapsed
                                       if elapsed > 0 else 1.0)
        best = max(speedups.values())
        sensitivity.append({
            "resource": resource,
            "description": available[resource],
            "speedups": speedups,
            "max_speedup": best,
            "gain": best - 1.0,
            "on_path": (best - 1.0) >= OFFPATH_GAIN,
        })
    sensitivity.sort(key=lambda row: (-row["max_speedup"],
                                      row["resource"]))

    vary_results = []
    for resource, raw in vary:
        canonical = baseline.fabric.canonical_resource(resource)
        run = run_scenario(query, engine=engine, rows=rows,
                           perturbations=((canonical, raw),))
        vary_results.append({
            "resource": canonical,
            "factor": raw,
            "sim_time_s": run.result.elapsed,
            "speedup": (base_elapsed / run.result.elapsed
                        if run.result.elapsed > 0 else 1.0),
            "checksum_match":
                run.result.checksum() == base_checksum,
        })

    return {
        "schema": WHATIF_SCHEMA,
        "query": query,
        "title": baseline.scenario.title,
        "engine": engine,
        "rows": baseline.rows,
        "factors": [float(f) for f in factors],
        "baseline": {
            "sim_time_s": base_elapsed,
            "checksum": base_checksum,
            "digest": base_digest,
            "verified_identical": verified,
            "checksums_stable": checksum_stable,
            "attribution": attribution.to_dict(),
            "stalls": baseline.fabric.trace.stall_report(),
            "ledger": baseline.fabric.trace.movement_ledger(),
        },
        "sensitivity": sensitivity,
        "off_path": sorted(row["resource"] for row in sensitivity
                           if not row["on_path"]),
        "vary": vary_results,
    }


def whatif_violations(payload: dict) -> list[str]:
    """Schema/consistency violations in a what-if payload (CI gate)."""
    errors: list[str] = []
    if payload.get("schema") != WHATIF_SCHEMA:
        errors.append(f"schema is {payload.get('schema')!r}, "
                      f"expected {WHATIF_SCHEMA!r}")
    for key in ("query", "engine", "rows", "factors", "baseline",
                "sensitivity", "off_path"):
        if key not in payload:
            errors.append(f"missing top-level key {key!r}")
    baseline = payload.get("baseline", {})
    for key in ("sim_time_s", "checksum", "digest",
                "verified_identical", "attribution"):
        if key not in baseline:
            errors.append(f"baseline missing {key!r}")
    if baseline.get("sim_time_s", 0.0) <= 0.0:
        errors.append("baseline sim_time_s not positive")
    if not baseline.get("verified_identical", False):
        errors.append("perturbed baseline (factor=1.0) was not "
                      "bit-identical to the unperturbed run")
    if not baseline.get("checksums_stable", True):
        errors.append("a perturbed run changed the query answer")
    attribution = baseline.get("attribution", {})
    if not attribution.get("exact", False):
        errors.append("attribution buckets do not reconcile exactly "
                      "with elapsed time")
    for row in payload.get("sensitivity", []):
        if "resource" not in row or "speedups" not in row:
            errors.append("sensitivity row missing resource/speedups")
            continue
        for factor, speedup in row["speedups"].items():
            if speedup <= 0:
                errors.append(f"sensitivity[{row['resource']}] "
                              f"speedup at {factor} not positive")
    return errors


def optimizer_crosscheck(query: str, rows: Optional[int] = None,
                         k: int = 3) -> dict:
    """Cross-check the optimizer's cost ranking against simulation.

    Takes the optimizer's top-``k`` placements for the scenario's
    query (by predicted movement-cost makespan), simulates each one,
    and reports every pairwise ranking disagreement — cases where the
    cost model predicts A faster than B but simulation says otherwise.
    Each simulated plan also gets its exact critical-path dominant
    bucket, so a disagreement comes with the evidence of *where* the
    cost model's bottleneck guess went wrong.
    """
    from ..engine import DataflowEngine
    from ..hardware import build_fabric
    from ..optimizer import Optimizer
    from ..relational import standard_catalog
    from .critical_path import attribute_query

    scenario = figure_scenario(query)
    rows = rows if rows is not None else SCENARIO_ROWS
    catalog = standard_catalog(rows)
    plan = scenario.query()

    rank_fabric = build_fabric(scenario.spec())
    ranked = Optimizer(rank_fabric, catalog).rank(plan)[:max(1, k)]

    plans = []
    for index, candidate in enumerate(ranked):
        fabric = build_fabric(scenario.spec())
        result = DataflowEngine(fabric, catalog).execute(
            plan, placement=candidate.placement)
        attribution = attribute_query(fabric.trace, result)
        plans.append({
            "rank": index,
            "placement": candidate.placement.name,
            "sites": candidate.placement.used_sites(),
            "predicted_s": candidate.cost.bottleneck_time,
            "simulated_s": result.elapsed,
            "dominant": attribution.dominant(),
            "attribution_exact": attribution.exact,
        })

    disagreements = []
    for i, a in enumerate(plans):
        for b in plans[i + 1:]:
            # Cost model ranked a above b; simulation must agree
            # (within nothing — the sim is the ground truth here).
            if a["simulated_s"] > b["simulated_s"]:
                disagreements.append({
                    "predicted_faster": a["placement"],
                    "actually_faster": b["placement"],
                    "predicted_s": [a["predicted_s"],
                                    b["predicted_s"]],
                    "simulated_s": [a["simulated_s"],
                                    b["simulated_s"]],
                    "dominant": [a["dominant"], b["dominant"]],
                })
    return {
        "query": query,
        "rows": rows,
        "k": len(plans),
        "plans": plans,
        "disagreements": disagreements,
        "agreement": not disagreements,
    }
