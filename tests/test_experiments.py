"""The paper's experiments as tier-1 checks.

Every check of all 20 experiments must pass.  Three experiments carry
their own ablation in their rows; judged with the ablation in place of
the configuration under study, the claim must fail — otherwise the
check would not be measuring what the ablation removes.
"""

import functools
import os
import subprocess
import sys

import pytest

import repro
from repro.experiments import EXPERIMENTS, experiment_module, run_experiment


@functools.cache
def record(exp_id: str) -> dict:
    return run_experiment(exp_id)


def check(exp_id: str, name: str):
    return experiment_module(exp_id).CHECKS[name]


@pytest.mark.parametrize("exp_id", list(EXPERIMENTS))
def test_every_check_passes(exp_id):
    checks = record(exp_id)["checks"]
    assert [c for c in checks if not c["passed"]] == []


def test_c4_claims_fail_on_the_a1_row():
    """A1 (one plan variant) is greedy, bit for bit: judged as the
    interference policy, it must not beat greedy."""
    greedy, ablation, _interference = record("c4")["rows"]
    assert ablation["makespan"] == greedy["makespan"]
    a1_as_interference = [greedy, ablation, ablation]
    for name in ("interference_spreads_across_variants",
                 "interference_cuts_makespan_20pct",
                 "interference_cuts_mean_latency"):
        passed, _value = check("c4", name)(a1_as_interference)
        assert not passed, name


def test_f6_a2_check_fails_with_the_copy_engines_swapped():
    """A2 moves exactly the bytes the DMA pipeline moves, so only the
    copy engine differs; with the two rows' roles swapped, CPU-mediated
    copies must not come out slower than DMA."""
    rows = record("f6")["rows"]
    by = {row["plan"]: row for row in rows}
    dma = by["dataflow/optimized"]
    copies = by["dataflow/optimized+cpu-copies"]
    for key in ("network", "host_ic", "membus", "total_moved"):
        assert copies[key] == dma[key], key
    swapped = [dict(copies, plan=dma["plan"]) if row is dma
               else dict(dma, plan=copies["plan"]) if row is copies
               else row for row in rows]
    passed, _value = check("f6", "cpu_copies_are_slower_than_dma")(swapped)
    assert not passed


def test_f2_network_cut_fails_on_the_pushdown_off_rows():
    rows = record("f2")["rows"]
    pulled = {(r["selectivity"], r["width"]): r for r in rows
              if not r["pushdown"]}
    off_as_on = [dict(pulled[r["selectivity"], r["width"]], pushdown=True)
                 if r["pushdown"] else r for r in rows]
    passed, cut = check("f2", "narrow_selective_pushdown_cuts_network_50x")(
        off_as_on)
    assert not passed and cut == 1.0


def test_f1_memory_bus_check_sees_one_byte():
    """F1 records byte counts as numbers: a selectivity whose table
    crossed the memory bus one byte short fails the claim."""
    rows = record("f1")["rows"]
    assert all(isinstance(row[key], (int, float)) for row in rows
               for key in ("storage", "pcie_or_cxl", "membus", "cache",
                           "returned"))
    one_short = [dict(rows[0], membus=rows[0]["membus"] - 1), *rows[1:]]
    passed, distinct = check("f1", "full_table_crosses_the_memory_bus")(
        one_short)
    assert not passed and distinct == 2


def test_e3_cpu_decompression_pays_for_the_cache_crossing():
    """The raw stream the CPU decompresses crosses the cache bus to it,
    and the compressed+cpu row's elapsed includes that crossing."""
    from repro.experiments.e3_compressed_memory import make_payload
    from repro.hardware import OpKind, build_fabric, dataflow_spec, \
        memory_read

    chunk, compressed, _ = make_payload()
    raw, packed = float(chunk.nbytes), float(compressed.nbytes)
    row = record("e3")["rows"][1]
    assert row["config"] == "compressed+cpu"
    assert row["cache_bytes"] == packed + raw

    fabric = build_fabric(dataflow_spec())
    fabric.sim.run_process(
        memory_read(fabric, "compute0.dram", "compute0.cpu", packed))
    cpu = fabric.site_device("compute0.cpu")
    (cachebus,) = fabric.route("compute0.llc", "compute0.cpu")
    crossing = cachebus.transfer_time(raw)
    expected = (fabric.sim.now + cpu.service_time(OpKind.DECOMPRESS, packed)
                + crossing + cpu.service_time(OpKind.FILTER, raw))
    assert row["elapsed"] == pytest.approx(expected, rel=1e-12)
    assert crossing > 0.01 * row["elapsed"]  # a real share, not rounding


def test_importing_repro_leaves_the_experiments_out():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro, repro.serve\n"
         "print(sorted(m for m in sys.modules if m.startswith("
         "('repro.experiments', 'repro.bench', 'repro.cli'))))"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
