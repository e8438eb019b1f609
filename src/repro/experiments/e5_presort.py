"""E5 (extension) — pre-sorting at the storage layer (§3.3).

The paper: "a certain amount of pre-processing can also be efficiently
done in storage: pre-aggregation, pre-sorting, hashing, etc. although
probably only to parts of the data ... how would operators on the
compute layer side change given these pre-processing stages?"

The answer implemented here: the storage CU sorts each chunk (bounded
state — a run generator), and the compute-side sort *changes from a
full sort into a linear merge of runs*.  This experiment sweeps data size
and compares full-CPU sorting against run-generation pushdown,
reporting where the comparison work happens.
"""

from .. import (
    Catalog,
    DataflowEngine,
    Query,
    build_fabric,
    dataflow_spec,
    make_uniform_table,
    pushdown,
)
from . import above, below, exactly

CHUNK = 4_096


def run_case(rows: int, presort: bool) -> dict:
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("t", make_uniform_table(rows, columns=2,
                                             chunk_rows=CHUNK))
    query = Query.scan("t").sort(["k0"])
    placement = pushdown(query.plan, fabric, presort_runs=presort)
    result = DataflowEngine(fabric, catalog).execute(
        query, placement=placement)
    assert result.rows == rows
    return {
        "rows": rows,
        "presort": presort,
        "elapsed": result.elapsed,
        "cpu_busy": fabric.trace.busy_time("device.compute0.cpu"),
        "cu_sort_bytes": fabric.trace.counter(
            "device.storage.cu.bytes.sort"),
        "cpu_sort_bytes": fabric.trace.counter(
            "device.compute0.cpu.bytes.sort"),
        "first_keys": result.table.combined().column(
            "k0")[:5].tolist(),
    }


def run() -> list[dict]:
    out = []
    for rows in (20_000, 80_000, 200_000):
        out.append(run_case(rows, presort=False))
        out.append(run_case(rows, presort=True))
    return out


def _pairs(rows):
    """(full sort, presorted) rows per size."""
    by = {(r["rows"], r["presort"]): r for r in rows}
    return [(by[n, False], by[n, True]) for n in (20_000, 80_000, 200_000)]


CHECKS = {
    # Both produce the same sorted prefix.
    "presort_keeps_the_sorted_prefix": lambda rows: exactly(sum(
        base["first_keys"] != pre["first_keys"]
        for base, pre in _pairs(rows)), 0),
    # The comparison work moved off the host CPU.
    "presort_leaves_the_cpu_no_sorting": lambda rows: exactly(
        max(pre["cpu_sort_bytes"] for _base, pre in _pairs(rows)), 0),
    "presort_sorts_on_the_cu": lambda rows: above(
        min(pre["cu_sort_bytes"] for _base, pre in _pairs(rows)), 0),
    "full_sort_runs_on_the_cpu": lambda rows: above(
        min(base["cpu_sort_bytes"] for base, _pre in _pairs(rows)), 0),
    "presort_cuts_cpu_busy": lambda rows: below(max(
        pre["cpu_busy"] / base["cpu_busy"] for base, pre in _pairs(rows)), 1),
}
