"""E2 (extension) — operator offloading to disaggregated memory (§5.3).

The paper cites Farview: "an accelerator can very well be coupled with
one or both the source and target NICs ... offload query operators on
the bottom part of query plans to NIC-based accelerators. By starting
to execute a query plan near memory, the portion ... that needs to be
processed by the CPU is greatly reduced."

Here a working table lives in a *disaggregated memory node* (not in
storage).  The bottom of the plan — filter + partial aggregation —
runs either on the compute node's CPU (every byte crosses the network)
or on the memory node's near-memory accelerator (only reduced state
crosses).  Sweeps filter selectivity.
"""

from .. import AggSpec, build_fabric, dataflow_spec
from ..engine.operators import (
    FilterOp,
    MergeAggregate,
    PartialAggregate,
)
from ..flow import StageGraph
from ..relational import (
    DataType,
    Field,
    Schema,
    col,
    make_uniform_table,
)
from . import above, exactly

ROWS = 150_000
CHUNK = 8_192
DISTINCT = 1_000
GROUPS = 50


def run_case(selectivity: float, offload: bool) -> dict:
    fabric = build_fabric(dataflow_spec(disagg_memory=True))
    table = make_uniform_table(ROWS, columns=3, distinct=DISTINCT,
                               chunk_rows=CHUNK)
    fabric.disagg.dram.allocate(table.nbytes)
    cutoff = int(DISTINCT * selectivity)
    predicate = col("k0") < cutoff
    schema = table.schema
    specs = [AggSpec("sum", "k2", "total"), AggSpec("count", alias="n")]
    output = Schema([Field("k1", DataType.INT64),
                     Field("total", DataType.FLOAT64),
                     Field("n", DataType.INT64)])
    group_pred = col("k1") < GROUPS   # keep group count fixed at 50

    graph = StageGraph(fabric, name=f"e2_{selectivity}_{offload}")
    src = graph.source("resident", table, location="memnode.node")
    bottom_site = "memnode.accel" if offload else "compute0.cpu"
    bottom = graph.stage(
        "bottom", bottom_site,
        [FilterOp(predicate & group_pred),
         PartialAggregate(schema, ["k1"], specs)])
    final = graph.sink(
        "final", "compute0.cpu",
        [MergeAggregate(schema, ["k1"], specs, final=True,
                        output_schema=output)])
    graph.connect(src, bottom)
    graph.connect(bottom, final)
    result = graph.run()
    return {
        "selectivity": selectivity,
        "bottom": "memnode.accel" if offload else "compute0.cpu",
        "groups": result.table().num_rows,
        "network": fabric.trace.counter("movement.network.bytes"),
        "elapsed": result.elapsed,
        "rows": result.table().sorted_rows(),
    }


def run() -> list[dict]:
    out = []
    for selectivity in (1.0, 0.1, 0.01):
        out.append(run_case(selectivity, offload=False))
        out.append(run_case(selectivity, offload=True))
    return out


def _pairs(rows):
    """(cpu, accel) rows per selectivity."""
    by = {(r["selectivity"], r["bottom"]): r for r in rows}
    return [(by[sel, "compute0.cpu"], by[sel, "memnode.accel"])
            for sel in (1.0, 0.1, 0.01)]


CHECKS = {
    "offload_keeps_the_answer": lambda rows: exactly(
        sum(cpu["rows"] != accel["rows"] for cpu, accel in _pairs(rows)), 0),
    "offload_cuts_network_20x": lambda rows: above(min(
        cpu["network"] / accel["network"] for cpu, accel in _pairs(rows)), 20),
    "offload_is_faster": lambda rows: above(min(
        cpu["elapsed"] / accel["elapsed"] for cpu, accel in _pairs(rows)), 1),
    # CPU-side network is selectivity-independent (full table moves).
    "cpu_side_moves_the_full_table": lambda rows: exactly(
        len({cpu["network"] for cpu, _accel in _pairs(rows)}), 1),
}
