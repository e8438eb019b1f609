"""F3 — streaming pipeline between NICs: staged group-by (Figure 3, §4.3-4.4).

The paper: "pre-aggregation could be done first at the storage layer,
once more on the sending NIC, and then again on the receiving NIC,
thereby creating a pipeline of group-by stages that can achieve more
than a single accelerator and significantly cut down the amount of
work needed at the final stage of processing."

Sweeps the number of pre-aggregation stages (0 = all on CPU, 1 =
storage CU only, 2 = +sending NIC, 3 = +receiving NIC) and the number
of groups, reporting the rows that reach the CPU's final stage and
the network bytes.
"""

import numpy as np

from .. import AggSpec, build_fabric, dataflow_spec
from ..engine.operators import MergeAggregate, PartialAggregate
from ..flow import StageGraph
from ..relational import DataType, Field, Schema, make_uniform_table
from . import below

ROWS = 100_000
CHUNK = 2_048

STAGE_SITES = ["storage.cu", "storage.nic", "compute0.nic"]


def run_case(groups: int, stages: int) -> dict:
    fabric = build_fabric(dataflow_spec())
    table = make_uniform_table(ROWS, columns=2, distinct=groups,
                               chunk_rows=CHUNK)
    schema = table.schema
    specs = [AggSpec("sum", "k1", "total"), AggSpec("count", alias="n")]
    output = Schema([Field("k0", DataType.INT64),
                     Field("total", DataType.FLOAT64),
                     Field("n", DataType.INT64)])

    graph = StageGraph(fabric, name=f"f3_{groups}_{stages}")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    prev = src
    if stages == 0:
        final_ops = [PartialAggregate(schema, ["k0"], specs),
                     MergeAggregate(schema, ["k0"], specs, final=True,
                                    output_schema=output)]
    else:
        partial = graph.stage("partial", STAGE_SITES[0],
                              [PartialAggregate(schema, ["k0"], specs)])
        graph.connect(prev, partial)
        prev = partial
        for i in range(1, stages):
            merge = graph.stage(f"merge{i}", STAGE_SITES[i],
                                [MergeAggregate(schema, ["k0"], specs)])
            graph.connect(prev, merge)
            prev = merge
        final_ops = [MergeAggregate(schema, ["k0"], specs, final=True,
                                    output_schema=output)]
    final = graph.sink("final", "compute0.cpu", final_ops)
    graph.connect(prev, final)
    result = graph.run()

    got = result.table()
    assert got.num_rows == len(np.unique(table.column("k0")))
    return {
        "groups": groups,
        "pre_stages": stages,
        "rows_into_cpu": final.rows_in,
        "network": fabric.trace.counter("movement.network.bytes"),
        "elapsed": result.elapsed,
        "cpu_busy": fabric.trace.busy_time("device.compute0.cpu"),
    }


def run() -> list[dict]:
    rows = []
    for groups in (10, 1_000, 50_000):
        for stages in (0, 1, 2, 3):
            rows.append(run_case(groups, stages))
    return rows


def _pick(rows, groups, stages):
    return next(r for r in rows if r["groups"] == groups
                and r["pre_stages"] == stages)


def _merges_never_add_cpu_rows(rows):
    for groups in (10, 1_000, 50_000):
        seq = [_pick(rows, groups, s)["rows_into_cpu"] for s in (0, 1, 2, 3)]
        if not (seq[1:] == sorted(seq[1:], reverse=True)
                or all(v <= seq[0] for v in seq[1:])):
            return False, None
    return True, None


CHECKS = {
    # Few groups: one pre-agg stage slashes rows into the CPU.
    "one_stage_cuts_cpu_rows_below_1pct": lambda rows: below(
        _pick(rows, 10, 1)["rows_into_cpu"], ROWS / 100),
    "merge_stages_never_add_cpu_rows": _merges_never_add_cpu_rows,
    "offload_cuts_cpu_busy": lambda rows: below(
        _pick(rows, 1_000, 3)["cpu_busy"]
        / _pick(rows, 1_000, 0)["cpu_busy"], 1),
}
