"""C5 — "No more buffer pools" (§7.4).

The paper: the buffer pool anchors the engine to a machine — its DRAM
footprint is O(working set) — whereas a streaming data-flow engine
needs only O(pipeline) memory on the compute node, making compute
stateless and elastic.

Sweeps the table size.  The baseline is the Volcano engine reading
through a buffer pool sized to hold the hot set (the classic
configuration); the data-flow engine runs the same aggregation with
its bounded channel buffers.  Reported compute-node memory:
buffer-pool peak residency vs the peak of (in-flight channel chunks +
final operator state).
"""

from .. import (
    AggSpec,
    BufferPool,
    Catalog,
    DataflowEngine,
    Query,
    VolcanoEngine,
    build_fabric,
    col,
    dataflow_spec,
    make_uniform_table,
)
from . import above, below

CHUNK = 4_096
CREDITS = 8


def query():
    return (Query.scan("t")
            .filter(col("k0") < 500)
            .aggregate(["k1"], [AggSpec("count", alias="n")]))


def run_size(rows: int) -> dict:
    table = make_uniform_table(rows, columns=4, distinct=1000,
                               chunk_rows=CHUNK)

    # Volcano + buffer pool sized to the table (the "keep it all in
    # memory" doctrine).
    fabric_v = build_fabric(dataflow_spec())
    catalog_v = Catalog()
    catalog_v.register("t", table)
    pool = BufferPool(fabric_v, capacity_bytes=table.nbytes * 2)
    volcano = VolcanoEngine(fabric_v, catalog_v, bufferpool=pool)
    res_v = volcano.execute(query())

    # Data-flow engine: bounded channels, state only in the final agg.
    fabric_d = build_fabric(dataflow_spec())
    catalog_d = Catalog()
    catalog_d.register("t", table)
    engine = DataflowEngine(fabric_d, catalog_d,
                            default_credits=CREDITS)
    res_d = engine.execute(query())
    # Pipeline memory bound: inflight chunks x chunk bytes + result
    # state held by the final aggregate.
    chunk_bytes = table.chunks[0].nbytes
    inflight_peak = max(
        (fabric_d.trace.peak(name) for name in fabric_d.trace.series
         if name.startswith("stage.") and name.endswith(".inbox")),
        default=0.0)
    dataflow_peak = (CREDITS + inflight_peak) * chunk_bytes \
        + res_d.table.nbytes

    assert res_v.table.sorted_rows() == res_d.table.sorted_rows()
    return {
        "rows": rows,
        "table": table.nbytes,
        "bufferpool_peak": pool.peak_bytes,
        "dataflow_peak": dataflow_peak,
        "ratio": pool.peak_bytes / dataflow_peak,
        "volcano_elapsed": res_v.elapsed,
        "dataflow_elapsed": res_d.elapsed,
    }


def run() -> list[dict]:
    return [run_size(n) for n in (20_000, 80_000, 320_000)]


def _growth(rows, key):
    """Largest table's ``key`` over the smallest's (a 16x sweep)."""
    return rows[-1][key] / rows[0][key]


CHECKS = {
    "buffer_pool_grows_with_the_table":
        lambda rows: above(_growth(rows, "bufferpool_peak"), 10),
    "pipeline_memory_stays_flat":
        lambda rows: below(_growth(rows, "dataflow_peak"), 2),
    "the_gap_widens_4x": lambda rows: above(_growth(rows, "ratio"), 4),
}
