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

One more row shrinks the pool to a quarter of the table: a single
sequential scan then evicts every chunk before it is read again, so
the pool pays its DRAM and buys no hit (sequential flooding).
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
from ..flow.stages import CREDITS
from . import above, below

CHUNK = 4_096
SIZES = (20_000, 80_000, 320_000)
FLOODING_ROWS = 80_000


def query():
    return (Query.scan("t")
            .filter(col("k0") < 500)
            .aggregate(["k1"], [AggSpec("count", alias="n")]))


def run_volcano(table, pool_bytes: int):
    """The query on Volcano, reading through a ``pool_bytes`` pool."""
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("t", table)
    pool = BufferPool(fabric, capacity_bytes=pool_bytes)
    return pool, VolcanoEngine(fabric, catalog,
                               bufferpool=pool).execute(query())


def run_size(rows: int) -> dict:
    table = make_uniform_table(rows, columns=4, distinct=1000,
                               chunk_rows=CHUNK)
    # Volcano + buffer pool sized to the table (the "keep it all in
    # memory" doctrine).
    pool, res_v = run_volcano(table, table.nbytes * 2)

    # Data-flow engine: bounded channels, state only in the final agg.
    fabric_d = build_fabric(dataflow_spec())
    catalog_d = Catalog()
    catalog_d.register("t", table)
    flow = DataflowEngine(fabric_d, catalog_d).compile(query()).run()
    result = flow.table()
    # Pipeline memory bound: inflight chunks x chunk bytes + result
    # state held by the final aggregate.
    chunk_bytes = table.chunks[0].nbytes
    inflight_peak = max(s.inbox_peak for s in flow.stages.values())
    dataflow_peak = (CREDITS + inflight_peak) * chunk_bytes \
        + result.nbytes

    assert res_v.table.sorted_rows() == result.sorted_rows()
    return {
        "rows": rows,
        "table": table.nbytes,
        "bufferpool_peak": pool.peak_bytes,
        "dataflow_peak": dataflow_peak,
        "ratio": pool.peak_bytes / dataflow_peak,
        "volcano_elapsed": res_v.elapsed,
        "dataflow_elapsed": flow.elapsed,
    }


def run_flooding() -> dict:
    """One Volcano scan through a pool a quarter of the table."""
    table = make_uniform_table(FLOODING_ROWS, columns=4, distinct=1000,
                               chunk_rows=CHUNK)
    pool, _result = run_volcano(table, table.nbytes // 4)
    return {
        "rows": FLOODING_ROWS,
        "table": table.nbytes,
        "pool_capacity": pool.lru.capacity_bytes,
        "bufferpool_peak": pool.peak_bytes,
        "hits": pool.lru.hits,
        "misses": pool.lru.misses,
        "evictions": pool.lru.evictions,
        "dram_frees": pool.fabric.trace.counter(
            f"dram.{pool.dram.name}.frees"),
    }


def run() -> list[dict]:
    return [run_size(n) for n in SIZES] + [run_flooding()]


def _growth(rows, key):
    """Largest table's ``key`` over the smallest's (a 16x sweep)."""
    sweep = rows[:len(SIZES)]
    return sweep[-1][key] / sweep[0][key]


def _flooding_holds(rows):
    """The undersized pool evicted, never hit, and stayed in budget."""
    row = rows[len(SIZES)]
    holds = (row["evictions"] > 0 and row["hits"] == 0
             and row["bufferpool_peak"] <= row["pool_capacity"])
    return holds, row["evictions"]


CHECKS = {
    "buffer_pool_grows_with_the_table":
        lambda rows: above(_growth(rows, "bufferpool_peak"), 10),
    "pipeline_memory_stays_flat":
        lambda rows: below(_growth(rows, "dataflow_peak"), 2),
    "the_gap_widens_4x": lambda rows: above(_growth(rows, "ratio"), 4),
    "an_undersized_pool_floods_on_a_scan": _flooding_holds,
}
