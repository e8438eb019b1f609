"""F4 — NIC-orchestrated scattering pipeline + NIC-resident queries
(Figure 4, §4.4).

Two claims:

1. SmartNICs can partition data on the fly and orchestrate a
   distributed, partitioned hash join "without involvement of the
   CPU" for the exchange — the scattering pipeline of Figure 4.
   We compare a single-node join against a 2-node NIC-scattered join
   (same data, same fabric class) and report elapsed time and where
   the partitioning work ran.

2. "A query returning only a COUNT can be executed directly on the
   NIC ... providing the final results at the end" — we run COUNT(*)
   with the final stage on the receiving NIC and measure the bytes
   that reach host memory.
"""

import math

from .. import (
    AggSpec,
    Catalog,
    DataflowEngine,
    Query,
    build_fabric,
    col,
    dataflow_spec,
    make_lineitem,
    make_orders,
    pushdown,
)
from . import above, below, exactly

LINEITEM_ROWS = 120_000
ORDER_ROWS = 30_000
CHUNK = 8_192

JOIN_QUERY_ROWS_FILTER = 10


def make_catalog():
    catalog = Catalog()
    catalog.register("lineitem",
                     make_lineitem(LINEITEM_ROWS,
                                   orders=ORDER_ROWS, chunk_rows=CHUNK))
    catalog.register("orders", make_orders(ORDER_ROWS, chunk_rows=CHUNK))
    return catalog


def join_query():
    return (Query.scan("lineitem")
            .filter(col("l_quantity") > JOIN_QUERY_ROWS_FILTER)
            .join(Query.scan("orders"), "l_orderkey", "o_orderkey")
            .aggregate(["o_priority"],
                       [AggSpec("sum", "l_extendedprice", "rev"),
                        AggSpec("count", alias="n")]))


def run_join(partitions: int) -> dict:
    fabric = build_fabric(dataflow_spec(
        compute_nodes=max(1, partitions)))
    catalog = make_catalog()
    engine = DataflowEngine(fabric, catalog)
    query = join_query()
    placement = pushdown(query.plan, fabric)
    placement.partitions = partitions
    result = engine.execute(query, placement=placement)
    nic_partition_bytes = (
        fabric.trace.counter("device.storage.nic.proc.bytes.partition"))
    cpu_partition_bytes = sum(
        v for k, v in fabric.trace.counters.items()
        if ".cpu.bytes.partition" in k)
    return {
        "partitions": partitions,
        "rows": result.rows,
        "elapsed": result.elapsed,
        "network": result.bytes_on("network"),
        "nic_partition_bytes": nic_partition_bytes,
        "cpu_partition_bytes": cpu_partition_bytes,
        "sorted_rows": result.table.sorted_rows(),
    }


def run_count_on_nic() -> dict:
    fabric = build_fabric(dataflow_spec())
    catalog = make_catalog()
    engine = DataflowEngine(fabric, catalog)
    query = Query.scan("lineitem").count()
    placement = pushdown(query.plan, fabric)
    result = engine.execute(query, placement=placement)
    return {
        "scenario": "count_on_nic",
        "count": int(result.table.column("count")[0]),
        "to_host_bytes": result.bytes_on("pcie") + result.bytes_on("cxl"),
        "network": result.bytes_on("network"),
        "elapsed": result.elapsed,
    }


def run():
    single = run_join(1)
    scattered = run_join(2)
    count = run_count_on_nic()
    return single, scattered, count


def _rows_approx_equal(a, b) -> bool:
    """Order-insensitive row comparison tolerant of float summation
    order (the two plans add floats in different orders)."""
    def same(u, v):
        if isinstance(u, float) or isinstance(v, float):
            return math.isclose(u, v, rel_tol=1e-9, abs_tol=1e-9)
        return u == v
    return len(a) == len(b) and all(
        len(x) == len(y) and all(map(same, x, y))
        for x, y in zip(sorted(a), sorted(b)))


CHECKS = {
    "scattered_join_answers_as_one_node": lambda rows: (_rows_approx_equal(
        rows[0]["sorted_rows"], rows[1]["sorted_rows"]), None),
    # The exchange ran on the NIC, not the CPU.
    "nic_runs_the_exchange":
        lambda rows: above(rows[1]["nic_partition_bytes"], 0),
    "cpu_partitions_nothing":
        lambda rows: exactly(rows[1]["cpu_partition_bytes"], 0),
    # Two nodes beat one on the same (per-node) hardware.
    "two_nodes_beat_one": lambda rows: above(
        rows[0]["elapsed"] / rows[1]["elapsed"], 1),
    # COUNT: only a scalar crosses toward host memory.
    "nic_count_is_exact":
        lambda rows: exactly(rows[2]["count"], LINEITEM_ROWS),
    "only_a_scalar_reaches_the_host":
        lambda rows: below(rows[2]["to_host_bytes"], 1024),
}
