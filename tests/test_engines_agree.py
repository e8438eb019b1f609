"""The central correctness oracle: both engines agree on every query.

The Volcano engine and the data-flow engine execute the same logical
plans over the same real data on the same simulated fabric; their
results must match row for row (order-insensitive).  This is the
reproduction's strongest invariant (DESIGN.md).
"""

import pytest

from repro.engine import (
    AggSpec,
    DataflowEngine,
    Placement,
    Query,
    VolcanoEngine,
    cpu_only,
    pushdown,
)
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import (
    Catalog,
    col,
    make_lineitem,
    make_orders,
    make_uniform_table,
)

ROWS = 8000
CHUNK = 1000


def make_env(compute_nodes=1):
    fabric = build_fabric(dataflow_spec(compute_nodes=compute_nodes))
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(ROWS, orders=ROWS // 4,
                                               chunk_rows=CHUNK))
    catalog.register("orders", make_orders(ROWS // 4, chunk_rows=CHUNK))
    catalog.register("uniform", make_uniform_table(ROWS, columns=3,
                                                   distinct=50,
                                                   chunk_rows=CHUNK))
    return fabric, catalog


def run_both(query, compute_nodes=1, placement_factory=None):
    # Fresh fabrics so traces do not interfere.
    fabric_v, catalog = make_env(compute_nodes)
    volcano = VolcanoEngine(fabric_v, catalog)
    res_v = volcano.execute(query)

    fabric_d, catalog_d = make_env(compute_nodes)
    dataflow = DataflowEngine(fabric_d, catalog_d)
    placement = (placement_factory(query.plan, fabric_d)
                 if placement_factory else None)
    res_d = dataflow.execute(query, placement=placement)
    return res_v, res_d


QUERIES = {
    "filter_project": (
        Query.scan("lineitem")
        .filter(col("l_quantity") > 40)
        .project(["l_orderkey", "l_extendedprice"])),
    "like_filter": (
        Query.scan("lineitem")
        .filter(col("l_comment").like("%express%"))
        .project(["l_orderkey"])),
    "group_by_sum": (
        Query.scan("lineitem")
        .filter(col("l_shipdate").between(8500, 10500))
        .aggregate(["l_returnflag"],
                   [AggSpec("sum", "l_extendedprice", "revenue"),
                    AggSpec("count", alias="n"),
                    AggSpec("avg", "l_discount", "avg_disc")])),
    "scalar_count": (
        Query.scan("lineitem").filter(col("l_quantity") > 25).count()),
    "join_filter_agg": (
        Query.scan("lineitem")
        .filter(col("l_quantity") > 10)
        .join(Query.scan("orders").filter(col("o_priority") <= 2),
              "l_orderkey", "o_orderkey")
        .aggregate(["o_priority"],
                   [AggSpec("sum", "l_extendedprice", "rev")])),
    "sort_limit": (
        Query.scan("uniform")
        .filter(col("k0") < 25)
        .sort(["k0", "k1"])
        .limit(100)),
    "min_max": (
        Query.scan("uniform")
        .aggregate(["k0"], [AggSpec("min", "k1", "lo"),
                            AggSpec("max", "k1", "hi")])),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_engines_agree_pushdown(name):
    res_v, res_d = run_both(QUERIES[name])
    assert res_v.table.sorted_rows() == res_d.table.sorted_rows()
    assert res_v.rows > 0  # queries chosen to be non-empty


@pytest.mark.parametrize("name", ["filter_project", "group_by_sum",
                                  "join_filter_agg"])
def test_engines_agree_cpu_only_placement(name):
    res_v, res_d = run_both(QUERIES[name], placement_factory=cpu_only)
    assert res_v.table.sorted_rows() == res_d.table.sorted_rows()


def test_engines_agree_distributed_join():
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 10)
             .join(Query.scan("orders"), "l_orderkey", "o_orderkey")
             .aggregate(["o_priority"],
                        [AggSpec("count", alias="n")]))

    def partitioned(plan, fabric):
        placement = pushdown(plan, fabric)
        placement.partitions = 2
        return placement

    res_v, res_d = run_both(query, compute_nodes=2,
                            placement_factory=partitioned)
    assert res_v.table.sorted_rows() == res_d.table.sorted_rows()


def test_dataflow_moves_fewer_network_bytes():
    """The headline claim: offloading cuts network movement."""
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 45)
             .project(["l_orderkey"]))
    res_v, res_d = run_both(query)
    assert res_d.bytes_on("network") < 0.25 * res_v.bytes_on("network")


def test_dataflow_faster_on_selective_query():
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 48)
             .count())
    res_v, res_d = run_both(query)
    assert res_d.elapsed < res_v.elapsed


def test_count_completes_on_nic():
    """§4.4: a COUNT query finishes on the NIC; nothing reaches DRAM."""
    fabric, catalog = make_env()
    engine = DataflowEngine(fabric, catalog)
    query = Query.scan("lineitem").count()
    placement = pushdown(query.plan, fabric, count_on_nic=True)
    agg_node = query.plan
    chain = placement.sites[agg_node.node_id]
    assert chain[-1] == "compute0.nic"
    result = engine.execute(query, placement=placement)
    assert result.table.column("count").tolist() == [ROWS]
    # Only the tiny final count crosses PCIe toward the host.
    assert result.bytes_on("pcie") < 1024
    assert result.bytes_on("cxl") < 1024


def test_volcano_reports_movement_on_every_segment():
    fabric, catalog = make_env()
    engine = VolcanoEngine(fabric, catalog)
    result = engine.execute(QUERIES["filter_project"])
    for segment in ("network", "membus", "cache", "storage"):
        assert result.bytes_on(segment) > 0, segment


def test_placement_validation_rejects_bad_site():
    fabric, catalog = make_env()
    engine = DataflowEngine(fabric, catalog)
    query = QUERIES["filter_project"]
    bad = Placement(sites={n.node_id: ["no.such.site"]
                           for n in query.plan.walk()})
    from repro.engine import PlacementError
    with pytest.raises(PlacementError):
        engine.execute(query, placement=bad)


def test_placement_validation_rejects_unsupported_kind():
    """A join cannot run on a storage CU (no such capability, §3.3)."""
    fabric, catalog = make_env()
    engine = DataflowEngine(fabric, catalog)
    query = Query.scan("lineitem").join(Query.scan("orders"),
                                        "l_orderkey", "o_orderkey")
    placement = pushdown(query.plan, fabric)
    placement.sites[query.plan.node_id] = ["storage.cu"]
    from repro.engine import PlacementError
    with pytest.raises(PlacementError):
        engine.execute(query, placement=placement)


def test_stateful_sort_rejected_at_kernel_time_on_cu():
    """The CU advertises SORT (bounded run generation), but a full
    stateful sort has no kernel form — the runtime refuses it."""
    fabric, catalog = make_env()
    engine = DataflowEngine(fabric, catalog)
    query = Query.scan("uniform").sort(["k0"])
    placement = pushdown(query.plan, fabric)
    placement.sites[query.plan.node_id] = ["storage.cu"]
    with pytest.raises(RuntimeError, match="ISA|kernel"):
        engine.execute(query, placement=placement)
