"""Coverage for result accounting, traces, routers, and edge cases."""

import numpy as np
import pytest

from repro import obs
from repro.engine import (
    AggSpec,
    DataflowEngine,
    Query,
    QueryResult,
    TraceSnapshot,
    VolcanoEngine,
)
from repro.engine.operators import ProjectOp
from repro.flow import StageGraph
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import (
    Catalog,
    Chunk,
    DataType,
    Schema,
    Table,
    col,
    make_uniform_table,
)
from repro.sim import Trace


# ---------------------------------------------------------------------------
# Trace
# ---------------------------------------------------------------------------

def test_trace_counters_and_totals():
    trace = Trace()
    trace.add("a.x", 1)
    trace.add("a.y", 2)
    trace.add("b.z", 4)
    assert trace.counter("a.x") == 1
    assert trace.counter("missing") == 0
    assert trace.total("a.") == 3


def test_trace_spans_and_busy_time():
    trace = Trace()
    span = trace.open_span("work", 1.0)
    trace.close_span(span, 3.5)
    span2 = trace.open_span("work", 5.0)
    trace.close_span(span2, 6.0)
    assert trace.busy_time("work") == pytest.approx(3.5)
    # Open spans measure up to the trace clock instead of raising,
    # so a mid-run report never crashes a benchmark.
    open_span = trace.open_span("work", 7.0)
    assert open_span.duration == 0.0
    trace.tick(9.0)
    assert open_span.duration == pytest.approx(2.0)
    assert trace.busy_time("work") == pytest.approx(5.5)
    assert trace.close_open_spans() == 1
    assert open_span.end == pytest.approx(9.0)


def test_trace_series_peak():
    trace = Trace()
    trace.sample("q", 0.0, 1.0)
    trace.sample("q", 1.0, 5.0)
    trace.sample("q", 2.0, 2.0)
    assert trace.peak("q") == 5.0
    assert trace.peak("missing") == 0.0


def test_trace_snapshot_delta():
    trace = Trace()
    trace.add("m.bytes", 100)
    snap = TraceSnapshot(trace)
    trace.add("m.bytes", 50)
    trace.add("n.bytes", 7)
    assert snap.delta_prefix("") == {"m.bytes": 50, "n.bytes": 7}


# ---------------------------------------------------------------------------
# QueryResult
# ---------------------------------------------------------------------------

def test_query_result_summary(monkeypatch):
    schema = Schema.of(("a", DataType.INT64))
    table = Table(schema, [Chunk(schema, {"a": np.array([1, 2])})])
    result = QueryResult(table=table, elapsed=0.5, engine="x",
                         movement={"network.bytes": 10.0,
                                   "pcie.bytes": 5.0})
    assert result.rows == 2
    assert result.total_bytes_moved == 15.0
    assert result.bytes_on("network") == 10.0
    assert result.bytes_on("absent") == 0.0
    # The canonical rendering happens once per table, not per call.
    rendered = []
    render = obs.table_checksum
    monkeypatch.setattr(obs, "table_checksum",
                        lambda t: rendered.append(t) or render(t))
    assert result.checksum() == result.checksum() == render(table)
    assert rendered == [table]
    result.table = Table(schema, [Chunk(schema, {"a": np.array([1, 3])})])
    assert result.checksum() == render(result.table) != render(table)
    assert rendered == [table, result.table]


# ---------------------------------------------------------------------------
# Fabric reporting
# ---------------------------------------------------------------------------

def test_fabric_movement_report():
    fabric = build_fabric(dataflow_spec())

    def proc():
        yield from fabric.transfer("storage.node", "compute0.cpu",
                                   1000.0)

    fabric.sim.process(proc())
    fabric.run()
    report = fabric.movement_report()
    assert report["network.bytes"] == 2000.0   # two network hops
    assert fabric.trace.total("movement.") == sum(report.values())


# ---------------------------------------------------------------------------
# Stage routers
# ---------------------------------------------------------------------------

def router_graph(router):
    fabric = build_fabric(dataflow_spec(compute_nodes=2))
    table = make_uniform_table(600, columns=1, chunk_rows=100)
    graph = StageGraph(fabric, name=f"r_{router}")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    mid = graph.stage("mid", "storage.nic", [ProjectOp(["k0"])],
                      router=router)
    s0 = graph.sink("s0", "compute0.cpu")
    s1 = graph.sink("s1", "compute1.cpu")
    graph.connect(src, mid)
    graph.connect(mid, s0)
    graph.connect(mid, s1)
    return graph, table


def test_round_robin_router_splits_chunks():
    graph, table = router_graph("round_robin")
    result = graph.run()
    rows0 = result.tables["s0"].num_rows
    rows1 = result.tables["s1"].num_rows
    assert rows0 + rows1 == 600
    assert rows0 == rows1 == 300  # 6 chunks alternate evenly


def test_broadcast_router_duplicates():
    graph, table = router_graph("broadcast")
    result = graph.run()
    assert result.tables["s0"].num_rows == 600
    assert result.tables["s1"].num_rows == 600
    assert result.tables["s0"].sorted_rows() == \
        result.tables["s1"].sorted_rows()


def test_partition_router_requires_routed_emits():
    graph, _table = router_graph("partition")  # ProjectOp sets no route
    with pytest.raises(RuntimeError, match="partition router"):
        graph.run()


def test_unknown_router_rejected():
    fabric = build_fabric(dataflow_spec())
    graph = StageGraph(fabric)
    with pytest.raises(ValueError):
        graph.stage("x", "compute0.cpu", [], router="teleport")


# ---------------------------------------------------------------------------
# Engine edge cases
# ---------------------------------------------------------------------------

def env(rows=2000):
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("t", make_uniform_table(rows, columns=3,
                                             distinct=100,
                                             chunk_rows=250))
    return fabric, catalog


def test_empty_result_queries_agree():
    query = Query.scan("t").filter(col("k0") > 10_000)
    fabric_v, catalog_v = env()
    res_v = VolcanoEngine(fabric_v, catalog_v).execute(query)
    fabric_d, catalog_d = env()
    res_d = DataflowEngine(fabric_d, catalog_d).execute(query)
    assert res_v.rows == res_d.rows == 0


def test_scan_column_pruning_in_both_engines():
    query = Query.scan("t", columns=["k1"])
    fabric_v, catalog_v = env()
    res_v = VolcanoEngine(fabric_v, catalog_v).execute(query)
    fabric_d, catalog_d = env()
    res_d = DataflowEngine(fabric_d, catalog_d).execute(query)
    assert res_v.table.schema.names == ["k1"]
    assert res_v.table.sorted_rows() == res_d.table.sorted_rows()


def test_limit_in_dataflow_engine():
    query = Query.scan("t").limit(123)
    fabric, catalog = env()
    result = DataflowEngine(fabric, catalog).execute(query)
    assert result.rows == 123


def test_string_group_by_agrees():
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    from repro.relational import make_lineitem
    catalog.register("lineitem", make_lineitem(3000, chunk_rows=500))
    query = (Query.scan("lineitem")
             .aggregate(["l_returnflag"],
                        [AggSpec("count", alias="n")]))
    res_d = DataflowEngine(fabric, catalog).execute(query)
    fabric2 = build_fabric(dataflow_spec())
    res_v = VolcanoEngine(fabric2, catalog).execute(query)
    assert res_d.table.sorted_rows() == res_v.table.sorted_rows()
    assert res_d.rows == 3


def test_operator_exception_surfaces_from_stage_graph():
    fabric = build_fabric(dataflow_spec())
    table = make_uniform_table(100, chunk_rows=50)

    class ExplodingOp(ProjectOp):
        def process(self, chunk):
            raise ValueError("injected failure")

    graph = StageGraph(fabric, name="boom")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    bad = graph.stage("bad", "compute0.cpu", [ExplodingOp(["k0"])])
    graph.connect(src, bad)
    with pytest.raises(ValueError, match="injected failure"):
        graph.run()


def test_query_builder_validation():
    with pytest.raises(ValueError):
        Query.scan("t").sort([])
    with pytest.raises(ValueError):
        Query.scan("t").limit(-1)
    with pytest.raises(ValueError):
        Query.scan("t").aggregate(["a"], [])
    with pytest.raises(ValueError):
        AggSpec("median", "x")
    with pytest.raises(ValueError):
        AggSpec("sum")   # sum requires a column


def test_volcano_bufferpool_warm_run_skips_network():
    from repro.cloud import BufferPool
    fabric, catalog = env()
    pool = BufferPool(fabric, capacity_bytes=64 << 20)
    engine = VolcanoEngine(fabric, catalog, bufferpool=pool)
    query = Query.scan("t").filter(col("k0") < 50)
    first = engine.execute(query)
    second = engine.execute(query)
    assert first.table.sorted_rows() == second.table.sorted_rows()
    assert first.bytes_on("network") > 0
    assert second.bytes_on("network") == 0     # warm pool
    assert pool.hit_rate >= 0.5


def test_fabric_utilization_report():
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("t", make_uniform_table(5000, chunk_rows=500))
    DataflowEngine(fabric, catalog).execute(
        Query.scan("t").filter(col("k0") < 100))
    report = fabric.utilization_report()
    assert all(0.0 <= v <= 1.0 for v in report.values())
    assert report["device:storage.cu"] > 0.0
    assert any(k.startswith("link:") and v > 0
               for k, v in report.items())
