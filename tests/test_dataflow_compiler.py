"""Structural tests for the data-flow compiler (plan -> stage graph)."""

import pytest

from repro.engine import (
    AggSpec,
    DataflowEngine,
    FilterOp,
    ProjectOp,
    Query,
    cpu_only,
    pushdown,
)
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import Catalog, col, make_lineitem, make_orders


def make_env(compute_nodes=1):
    fabric = build_fabric(dataflow_spec(compute_nodes=compute_nodes))
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(2000, orders=500,
                                               chunk_rows=250))
    catalog.register("orders", make_orders(500, chunk_rows=250))
    return fabric, catalog


def compile_graph(query, compute_nodes=1, placement_fn=pushdown,
                  partitions=1):
    fabric, catalog = make_env(compute_nodes)
    engine = DataflowEngine(fabric, catalog)
    placement = placement_fn(query.plan, fabric)
    placement.partitions = partitions
    return engine.compile(query, placement), fabric


def test_same_site_operators_fuse_into_one_stage():
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 10)
             .filter(col("l_discount") > 0.01)
             .project(["l_orderkey"]))
    graph, fabric = compile_graph(query)
    # scan + one CU stage (filter+filter+project) + gather.
    cu_stages = [s for s in graph.stages.values()
                 if s.device is fabric.site_device("storage.cu")]
    assert len(cu_stages) == 1
    assert [type(op) for op in cu_stages[0].ops] == [
        FilterOp, FilterOp, ProjectOp]


def test_cpu_only_plan_has_two_stages():
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 10)
             .project(["l_orderkey"]))
    graph, fabric = compile_graph(query, placement_fn=cpu_only)
    # Source + one CPU stage.
    assert len(graph.stages) == 2
    sinks = [s for s in graph.stages.values() if s.is_sink]
    assert len(sinks) == 1
    assert [type(op) for op in sinks[0].ops] == [FilterOp, ProjectOp]


def test_staged_aggregate_creates_chain_of_stages():
    query = Query.scan("lineitem").aggregate(
        ["l_returnflag"], [AggSpec("count", alias="n")])
    graph, fabric = compile_graph(query)
    devices = {s.name: s.device.name if s.device else None
               for s in graph.stages.values()}
    names = set(devices.values())
    # The chain touches the CU, both NICs, and the CPU.
    assert "storage.cu" in names
    assert "storage.nic.proc" in names
    assert "compute0.nic.proc" in names
    assert "compute0.cpu" in names


def test_join_compiles_to_build_and_dependent_probe():
    query = (Query.scan("lineitem")
             .join(Query.scan("orders"), "l_orderkey", "o_orderkey"))
    graph, fabric = compile_graph(query)
    build = [s for s in graph.stages.values()
             if any("join_build" in op.name for op in s.ops)]
    probe = [s for s in graph.stages.values()
             if any("join_probe" in op.name for op in s.ops)]
    assert len(build) == 1 and len(probe) == 1
    assert build[0].done in probe[0].depends_on


def test_partitioned_join_structure():
    query = (Query.scan("lineitem")
             .join(Query.scan("orders"), "l_orderkey", "o_orderkey")
             .aggregate([], [AggSpec("count", alias="n")]))
    graph, fabric = compile_graph(query, compute_nodes=2, partitions=2)
    scatters = [s for s in graph.stages.values()
                if s.router == "partition"]
    assert len(scatters) == 2      # build side + probe side
    for scatter in scatters:
        assert len(scatter.outputs) == 2
    probes = [s for s in graph.stages.values()
              if any("join_probe" in op.name for op in s.ops)]
    assert len(probes) == 2
    # Each probe runs on a different compute node's CPU.
    assert {p.device.name for p in probes} == {"compute0.cpu",
                                               "compute1.cpu"}


def test_partitioned_join_requires_enough_nodes():
    query = (Query.scan("lineitem")
             .join(Query.scan("orders"), "l_orderkey", "o_orderkey"))
    with pytest.raises(ValueError, match="compute nodes"):
        compile_graph(query, compute_nodes=1, partitions=2)


def test_compile_does_not_run():
    query = Query.scan("lineitem").count()
    graph, fabric = compile_graph(query)
    assert fabric.sim.now == 0.0
    assert all(s.done_at is None for s in graph.stages.values())
    # Running afterwards works.
    result = graph.run()
    assert result.elapsed > 0


def test_every_nonsource_stage_is_connected():
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 10)
             .join(Query.scan("orders").filter(col("o_priority") < 3),
                   "l_orderkey", "o_orderkey")
             .aggregate(["o_priority"], [AggSpec("count", alias="n")])
             .sort(["o_priority"])
             .limit(3))
    graph, fabric = compile_graph(query)
    for stage in graph.stages.values():
        if stage.source_table is None:
            assert stage.inputs, stage.name
    # And it runs correctly end to end.
    result = graph.run()
    table = result.table()
    assert table.num_rows <= 3
