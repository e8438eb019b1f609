"""Tests for credit channels and stage graphs."""

import numpy as np
import pytest

from repro.engine.logical import AggSpec
from repro.engine.operators import (
    FilterOp,
    MergeAggregate,
    PartialAggregate,
    PartitionOp,
    ProjectOp,
    run_chain,
)
from repro.flow import END, CreditChannel, StageGraph
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import (
    DataType,
    Field,
    Schema,
    col,
    make_uniform_table,
)
from repro.sim import Simulator, Store, Trace


# ---------------------------------------------------------------------------
# CreditChannel
# ---------------------------------------------------------------------------

def channel_env(credits=2):
    sim = Simulator()
    trace = Trace()
    inbox = Store(sim)
    channel = CreditChannel(sim, trace, "ch", links=[], inbox=inbox,
                            credits=credits)
    return sim, trace, inbox, channel


def test_channel_delivers_in_order():
    sim, trace, inbox, channel = channel_env(credits=10)
    received = []

    def producer():
        for i in range(5):
            yield from channel.send(i, 10.0)

    def consumer():
        for _ in range(5):
            ch, payload = yield inbox.get()
            received.append(payload)
            ch.ack()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_channel_outstanding_never_exceeds_credits():
    """The §7.1 invariant: occupancy bounded by the credit window."""
    sim, trace, inbox, channel = channel_env(credits=3)

    def producer():
        for i in range(20):
            yield from channel.send(i, 10.0)

    def consumer():
        for _ in range(20):
            ch, _payload = yield inbox.get()
            yield sim.timeout(1.0)   # slow consumer
            ch.ack()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert channel.max_outstanding <= 3


def test_channel_blocks_producer_when_credits_exhausted():
    sim, trace, inbox, channel = channel_env(credits=1)
    times = []

    def producer():
        for i in range(3):
            yield from channel.send(i, 0.0)
            times.append(sim.now)

    def consumer():
        for _ in range(3):
            ch, _ = yield inbox.get()
            yield sim.timeout(5.0)
            ch.ack()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert times[1] >= 5.0
    assert times[2] >= 10.0


def test_channel_counts_control_traffic():
    sim, trace, inbox, channel = channel_env(credits=4)

    def producer():
        for i in range(4):
            yield from channel.send(i, 10.0)

    def consumer():
        for _ in range(4):
            ch, _ = yield inbox.get()
            ch.ack()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert trace.counter("flow.ch.control_bytes") == 4 * 16


def test_channel_requires_positive_credits():
    sim = Simulator()
    with pytest.raises(ValueError):
        CreditChannel(sim, Trace(), "ch", links=[], inbox=Store(sim),
                      credits=0)


def test_end_sentinel_repr():
    assert repr(END) == "END"


# ---------------------------------------------------------------------------
# StageGraph end-to-end
# ---------------------------------------------------------------------------

def test_stage_graph_filter_pipeline():
    fabric = build_fabric(dataflow_spec())
    table = make_uniform_table(5000, columns=2, distinct=100, seed=9,
                               chunk_rows=1000)
    graph = StageGraph(fabric, name="t1")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    filt = graph.stage("filter", "storage.cu", [FilterOp(col("k0") < 50)])
    sink = graph.sink("collect", "compute0.cpu")
    graph.connect(src, filt)
    graph.connect(filt, sink)
    result = graph.run()

    expected = table.combined().filter(table.column("k0") < 50)
    assert result.table().sorted_rows() == expected.sorted_rows()
    assert result.elapsed > 0
    # Data crossed the network (storage -> compute).
    assert fabric.trace.counter("movement.network.bytes") > 0


def test_stage_graph_pushdown_reduces_network_bytes():
    table = make_uniform_table(20000, columns=4, distinct=1000, seed=10,
                               chunk_rows=2000)
    predicate = col("k0") < 100   # ~10% selectivity

    def run(pushdown):
        fabric = build_fabric(dataflow_spec())
        graph = StageGraph(fabric, name="t")
        src = graph.source("scan", table, medium=fabric.storage.medium)
        site = "storage.cu" if pushdown else "compute0.cpu"
        filt = graph.stage("filter", site, [FilterOp(predicate)])
        sink = graph.sink("out", "compute0.cpu")
        graph.connect(src, filt)
        graph.connect(filt, sink)
        result = graph.run()
        return result, fabric.trace.counter("movement.network.bytes")

    res_push, net_push = run(True)
    res_cpu, net_cpu = run(False)
    assert res_push.table().sorted_rows() == res_cpu.table().sorted_rows()
    assert net_push < net_cpu * 0.25


def test_stage_graph_staged_aggregation():
    """Partial agg at storage, merge at NICs, final at CPU (§4.4)."""
    fabric = build_fabric(dataflow_spec())
    table = make_uniform_table(10000, columns=2, distinct=20, seed=11,
                               chunk_rows=500)
    schema = table.schema
    specs = [AggSpec("sum", "k1", "total"), AggSpec("count", alias="n")]
    output = Schema([Field("k0", DataType.INT64),
                     Field("total", DataType.FLOAT64),
                     Field("n", DataType.INT64)])

    graph = StageGraph(fabric, name="agg")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    partial = graph.stage("partial", "storage.cu",
                          [PartialAggregate(schema, ["k0"], specs)])
    merge1 = graph.stage("merge_snic", "storage.nic",
                         [MergeAggregate(schema, ["k0"], specs)])
    merge2 = graph.stage("merge_cnic", "compute0.nic",
                         [MergeAggregate(schema, ["k0"], specs)])
    final = graph.sink("final", "compute0.cpu",
                       [MergeAggregate(schema, ["k0"], specs, final=True,
                                       output_schema=output)])
    graph.connect(src, partial)
    graph.connect(partial, merge1)
    graph.connect(merge1, merge2)
    graph.connect(merge2, final)
    result = graph.run()

    got = result.table()
    k0 = table.column("k0")
    k1 = table.column("k1")
    for g, total, n in got.sorted_rows():
        mask = k0 == g
        assert total == k1[mask].sum()
        assert n == mask.sum()
    assert got.num_rows == len(np.unique(k0))


def test_stage_graph_partition_router():
    fabric = build_fabric(dataflow_spec(compute_nodes=2))
    table = make_uniform_table(4000, columns=2, distinct=500, seed=12,
                               chunk_rows=400)
    graph = StageGraph(fabric, name="scatter")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    scatter = graph.stage("scatter", "storage.nic",
                          [PartitionOp("k0", 2)], router="partition")
    sink0 = graph.sink("n0", "compute0.cpu")
    sink1 = graph.sink("n1", "compute1.cpu")
    graph.connect(src, scatter)
    graph.connect(scatter, sink0)
    graph.connect(scatter, sink1)
    result = graph.run()

    rows0 = result.tables["n0"].num_rows
    rows1 = result.tables["n1"].num_rows
    assert rows0 + rows1 == 4000
    assert rows0 > 0 and rows1 > 0
    combined = (result.tables["n0"].sorted_rows()
                + result.tables["n1"].sorted_rows())
    assert sorted(combined) == table.sorted_rows()


def test_stage_charges_its_device_exactly_what_run_chain_returns():
    fabric = build_fabric(dataflow_spec())
    table = make_uniform_table(1200, columns=2, distinct=50, seed=13,
                               chunk_rows=400)

    def free_ops():
        return [FilterOp(col("k0") < 30)]

    def charged_ops():
        # Several emits per input: the projection runs once per
        # partition, and is charged once per partition.
        return [PartitionOp("k1", 3), ProjectOp(["k0"])]

    graph = StageGraph(fabric, name="charges")
    src = graph.source("scan", table, ops=free_ops())   # no site
    sink = graph.sink("work", "compute0.cpu", charged_ops())
    graph.connect(src, sink)
    result = graph.run()
    assert result.table().num_rows == int((table.column("k0") < 30).sum())

    expected = []
    for chunk in table.chunks:
        [survivors], _ = run_chain(free_ops(), chunk)
        emits, charges = run_chain(charged_ops(), survivors.chunk)
        assert len(emits) == 3
        expected += charges
    assert [kind for kind, _ in expected] == (
        ["partition", "project", "project", "project"] * 3)

    device, trace = sink.device, fabric.trace
    busy = [span.end - span.start
            for span in trace.spans[f"device.{device.name}"]]
    assert busy == pytest.approx(
        [device.service_time(kind, nbytes) for kind, nbytes in expected])
    for kind in ("partition", "project"):
        assert trace.counter(f"device.{device.name}.bytes.{kind}") == sum(
            nbytes for k, nbytes in expected if k == kind)
    assert trace.counter(f"device.{device.name}.ops") == len(expected)
    # The source has no device: its filter ran and cost nothing.
    assert not [name for name in trace.counters
                if name.endswith(".bytes.filter")]


def test_stage_graph_rejects_unconnected_stage():
    fabric = build_fabric(dataflow_spec())
    graph = StageGraph(fabric, name="bad")
    graph.stage("orphan", "compute0.cpu", [ProjectOp(["x"])])
    with pytest.raises(RuntimeError):
        graph.start()


def test_stage_graph_duplicate_name_rejected():
    fabric = build_fabric(dataflow_spec())
    table = make_uniform_table(10, columns=1)
    graph = StageGraph(fabric, name="dup")
    graph.source("s", table)
    with pytest.raises(ValueError):
        graph.source("s", table)
