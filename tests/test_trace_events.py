"""The typed event layer: ring buffer, emit, Chrome export."""

import json

import pytest

from repro.engine.operators import FilterOp
from repro.flow import StageGraph
from repro.flow.credits import CreditChannel
from repro.hardware import build_fabric, dataflow_spec
from repro.hardware.device import Device, OpKind
from repro.hardware.interconnect import Link
from repro.relational import col, make_uniform_table
from repro.sim import (
    EventKind,
    EventRing,
    Resource,
    Simulator,
    Store,
    Trace,
    TraceEvent,
    chrome_trace,
    export_chrome_trace,
)


# ---------------------------------------------------------------------------
# EventRing
# ---------------------------------------------------------------------------

def _event(ts, kind=EventKind.OP_OPEN, actor="a"):
    return TraceEvent(ts=ts, kind=kind, actor=actor)


def test_ring_keeps_newest_and_counts_dropped():
    ring = EventRing(capacity=3)
    for ts in range(5):
        ring.append(_event(float(ts)))
    assert len(ring) == 3
    assert ring.dropped == 2
    assert ring.truncated
    # Oldest-first iteration even after the cursor wrapped.
    assert [e.ts for e in ring] == [2.0, 3.0, 4.0]
    assert ring.stats() == {"recorded": 3, "capacity": 3,
                            "dropped": 2, "truncated": True}


def test_ring_below_capacity_is_complete():
    ring = EventRing(capacity=4)
    for ts in range(3):
        ring.append(_event(float(ts)))
    assert not ring.truncated
    assert ring.dropped == 0
    assert [e.ts for e in ring] == [0.0, 1.0, 2.0]


def test_ring_rejects_nonpositive_capacity():
    with pytest.raises(ValueError, match="capacity"):
        EventRing(capacity=0)


def test_event_dict_round_trip_is_sparse():
    full = TraceEvent(ts=1.5, kind=EventKind.DMA_COMPLETE,
                      actor="nic.n0", label="read", nbytes=4096.0,
                      dur=0.25, flow_id=7)
    bare = TraceEvent(ts=2.0, kind=EventKind.CACHE_HIT, actor="c")
    assert TraceEvent(**full.to_dict()) == full
    assert bare.to_dict() == {"ts": 2.0, "kind": EventKind.CACHE_HIT,
                              "actor": "c"}
    assert TraceEvent(**bare.to_dict()) == bare


# ---------------------------------------------------------------------------
# Trace: emit
# ---------------------------------------------------------------------------

def test_emit_records_and_advances_watermark():
    trace = Trace()
    trace.emit(1.0, EventKind.OP_OPEN, "stage.g.s")
    assert trace.clock == 1.0
    # A window-shaped event advances the clock to its end.
    trace.emit(2.0, EventKind.CREDIT_STALL, "g.a->b", dur=0.5)
    assert trace.clock == 2.5
    assert [e.kind for e in trace.events] == [EventKind.OP_OPEN,
                                              EventKind.CREDIT_STALL]
    assert trace.event_stats()["recorded"] == 2
    assert trace.next_flow_id() == 1
    assert trace.next_flow_id() == 2


# ---------------------------------------------------------------------------
# Backpressure attribution
# ---------------------------------------------------------------------------

def test_credit_stall_attributed_to_sending_stage():
    sim = Simulator()
    trace = Trace()
    link = Link(sim, trace, "net0", bandwidth=1e6, latency=1e-6,
                segment="network")
    inbox = Store(sim, name="inbox")
    channel = CreditChannel(sim, trace, "g.a->b", [link], inbox,
                            credits=2, actor="g.a", direction="x->y")

    def producer():
        for _ in range(8):
            yield from channel.send(b"payload", 4096)
        yield from channel.send_end()

    def consumer():
        for _ in range(9):
            yield inbox.get()
            yield sim.timeout(0.05)   # slow: starves the window
            channel.ack()

    sim.process(producer())
    sim.process(consumer())
    sim.run()

    report = trace.stall_report()
    assert set(report) == {"g.a"}    # charged to the *sender* stage
    stats = report["g.a"]
    assert stats["credit_starved_s"] > 0.0
    assert stats["total_s"] == pytest.approx(
        stats["credit_starved_s"] + stats["downstream_full_s"]
        + stats["device_busy_s"])
    kinds = {e.kind for e in trace.events}
    assert EventKind.CREDIT_STALL in kinds
    assert EventKind.CREDIT_GRANT in kinds
    stalls = [e for e in trace.events
              if e.kind == EventKind.CREDIT_STALL]
    assert sum(e.dur for e in stalls) == pytest.approx(
        stats["credit_starved_s"])


def test_device_slot_contention_counter():
    """Two stages charging a one-core CPU at once: the one that queues
    for the slot shows up in the report's device-busy bucket."""
    fabric = build_fabric(dataflow_spec(cores=1))
    table = make_uniform_table(8192, columns=2, chunk_rows=4096)
    graph = StageGraph(fabric, name="g")
    cpu = "compute0.cpu"
    sink = graph.sink("sink", cpu)
    for name in ("a", "b"):
        source = graph.source(f"scan_{name}", table)
        stage = graph.stage(name, cpu, [FilterOp(col("k0") >= 0)])
        graph.connect(source, stage)
        graph.connect(stage, sink)
    graph.run()
    report = fabric.trace.stall_report()
    assert {"g.a", "g.b"} <= set(report)
    assert sum(stats["device_busy_s"] for stats in report.values()) > 0.0
    for stats in report.values():
        assert stats["total_s"] == pytest.approx(
            stats["credit_starved_s"] + stats["downstream_full_s"]
            + stats["device_busy_s"])


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------

def _sample_trace():
    trace = Trace()
    span = trace.open_span("query.volcano", 0.0)
    trace.close_span(span, 2.0)
    trace.emit(0.5, EventKind.CHUNK_EMIT, "g.a->b", nbytes=256.0,
               flow_id=1)
    trace.emit(0.9, EventKind.CHUNK_RECV, "g.a->b", flow_id=1)
    trace.emit(1.0, EventKind.CREDIT_STALL, "g.a->b", dur=0.25)
    trace.emit(1.5, EventKind.CACHE_MISS, "cache.c0", label="k")
    return trace


def test_chrome_trace_records_are_uniformly_shaped():
    payload = chrome_trace(_sample_trace())
    events = payload["traceEvents"]
    assert events
    for record in events:
        for key in ("ph", "ts", "pid", "tid"):
            assert key in record, (record, key)
    phases = {r["ph"] for r in events}
    assert {"M", "X", "i", "s", "f"} <= phases
    # The chunk_emit/chunk_recv pair became a tied flow arrow.
    starts = [r for r in events if r["ph"] == "s"]
    finishes = [r for r in events if r["ph"] == "f"]
    assert len(starts) == len(finishes) == 1
    assert starts[0]["id"] == finishes[0]["id"]
    # Timestamps are microseconds (1 simulated second = 1e6 us).
    spans = [r for r in events
             if r["ph"] == "X" and r["name"] == "query.volcano"]
    assert spans[0]["dur"] == pytest.approx(2e6)


def test_chrome_trace_export_round_trips_through_json(tmp_path):
    path = tmp_path / "trace.json"
    payload = export_chrome_trace(_sample_trace(), str(path))
    loaded = json.loads(path.read_text())
    assert loaded == payload
    assert isinstance(loaded["traceEvents"], list)
    assert loaded["otherData"]["event_ring"]["truncated"] is False


def test_chrome_trace_of_empty_trace_is_valid_and_empty():
    payload = chrome_trace(Trace())
    # No spans, no events: only the (empty) metadata survives, and
    # the payload is still a well-formed trace_events object.
    assert payload["traceEvents"] == []
    assert payload["otherData"]["event_ring"]["recorded"] == 0
    assert json.loads(json.dumps(payload)) == payload


def test_chrome_trace_closes_open_spans_at_watermark():
    trace = Trace()
    trace.open_span("device.d0", 1.0)    # never closed
    trace.tick(3.0)                      # clock watermark advances
    payload = chrome_trace(trace)
    spans = [r for r in payload["traceEvents"]
             if r["ph"] == "X" and r["name"] == "device.d0"]
    assert len(spans) == 1
    # The still-open span exports as [start, clock], not negative/NaN.
    assert spans[0]["ts"] == pytest.approx(1e6)
    assert spans[0]["dur"] == pytest.approx(2e6)


def test_chrome_trace_open_span_before_any_tick_has_zero_dur():
    trace = Trace()
    trace.open_span("device.d0", 0.5)
    # clock watermark still 0.0 < start: dur clamps to zero.
    spans = [r for r in chrome_trace(trace)["traceEvents"]
             if r["ph"] == "X"]
    assert spans[0]["dur"] == 0.0


def test_chrome_trace_skips_arrow_for_unmatched_send():
    trace = Trace()
    trace.emit(0.1, EventKind.CHUNK_EMIT, "g.a->b", nbytes=64.0,
               flow_id=7)            # receive never recorded
    trace.emit(0.2, EventKind.CHUNK_EMIT, "g.a->b", nbytes=64.0,
               flow_id=8)
    trace.emit(0.3, EventKind.CHUNK_RECV, "g.a->b", flow_id=8)
    payload = chrome_trace(trace)
    starts = [r for r in payload["traceEvents"] if r["ph"] == "s"]
    finishes = [r for r in payload["traceEvents"] if r["ph"] == "f"]
    # Flow 7's dangling send emits no arrow; flow 8 pairs up.
    assert [r["id"] for r in starts] == [8]
    assert [r["id"] for r in finishes] == [8]
    # The instant events themselves are still all exported.
    instants = [r for r in payload["traceEvents"] if r["ph"] == "i"]
    assert len(instants) == 3


def test_chrome_trace_skips_arrow_for_orphan_receive():
    trace = Trace()
    trace.emit(0.3, EventKind.CHUNK_RECV, "g.a->b", flow_id=9)
    payload = chrome_trace(trace)
    assert not [r for r in payload["traceEvents"]
                if r["ph"] in ("s", "f")]


# ---------------------------------------------------------------------------
# utilization() guards: elapsed <= 0 never divides
# ---------------------------------------------------------------------------

def test_resource_and_device_utilization_zero_horizon():
    sim = Simulator()
    trace = Trace()
    resource = Resource(sim, capacity=1, name="r")
    assert resource.utilization(elapsed=0.0) == 0.0
    assert resource.utilization() == 0.0         # sim.now == 0
    device = Device(sim, trace, "d", rates={OpKind.GENERIC: 1e9})
    assert device.utilization(elapsed=0.0) == 0.0
    link = Link(sim, trace, "l0", bandwidth=1e9, latency=0.0)
    assert link.utilization(elapsed=0.0) == 0.0
