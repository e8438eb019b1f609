"""The trace metrics registry: spans and derived reports."""

import pytest

from repro.engine import Query, VolcanoEngine
from repro.engine.results import TraceSnapshot
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import Catalog, col, make_lineitem
from repro.sim import Trace
from repro.sim.trace import Span


def test_open_span_duration_uses_clock_watermark():
    trace = Trace()
    span = trace.open_span("work", 2.0)
    assert not span.closed
    assert trace.duration(span) == 0.0   # clock still at 2.0
    trace.tick(7.5)
    assert trace.duration(span) == pytest.approx(5.5)
    assert span.duration == 0.0          # the span alone knows no clock
    trace.tick(3.0)                      # never moves backwards
    assert trace.clock == 7.5
    trace.close_span(span, 9.0)
    assert span.closed
    assert span.duration == trace.duration(span) == pytest.approx(7.0)
    assert trace.clock == 9.0


def test_orphan_span_duration_is_zero():
    span = Span("loose", 4.0)
    assert span.duration == 0.0


def test_close_open_spans():
    trace = Trace()
    done = trace.open_span("a", 0.0)
    trace.close_span(done, 1.0)
    trace.open_span("a", 2.0)
    trace.open_span("b", 3.0)
    trace.tick(5.0)
    assert trace.close_open_spans() == 2
    assert all(s.closed for spans in trace.spans.values()
               for s in spans)
    assert trace.busy_time("a") == pytest.approx(1.0 + 3.0)
    assert trace.close_open_spans() == 0


def test_span_summary_and_critical_path():
    trace = Trace()
    s1 = trace.open_span("long", 0.0)
    trace.close_span(s1, 4.0)
    s2 = trace.open_span("short", 1.0)
    trace.close_span(s2, 2.0)
    trace.open_span("short", 3.0)        # stays open, counts to clock
    trace.tick(5.0)

    summary = trace.span_summary()
    assert summary["long"]["count"] == 1
    assert summary["long"]["total_s"] == pytest.approx(4.0)
    assert summary["short"]["count"] == 2
    assert summary["short"]["open"] == 1
    assert summary["short"]["total_s"] == pytest.approx(1.0 + 2.0)

    path = trace.critical_path()
    assert [entry["span"] for entry in path] == ["long", "short"]
    assert path[0]["share"] == pytest.approx(4.0 / 5.0)
    assert trace.critical_path(top=1)[0]["span"] == "long"


def test_link_report_groups_bytes_and_chunks():
    trace = Trace()
    for _ in range(2):
        trace.record_movement("net0", "g.scan", "a->b", 512.0)
        trace.record_movement("net0", "g.filter", "a->b", 1536.0)
    trace.record_movement("pcie0", "g.scan", "b->c", 1024.0)
    trace.add("movement.network.bytes", 4096.0)  # a counter: ignored
    report = trace.link_report()
    assert report == {"net0": {"bytes": 4096.0, "chunks": 4.0},
                      "pcie0": {"bytes": 1024.0, "chunks": 1.0}}
    assert list(report) == ["net0", "pcie0"]


def test_snapshot_busy_and_utilization_delta():
    trace = Trace()
    trace.add("device.cpu.busy_s", 1.0)
    snapshot = TraceSnapshot(trace)
    trace.add("device.cpu.busy_s", 2.0)
    trace.add("device.nic.busy_s", 8.0)
    assert snapshot.busy_delta() == {"cpu": pytest.approx(2.0),
                                     "nic": pytest.approx(8.0)}
    util = snapshot.utilization_delta(4.0, slots={"nic": 4})
    assert util["cpu"] == pytest.approx(0.5)
    assert util["nic"] == pytest.approx(0.5)   # 8 s over 4 slots * 4 s
    # Never above 1 even when busy exceeds capacity.
    assert snapshot.utilization_delta(1.0)["nic"] == 1.0
    assert snapshot.utilization_delta(0.0) == {}


def test_query_populates_spans_and_device_busy_counters():
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(2000, chunk_rows=500))
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 25)
             .project(["l_orderkey"]))
    result = VolcanoEngine(fabric, catalog).execute(query)

    trace = fabric.trace
    assert trace.busy_time("query.volcano") == pytest.approx(
        result.elapsed)
    assert trace.total("device.") > 0
    assert result.utilization
    assert all(0.0 <= v <= 1.0 for v in result.utilization.values())
    links = trace.link_report()
    assert links and all(entry["bytes"] > 0 and entry["chunks"] > 0
                         for entry in links.values())
    # Every link that moved bytes moved whole chunks.
    assert trace.critical_path(top=1)[0]["span"] == "query.volcano"
