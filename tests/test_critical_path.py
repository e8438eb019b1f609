"""Critical-path attribution: exactness, priorities, reconciliation.

The headline guarantee: for every figure scenario, on both engines,
the attribution buckets sum EXACTLY (tolerance zero,
rational arithmetic) to the query's simulated elapsed time.
"""

from fractions import Fraction

import pytest

from repro.analysis import SCENARIOS, attribute, run_scenario
from repro.sim import EventKind, Trace

ROWS = 600


# ---------------------------------------------------------------------------
# Unit behavior on synthetic traces
# ---------------------------------------------------------------------------

def test_empty_window_attributes_nothing():
    att = attribute(Trace(), 1.0, 1.0)
    assert att.buckets == {}
    assert att.exact            # 0 == 0
    assert att.dominant() == "wait:other"


def test_gap_goes_to_wait_other():
    trace = Trace()
    span = trace.open_span("device.d0", 0.0)
    trace.close_span(span, 0.25)
    att = attribute(trace, 0.0, 1.0)
    assert att.buckets["device:d0"] == Fraction(0.25)
    assert att.buckets["wait:other"] == Fraction(0.75)
    assert att.exact


def test_device_wins_over_link_and_stall():
    trace = Trace()
    link = trace.open_span("link.l0", 0.0)
    trace.close_span(link, 1.0)
    dev = trace.open_span("device.d0", 0.25)
    trace.close_span(dev, 0.75)
    trace.emit(0.0, EventKind.CREDIT_STALL, "flow", dur=1.0)
    att = attribute(trace, 0.0, 1.0)
    # Device hides the overlapping link; the stall never surfaces.
    assert att.buckets["device:d0"] == Fraction(0.5)
    assert att.buckets["link:l0"] == Fraction(0.5)
    assert "wait:credit" not in att.buckets
    assert att.exact
    assert att.dominant() in ("device:d0", "link:l0")


def test_wire_and_credit_fill_otherwise_idle_time():
    trace = Trace()
    # Dyadic instants so the expected Fractions are exact literals.
    trace.emit(0.0, EventKind.CHUNK_EMIT, "ch", flow_id=1)
    trace.emit(0.25, EventKind.CHUNK_RECV, "ch", flow_id=1)
    trace.emit(0.5, EventKind.CREDIT_STALL, "ch", dur=0.25)
    att = attribute(trace, 0.0, 1.0)
    assert att.buckets["wait:wire"] == Fraction(1, 4)
    assert att.buckets["wait:credit"] == Fraction(1, 4)
    assert att.buckets["wait:other"] == Fraction(1, 2)
    assert att.exact


def test_spans_outside_window_are_clipped_or_dropped():
    trace = Trace()
    before = trace.open_span("device.d0", 0.0)
    trace.close_span(before, 0.5)          # fully before the window
    straddle = trace.open_span("device.d1", 0.9)
    trace.close_span(straddle, 1.5)        # straddles the left edge
    att = attribute(trace, 1.0, 2.0)
    assert "device:d0" not in att.buckets
    assert att.buckets["device:d1"] == Fraction(1.5) - Fraction(1.0)
    assert att.exact


def test_open_span_extends_to_window_end():
    trace = Trace()
    trace.open_span("device.d0", 0.25)     # never closed
    att = attribute(trace, 0.0, 1.0)
    assert att.buckets["device:d0"] == Fraction(1.0) - Fraction(0.25)
    assert att.exact


def test_segments_are_contiguous_and_cover_the_window():
    trace = Trace()
    span = trace.open_span("device.d0", 0.2)
    trace.close_span(span, 0.4)
    att = attribute(trace, 0.0, 1.0)
    assert att.segments[0][0] == 0.0
    assert att.segments[-1][1] == 1.0
    for (_, prev_end, _), (nxt_start, _, _) in zip(att.segments,
                                                   att.segments[1:]):
        assert prev_end == nxt_start


def test_to_dict_is_json_shaped():
    trace = Trace()
    span = trace.open_span("device.d0", 0.0)
    trace.close_span(span, 1.0)
    payload = attribute(trace, 0.0, 1.0).to_dict()
    assert payload["exact"] is True
    assert payload["dominant"] == "device:d0"
    assert payload["buckets"]["device:d0"] == pytest.approx(1.0)
    assert payload["shares"]["device:d0"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Exact reconciliation: every scenario x engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("engine", ["dataflow", "volcano"])
def test_attribution_reconciles_exactly(scenario, engine):
    run = run_scenario(scenario, engine=engine, rows=ROWS)
    att = run.attribution()
    # Tolerance ZERO: rational bucket sums equal the exact window
    # width, and its float rendering equals the reported elapsed.
    assert att.total == att.elapsed
    assert att.exact
    assert float(att.total) == run.result.elapsed
    assert sum(att.buckets.values(), Fraction(0)) == (
        Fraction(run.result.finished_at)
        - Fraction(run.result.started_at))
    # Every bucket is non-negative and something was attributed.
    assert all(v >= 0 for v in att.buckets.values())
    assert run.result.elapsed > 0
    assert att.buckets
