"""Property test: a winner-timeline slice == the reference == an oracle.

:class:`repro.analysis.WinnerTimeline` sweeps an interval set once and
claims that any window sliced out of it equals
``attribute(trace, q0, q1, intervals=list)`` — the windowed numpy
reference pass it shares nothing with but the interval list — for
every interval/window shape: zero-width intervals, open
(still-running) spans, duplicates, equal-priority ties between
buckets, edges that land exactly on window boundaries, windows before,
after, inside and across the runs.  A third oracle shares no algorithm
with either: it scans every interval at each elementary segment's
exact ``Fraction`` midpoint.  Hypothesis drives the claims; buckets
must agree Fraction-exactly and shares bit-for-bit.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.analysis import WinnerTimeline, attribute, attribute_windows
from repro.sim import EventKind, EventRing, Trace

# A coarse binary grid makes exact window-edge collisions common
# (0.125 steps are exact in binary floating point), while the float
# strategy exercises arbitrary unaligned reals.
_GRID = st.integers(min_value=-8, max_value=24).map(lambda i: i / 8)
_REAL = st.floats(min_value=-1.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)
_POINT = st.one_of(_GRID, _REAL)

# Two buckets share priority 0 and two share priority 3: overlapping
# equal-priority sources are decided by bucket name.
_BUCKETS = [("device:cpu", 0), ("device:gpu", 0), ("storage:media", 1),
            ("nic:dma", 2), ("link:bus", 3), ("link:alt", 3),
            ("wait:wire", 4), ("wait:credit", 5)]


@st.composite
def _interval(draw):
    start = draw(_POINT)
    kind = draw(st.sampled_from(["closed", "zero", "open"]))
    if kind == "open":
        end = None                      # still-running span
    elif kind == "zero":
        end = start                     # zero-width interval
    else:
        end = start + abs(draw(_POINT))
    bucket, prio = draw(st.sampled_from(_BUCKETS))
    return (start, end, bucket, prio)


@st.composite
def _intervals(draw):
    intervals = draw(st.lists(_interval(), max_size=24))
    # Exact duplicates must count twice in the active multiset.
    repeats = draw(st.lists(st.sampled_from(intervals), max_size=4)) \
        if intervals else []
    return intervals + repeats


@st.composite
def _window(draw, intervals):
    # Interval endpoints are the timeline's run boundaries, so drawing
    # q0 / q1 from them puts window edges exactly on a boundary.
    edges = [point for start, end, _b, _p in intervals
             for point in (start, end) if point is not None]
    point = st.one_of(_POINT, st.sampled_from(edges)) if edges \
        else _POINT
    q0 = draw(point)
    q1 = draw(st.one_of(
        point,                                    # may be <= q0
        st.one_of(st.just(0.0), _GRID.map(abs),
                  _REAL.map(abs)).map(lambda w: q0 + w)))
    return q0, q1


@st.composite
def _case(draw):
    intervals = draw(_intervals())
    return intervals, draw(_window(intervals))


def _assert_slice_equals_reference(trace, intervals, q0, q1):
    sliced = WinnerTimeline(trace, intervals).attribute(q0, q1)
    reference = attribute(trace, q0, q1, intervals=list(intervals))
    assert sliced.buckets == reference.buckets  # Fraction-exact
    assert all(type(v) is Fraction for v in sliced.buckets.values())
    assert sliced.segments == reference.segments
    assert sliced.partial == reference.partial
    assert sliced.partial_reason == reference.partial_reason
    assert (sliced.started_at, sliced.finished_at) == (q0, q1)
    if q1 > q0:
        assert sliced.total == Fraction(q1) - Fraction(q0)
    else:
        assert sliced.buckets == {} and sliced.segments == []


@given(case=_case())
@settings(max_examples=500, deadline=None)
def test_timeline_slice_equals_reference_sweep(case):
    intervals, (q0, q1) = case
    _assert_slice_equals_reference(Trace(), intervals, q0, q1)


@given(case=_case())
@settings(max_examples=50, deadline=None)
def test_slice_of_a_dropped_ring_is_partial_like_the_reference(case):
    intervals, (q0, q1) = case
    trace = Trace(events=EventRing(1))
    trace.emit(0.0, EventKind.CHUNK_EMIT, "chan")
    trace.emit(0.1, EventKind.CHUNK_EMIT, "chan")
    assert trace.events.dropped == 1
    _assert_slice_equals_reference(trace, intervals, q0, q1)
    assert WinnerTimeline(trace, intervals).attribute(q0, q1).partial


@given(intervals=_intervals(),
       cuts=st.lists(_POINT, min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_adjacent_slices_telescope(intervals, cuts):
    cuts = sorted(cuts)
    timeline = WinnerTimeline(Trace(), intervals)
    pieces: dict[str, Fraction] = {}
    for q0, q1 in zip(cuts, cuts[1:]):
        for name, value in timeline.attribute(q0, q1).buckets.items():
            pieces[name] = pieces.get(name, Fraction(0)) + value
    assert pieces == timeline.attribute(cuts[0], cuts[-1]).buckets


def _oracle(intervals, q0, q1):
    """Buckets and merged segments of ``[q0, q1]``, by brute force.

    Cut the window at every interval endpoint inside it; each piece's
    winner is the smallest ``(prio, bucket)`` among the intervals that
    hold its exact midpoint (half-open ``[start, end)``, ``None`` =
    never ends), and its width is summed as a ``Fraction``.
    """
    if q1 <= q0:
        return {}, []
    cuts = sorted({q0, q1} | {point for start, end, _b, _p in intervals
                              for point in (start, end)
                              if point is not None and q0 < point < q1})
    buckets: dict[str, Fraction] = {}
    segments: list[tuple[float, float, str]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (Fraction(lo) + Fraction(hi)) / 2
        holding = [(prio, bucket) for start, end, bucket, prio in intervals
                   if Fraction(start) <= mid
                   and (end is None or mid < Fraction(end))]
        winner = min(holding)[1] if holding else "wait:other"
        buckets[winner] = buckets.get(winner, Fraction(0)) \
            + Fraction(hi) - Fraction(lo)
        if segments and segments[-1][2] == winner:
            segments[-1] = (segments[-1][0], hi, winner)
        else:
            segments.append((lo, hi, winner))
    return buckets, segments


def _assert_matches_oracle(att, intervals, q0, q1):
    buckets, segments = _oracle(intervals, q0, q1)
    assert att.buckets == buckets
    assert att.segments == segments
    elapsed = Fraction(q1) - Fraction(q0)
    ranked = sorted(buckets.items(), key=lambda kv: (-kv[1], kv[0]))
    # ``t / total`` over ints is the correctly rounded quotient, bit
    # for bit the float of the exact one — and in the same order.
    assert list(att.shares().items()) == [
        (name, float(value / elapsed)) for name, value in ranked]


@st.composite
def _windows_case(draw):
    intervals = draw(_intervals())
    # Overlapping, degenerate, inverted, outside: all in one pass.
    return intervals, draw(st.lists(_window(intervals), min_size=1,
                                    max_size=6))


@given(case=_windows_case())
@settings(max_examples=300, deadline=None)
def test_reference_pass_and_timeline_equal_the_midpoint_oracle(case):
    intervals, windows = case
    trace = Trace()
    timeline = WinnerTimeline(trace, intervals)
    references = attribute_windows(trace, windows,
                                   intervals=list(intervals))
    assert len(references) == len(windows)
    for (q0, q1), reference in zip(windows, references):
        _assert_matches_oracle(reference, intervals, q0, q1)
        _assert_matches_oracle(timeline.attribute(q0, q1), intervals,
                               q0, q1)


def test_instant_finer_than_every_boundary_widens_the_denominator():
    # Run boundaries in quarters; the window edges need 2**-50 and
    # 0.1's 2**-56 ticks.
    intervals = [(0.25, 0.75, "device:cpu", 0), (0.5, 1.0, "link:bus", 3)]
    timeline = WinnerTimeline(Trace(), intervals)
    for q0, q1 in ((0.1, 0.5 + 2 ** -50), (0.3, 0.3 + 2 ** -40),
                   (0.25, math.nextafter(0.75, 1.0))):
        sliced = timeline.attribute(q0, q1)
        assert sliced.denom > timeline._denom
        assert sliced.exact
        _assert_matches_oracle(sliced, intervals, q0, q1)
        assert sliced == attribute(Trace(), q0, q1, intervals=intervals)


# -- pinned edge cases the strategy must never regress on ------------------

def _both(intervals, q0, q1):
    trace = Trace()
    _assert_slice_equals_reference(trace, intervals, q0, q1)
    return WinnerTimeline(trace, intervals).attribute(q0, q1)


def test_empty_trace_is_all_wait_other():
    att = WinnerTimeline(Trace()).attribute(0.25, 1.0)
    assert att.buckets == {"wait:other": Fraction(3, 4)}
    assert att.segments == [(0.25, 1.0, "wait:other")]
    assert att == attribute(Trace(), 0.25, 1.0)


def test_zero_width_interval_contributes_nothing():
    att = _both([(0.5, 0.5, "device:cpu", 0)], 0.0, 1.0)
    assert att.buckets == {"wait:other": Fraction(1)}


def test_exactly_aligned_edges_are_half_open():
    # A span ending exactly at q0 or starting exactly at q1 is out.
    intervals = [(0.0, 0.25, "device:cpu", 0),
                 (0.75, 1.0, "link:bus", 3)]
    assert _both(intervals, 0.25, 0.75).buckets == {
        "wait:other": Fraction(1, 2)}
    assert _both(intervals, 0.0, 0.25).buckets == {
        "device:cpu": Fraction(1, 4)}
    assert _both(intervals, 0.75, 1.0).segments == [
        (0.75, 1.0, "link:bus")]


def test_fully_contained_straddling_and_open_spans():
    intervals = [(0.4, 0.6, "device:cpu", 0),
                 (0.0, 2.0, "storage:media", 1),
                 (0.5, None, "nic:dma", 2)]
    att = _both(intervals, 0.25, 0.75)
    assert att.segments == [(0.25, 0.4, "storage:media"),
                            (0.4, 0.6, "device:cpu"),
                            (0.6, 0.75, "storage:media")]
    # Past every closed span only the open one is left, forever.
    assert _both(intervals, 2.5, 1e6).buckets == {
        "nic:dma": Fraction(1e6) - Fraction(2.5)}


def test_windows_outside_every_interval():
    intervals = [(1.0, 2.0, "device:cpu", 0)]
    assert _both(intervals, -3.0, 0.5).dominant() == "wait:other"
    assert _both(intervals, 2.0, 9.0).dominant() == "wait:other"
    assert _both(intervals, 0.5, 2.5).buckets == {
        "wait:other": Fraction(1), "device:cpu": Fraction(1)}


def test_equal_priority_tie_goes_to_the_smaller_bucket_name():
    intervals = [(0.0, 1.0, "device:gpu", 0),
                 (0.5, 1.5, "device:cpu", 0)]
    assert _both(intervals, 0.0, 1.5).segments == [
        (0.0, 0.5, "device:gpu"), (0.5, 1.5, "device:cpu")]


def test_duplicate_interval_survives_one_copy_ending():
    # The same key is active twice; one copy ending must not drop it.
    intervals = [(0.0, 1.0, "link:bus", 3), (0.0, 0.5, "link:bus", 3),
                 (0.0, 1.0, "wait:wire", 4)]
    assert _both(intervals, 0.0, 1.0).buckets == {
        "link:bus": Fraction(1)}


def test_empty_and_inverted_windows():
    intervals = [(0.0, 1.0, "device:cpu", 0)]
    assert _both(intervals, 0.5, 0.5).buckets == {}
    assert _both(intervals, 0.75, 0.25).buckets == {}
