"""Property test: the numpy link-byte fold == the per-interval loop.

``Observatory._fold_link_bytes`` cuts every closed ``link.*`` interval
at the window edges it straddles and lets ``np.bincount`` add each
(window, link) cell's pieces in interval order.  The oracle below is
the loop it replaced, kept here verbatim in spirit: for each interval
in list order, from the window holding its start, add ``overlap *
bandwidth`` to the cell while the window starts before the interval
ends.  Float addition is not associative, so the claim is bit-for-bit
equality of every cell — including which cells exist at all.
"""

import math
from bisect import bisect_right
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analysis import Observatory, WinnerTimeline, observatory
from repro.sim import Trace

_BANDWIDTH = {"bus": 12.5e9, "alt": 3.0e9, "slow": 0.1}
# "nobw" is a link the observatory has no bandwidth for: its bytes are
# not counted at all.
_LINKS = sorted(_BANDWIDTH) + ["nobw"]


def _oracle(intervals, edges, bandwidths):
    """The per-interval loop: one bisect and one dict update a piece."""
    out = [{} for _ in range(len(edges) - 1)]
    for start, end, bucket, _prio in intervals:
        if not bucket.startswith("link:") or end is None:
            continue
        link = bucket[len("link:"):]
        bandwidth = bandwidths.get(link)
        if bandwidth is None:
            continue
        first = max(0, min(bisect_right(edges, start) - 1, len(edges) - 2))
        for i in range(first, len(out)):
            w0, w1 = edges[i], edges[i + 1]
            if w0 >= end:
                break
            overlap = min(end, w1) - max(start, w0)
            if overlap > 0:
                out[i][link] = out[i].get(link, 0.0) + overlap * bandwidth
    return out


def _fold(intervals, window_s, horizon):
    """Fold over windows ``window_s`` wide (the observatory's width
    set for the call)."""
    obs = Observatory([], Trace(), link_bandwidth=_BANDWIDTH)
    obs.timeline = WinnerTimeline(obs.trace, intervals)
    with mock.patch.object(observatory, "WINDOW_S", window_s):
        obs._edges = obs._tile(horizon)
    return obs._fold_link_bytes(), obs._edges


_WINDOW = st.sampled_from([0.001, 0.0025, 0.005, 0.1, 1.0])
_GRID = st.integers(min_value=-4, max_value=40).map(lambda i: i / 8)
_REAL = st.floats(min_value=-0.5, max_value=5.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def _case(draw):
    window_s = draw(_WINDOW)
    horizon = draw(st.floats(min_value=window_s / 3, max_value=4.0,
                             allow_nan=False))
    edges = [i * window_s for i in range(1, int(horizon / window_s) + 1)]
    point = st.one_of(_GRID, _REAL, st.sampled_from(edges)) if edges \
        else st.one_of(_GRID, _REAL)
    intervals = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        start = draw(point)
        shape = draw(st.sampled_from(
            ["short", "long", "zero", "open", "ulp", "edge"]))
        if shape == "short":
            end = start + draw(st.floats(min_value=0.0,
                                         max_value=window_s))
        elif shape == "long":               # straddles several edges
            end = start + draw(st.floats(min_value=window_s,
                                         max_value=6 * window_s))
        elif shape == "zero":
            end = start
        elif shape == "open":
            end = None
        elif shape == "ulp" and edges:      # one ulp below an edge
            end = math.nextafter(draw(st.sampled_from(edges)), -math.inf)
            start = min(start, end)
        else:                               # ends exactly on an edge
            end = draw(point)
        link = draw(st.sampled_from(_LINKS))
        intervals.append((start, end, f"link:{link}", 3))
        if draw(st.booleans()):             # a non-link source too
            intervals.append((start, end, "device:cpu", 0))
    return intervals, window_s, horizon


def _assert_equal(got, want):
    assert len(got) == len(want)
    for cell, expected in zip(got, want):
        assert cell == expected
        assert {k: v.hex() for k, v in cell.items()} == \
            {k: v.hex() for k, v in expected.items()}


@given(case=_case())
@settings(max_examples=400, deadline=None)
def test_numpy_fold_equals_the_per_interval_loop(case):
    intervals, window_s, horizon = case
    got, edges = _fold(intervals, window_s, horizon)
    _assert_equal(got, _oracle(intervals, edges, _BANDWIDTH))


def test_straddling_span_splits_in_interval_order():
    # Three spans share window 1's "bus" cell; the first straddles
    # edges 1 and 2, the third starts one ulp below edge 1.
    below = math.nextafter(1.0, 0.0)
    intervals = [(0.5, 2.5, "link:bus", 3),
                 (1.25, 1.5, "link:bus", 3),
                 (below, 1.75, "link:bus", 3),
                 (0.25, None, "link:bus", 3),      # open: not counted
                 (1.0, 1.0, "link:bus", 3),        # zero width
                 (0.0, 3.0, "link:nobw", 3)]       # no bandwidth
    got, edges = _fold(intervals, 1.0, 3.0)
    assert edges == [0.0, 1.0, 2.0, 3.0]
    _assert_equal(got, _oracle(intervals, edges, _BANDWIDTH))
    bus = _BANDWIDTH["bus"]
    assert got[0] == {"bus": 0.5 * bus + (1.0 - below) * bus}
    assert got[1] == {"bus": (bus + 0.25 * bus) + 0.75 * bus}
    assert got[2] == {"bus": 0.5 * bus}


def test_no_windows_and_no_links():
    assert _fold([(0.0, 1.0, "device:cpu", 0)], 1.0, 2.0)[0] == [{}, {}]
    obs = Observatory([], Trace())
    obs.timeline = WinnerTimeline(obs.trace, [(0.0, 1.0, "link:bus", 3)])
    assert obs._fold_link_bytes() == []
