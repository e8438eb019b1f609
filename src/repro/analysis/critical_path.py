"""Exact critical-path attribution of a query's simulated time.

Given the fabric trace and a query window ``[started_at,
finished_at]``, partition the window into non-overlapping segments
and charge each segment to exactly one bucket:

``device:<name>``
    A processing element held an execution slot (``device.*`` spans).
``storage:<name>``
    The storage medium's channel was busy (``storage.*`` spans).
``nic:<name>``
    A NIC DMA engine was streaming bytes (``nic.*.dma`` spans).
``link:<name>``
    A link port was occupied — serialization time (``link.*`` spans).
``wait:wire``
    A chunk was in flight between its ``chunk_emit`` and matching
    ``chunk_recv`` (propagation latency) with nothing else busy.
``wait:credit``
    A sender was blocked on the credit window (``credit_stall``
    windows) with nothing else busy.
``wait:other``
    Nothing was recorded as busy: queueing for a resource before its
    busy span opened, scheduler gaps, end-of-stream draining.

When several sources overlap, the *highest-priority* one wins
(device > storage > nic > link > wire > credit), so compute hides
concurrent movement the way a pipelined system's critical path does.

Exactness: segment boundaries are converted to
:class:`fractions.Fraction` (exact for every float), so the per-bucket
sums telescope to precisely ``Fraction(finished_at) -
Fraction(started_at)`` — no float drift, asserted by the reconciliation
tests with zero tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..sim import EventKind, Trace

__all__ = ["Attribution", "WinnerTimeline", "attribute",
           "attribute_query", "raw_intervals"]


# Lower number wins when sources overlap.
_PRIO_DEVICE = 0
_PRIO_STORAGE = 1
_PRIO_NIC = 2
_PRIO_LINK = 3
_PRIO_WIRE = 4
_PRIO_CREDIT = 5

WAIT_OTHER = "wait:other"


def _span_bucket(name: str) -> Optional[tuple[str, int]]:
    """Map a span name to its attribution bucket (None = structural)."""
    if name.startswith("device."):
        return f"device:{name[len('device.'):]}", _PRIO_DEVICE
    if name.startswith("storage."):
        return f"storage:{name[len('storage.'):]}", _PRIO_STORAGE
    if name.startswith("nic."):
        return f"nic:{name[len('nic.'):]}", _PRIO_NIC
    if name.startswith("link."):
        return f"link:{name[len('link.'):]}", _PRIO_LINK
    return None  # query.*, graph.*, stage.* — structural, not busy.


@dataclass
class Attribution:
    """Exact partition of one query window into busy/wait buckets."""

    started_at: float
    finished_at: float
    #: Bucket name -> exact seconds (rational arithmetic).
    buckets: dict[str, Fraction] = field(default_factory=dict)
    #: Merged timeline of ``(start, end, bucket)`` segments, in order.
    segments: list[tuple[float, float, str]] = field(
        default_factory=list)
    #: True when the trace's bounded event ring dropped events, so the
    #: wire/credit interval sources are incomplete for part of the
    #: window.  The arithmetic still reconciles (``exact`` stays
    #: true); the *inputs* are what's partial.
    partial: bool = False
    partial_reason: str = ""

    @property
    def elapsed(self) -> Fraction:
        """The window width, exactly."""
        return Fraction(self.finished_at) - Fraction(self.started_at)

    @property
    def total(self) -> Fraction:
        """Sum of all bucket charges, exactly."""
        return sum(self.buckets.values(), Fraction(0))

    @property
    def exact(self) -> bool:
        """Whether the buckets reconcile exactly with the window."""
        return self.total == self.elapsed

    def bucket_seconds(self) -> dict[str, float]:
        """Buckets as floats, largest first."""
        return {name: float(value) for name, value in
                sorted(self.buckets.items(),
                       key=lambda kv: (-kv[1], kv[0]))}

    def shares(self) -> dict[str, float]:
        """Buckets as fractions of elapsed, largest first."""
        elapsed = self.elapsed
        if elapsed <= 0:
            return {}
        return {name: float(value / elapsed) for name, value in
                sorted(self.buckets.items(),
                       key=lambda kv: (-kv[1], kv[0]))}

    def dominant(self) -> str:
        """The bucket charged the most time (the bottleneck)."""
        if not self.buckets:
            return WAIT_OTHER
        return max(self.buckets.items(),
                   key=lambda kv: (kv[1], kv[0]))[0]

    def to_dict(self) -> dict:
        """JSON-ready form (floats; exactness recorded as a flag)."""
        return {
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_s": float(self.elapsed),
            "exact": self.exact,
            "partial": self.partial,
            "partial_reason": self.partial_reason,
            "dominant": self.dominant(),
            "buckets": self.bucket_seconds(),
            "shares": self.shares(),
        }


def raw_intervals(trace: Trace
                  ) -> list[tuple[float, Optional[float], str, int]]:
    """Every busy/wait interval source, *unclipped*.

    One pass over the trace's spans and event ring; the result can be
    handed to :func:`attribute` via ``intervals=`` to amortize the
    collection cost across many windows (the tail-exemplar path, which
    attributes dozens of query windows against one trace).  ``end`` is
    ``None`` for a still-open span (clipped to the window at
    attribution time).
    """
    out: list[tuple[float, Optional[float], str, int]] = []
    for name, spans in trace.spans.items():
        mapped = _span_bucket(name)
        if mapped is None:
            continue
        bucket, prio = mapped
        for span in spans:
            out.append((span.start, span.end, bucket, prio))

    # Wire propagation: emit -> recv, paired by flow id.
    emits: dict[int, float] = {}
    for event in trace.events:
        if event.kind == EventKind.CHUNK_EMIT and event.flow_id:
            emits[event.flow_id] = event.ts
        elif event.kind == EventKind.CHUNK_RECV and event.flow_id:
            sent = emits.pop(event.flow_id, None)
            if sent is not None:
                out.append((sent, event.ts, "wait:wire", _PRIO_WIRE))
        elif event.kind == EventKind.CREDIT_STALL and event.dur > 0:
            out.append((event.ts, event.ts + event.dur,
                        "wait:credit", _PRIO_CREDIT))
    return out


def _clip(intervals, q0: float, q1: float
          ) -> list[tuple[float, float, str, int]]:
    """Clip raw intervals to ``[q0, q1]``, dropping empty results.

    Runs once per attributed window over every interval in the trace
    (the tail-exemplar path attributes dozens of windows), so the
    comparisons are inlined rather than ``max``/``min`` calls.
    """
    out: list[tuple[float, float, str, int]] = []
    append = out.append
    for start, end, bucket, prio in intervals:
        if end is None or end > q1:  # still-open span, or past window
            end = q1
        if start < q0:
            start = q0
        if end > start:
            append((start, end, bucket, prio))
    return out


def attribute(trace: Trace, started_at: float, finished_at: float,
              intervals: Optional[list] = None) -> Attribution:
    """Attribute every instant of ``[started_at, finished_at]``.

    Boundary sweep over the clipped interval set: between two adjacent
    boundaries exactly one set of sources is active, and the segment
    is charged to the highest-priority one (``wait:other`` when none).
    All widths are summed as :class:`~fractions.Fraction`, so the
    result reconciles exactly.

    ``intervals`` (from :func:`raw_intervals`) skips the per-call
    trace walk when attributing many windows against one trace.
    """
    attribution = Attribution(started_at=started_at,
                              finished_at=finished_at)
    dropped = trace.events.dropped
    if dropped > 0:
        # A bounded ring that overflowed lost CHUNK_EMIT/RECV and
        # CREDIT_STALL events: the wire/credit sources are truncated
        # and the window must not be presented as fully reconciled.
        attribution.partial = True
        attribution.partial_reason = (
            f"event ring dropped {dropped} events; wire/credit "
            "intervals incomplete")
    if finished_at <= started_at:
        return attribution

    if intervals is None:
        intervals = raw_intervals(trace)
    intervals = _clip(intervals, started_at, finished_at)
    # The sweep runs on raw floats: every float is exactly one
    # rational, so float comparison, hashing, and sorting agree with
    # their Fraction counterparts.  Only segment *widths* need exact
    # arithmetic, and segments tile the window, so per-bucket widths
    # telescope across each merged same-winner run — two Fraction
    # conversions per run instead of one per boundary point.
    bounds = {started_at, finished_at}
    starts: dict[float, list[tuple[int, str]]] = {}
    ends: dict[float, list[tuple[int, str]]] = {}
    for start, end, bucket, prio in intervals:
        bounds.add(start)
        bounds.add(end)
        starts.setdefault(start, []).append((prio, bucket))
        ends.setdefault(end, []).append((prio, bucket))

    points = sorted(bounds)
    active: dict[tuple[int, str], int] = {}
    raw_segments: list[tuple[float, float, str]] = []
    get_starts, get_ends = starts.get, ends.get
    for index in range(len(points) - 1):
        left = points[index]
        for key in get_ends(left, ()):
            count = active.get(key, 0) - 1
            if count > 0:
                active[key] = count
            else:
                active.pop(key, None)
        for key in get_starts(left, ()):
            active[key] = active.get(key, 0) + 1
        winner = min(active)[1] if active else WAIT_OTHER
        # Adjacent segments always share a boundary, so contiguous
        # same-winner segments merge into one run.
        if raw_segments and raw_segments[-1][2] == winner:
            prev = raw_segments[-1]
            raw_segments[-1] = (prev[0], points[index + 1], winner)
        else:
            raw_segments.append((left, points[index + 1], winner))

    buckets: dict[str, Fraction] = {}
    zero = Fraction(0)
    for lo, hi, winner in raw_segments:
        buckets[winner] = buckets.get(winner, zero) + (
            Fraction(hi) - Fraction(lo))

    attribution.buckets = buckets
    attribution.segments = raw_segments
    return attribution


def partial_reason(dropped: int) -> str:
    """Why attributions over a ring that dropped events are partial."""
    if dropped <= 0:
        return ""
    return (f"event ring dropped {dropped} events; wire/credit "
            "intervals incomplete")


class WinnerTimeline:
    """The winner of every instant of a run, swept once.

    Attribution is linear in the interval stream: which source wins an
    instant does not depend on the window asked about.  So one global
    priority sweep over :func:`raw_intervals` — the same half-open
    ``[start, end)`` intervals, ``(prio, bucket)`` tie-break and
    dropped zero-width intervals as :func:`_clip` + :func:`attribute`
    — yields a step function of maximal same-winner runs covering
    ``(-inf, +inf)`` (a still-open span is held as ending at ``+inf``),
    and :meth:`attribute` answers any window as a slice of it: two
    bisects, two exact edge pieces, and one prefix-sum difference per
    bucket for the runs wholly inside.

    Exactness: every float is a dyadic rational, so run widths are
    kept as Python ints over one common power-of-two denominator —
    prefix sums add without a gcd — and become
    :class:`~fractions.Fraction` only when a window's buckets are
    filled.  Rational addition is associative, so the sums equal the
    reference sweep's however the runs are grouped.

    :func:`attribute` stays the reference this is checked against
    (``Observatory.observatory_violations``, the property tests); the
    two share nothing but the interval list.
    """

    def __init__(self, trace: Trace, intervals: Optional[list] = None):
        self.trace = trace
        #: The :func:`raw_intervals` list the timeline was swept from.
        self.intervals = (raw_intervals(trace) if intervals is None
                          else intervals)
        keys = sorted({(prio, bucket)
                       for _s, _e, bucket, prio in self.intervals})
        rank = {key: i for i, key in enumerate(keys)}
        edges: list[tuple[float, int, int]] = []
        for start, end, bucket, prio in self.intervals:
            if end is None:
                end = math.inf
            if end > start:
                key = rank[(prio, bucket)]
                edges.append((start, key, 1))
                edges.append((end, key, -1))
        edges.sort()

        # Run ``i`` is ``[starts[i], starts[i + 1])`` won by
        # ``winners[i]``; the last run extends to +inf.
        starts = self._starts = [-math.inf]
        winners = self._winners = [WAIT_OTHER]
        counts = [0] * len(keys)
        live: set[int] = set()
        i, n = 0, len(edges)
        while i < n:
            point = edges[i][0]
            if point == math.inf:
                break  # open spans never close inside any window
            while i < n and edges[i][0] == point:
                _point, key, step = edges[i]
                counts[key] += step
                if counts[key] == 0:
                    live.discard(key)
                else:
                    live.add(key)
                i += 1
            winner = keys[min(live)][1] if live else WAIT_OTHER
            if winner != winners[-1]:
                starts.append(point)
                winners.append(winner)
        self._segments = list(zip(starts, starts[1:] + [math.inf],
                                  winners))

        # The finite boundaries ``starts[1:]`` as integer ticks of
        # ``1 / self._denom``: every denominator is a power of two, so
        # the largest is their common one.
        ratios = [point.as_integer_ratio() for point in starts[1:]]
        self._denom = max((d for _n, d in ratios), default=1)
        ticks = [n * (self._denom // d) for n, d in ratios]
        #: bucket -> (indices of the finite runs it won, ascending;
        #: running sum of their widths in ticks, with a leading 0).
        self._prefix: dict[str, tuple[list[int], list[int]]] = {}
        for run in range(1, len(starts) - 1):
            runs, sums = self._prefix.setdefault(winners[run],
                                                 ([], [0]))
            runs.append(run)
            sums.append(sums[-1] + ticks[run] - ticks[run - 1])

    def attribute(self, started_at: float,
                  finished_at: float) -> Attribution:
        """The slice ``[started_at, finished_at]`` of the timeline.

        Equal to ``attribute(trace, started_at, finished_at,
        intervals=self.intervals)`` in every field.
        """
        dropped = self.trace.events.dropped
        attribution = Attribution(
            started_at=started_at, finished_at=finished_at,
            partial=dropped > 0, partial_reason=partial_reason(dropped))
        if finished_at <= started_at:
            return attribution
        starts, winners = self._starts, self._winners
        first = bisect_right(starts, started_at) - 1
        last = bisect_left(starts, finished_at) - 1
        if first == last:
            attribution.buckets = {
                winners[first]:
                    Fraction(finished_at) - Fraction(started_at)}
            attribution.segments = [
                (started_at, finished_at, winners[first])]
            return attribution

        buckets: dict[str, Fraction] = {}
        for bucket, (runs, sums) in self._prefix.items():
            ticks = (sums[bisect_left(runs, last)]
                     - sums[bisect_left(runs, first + 1)])
            if ticks:
                buckets[bucket] = Fraction(ticks, self._denom)
        head = Fraction(starts[first + 1]) - Fraction(started_at)
        tail = Fraction(finished_at) - Fraction(starts[last])
        buckets[winners[first]] = buckets.get(winners[first], 0) + head
        buckets[winners[last]] = buckets.get(winners[last], 0) + tail
        attribution.buckets = buckets
        attribution.segments = [
            (started_at, starts[first + 1], winners[first]),
            *self._segments[first + 1:last],
            (starts[last], finished_at, winners[last])]
        return attribution


def attribute_query(trace: Trace, result) -> Attribution:
    """Attribution for a :class:`~repro.engine.QueryResult` window."""
    return attribute(trace, result.started_at, result.finished_at)
