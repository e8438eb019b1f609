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

Exactness: every float is a dyadic rational, so segment boundaries are
whole numbers of *ticks* of one power-of-two denominator and the
per-bucket sums are Python ints that telescope to precisely
``Fraction(finished_at) - Fraction(started_at)`` — no float drift,
asserted by the reconciliation tests with zero tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, mul
from typing import Optional

import numpy as np

from ..sim import EventKind, Trace

__all__ = ["Attribution", "WinnerTimeline", "attribute",
           "attribute_query", "attribute_windows", "raw_intervals"]


# Lower number wins when sources overlap.
_PRIO_DEVICE = 0
_PRIO_STORAGE = 1
_PRIO_NIC = 2
_PRIO_LINK = 3
_PRIO_WIRE = 4
_PRIO_CREDIT = 5

WAIT_OTHER = "wait:other"


_SPAN_PRIO = {"device": _PRIO_DEVICE, "storage": _PRIO_STORAGE,
              "nic": _PRIO_NIC, "link": _PRIO_LINK}


def _span_bucket(name: str) -> Optional[tuple[str, int]]:
    """Map a span name to its attribution bucket (None = structural)."""
    kind, dot, rest = name.partition(".")
    prio = _SPAN_PRIO.get(kind) if dot else None
    # query.*, graph.*, stage.* — structural, not busy.
    return None if prio is None else (f"{kind}:{rest}", prio)


@dataclass(eq=False)
class Attribution:
    """Exact partition of one query window into busy/wait buckets.

    Charges are Python-int ticks of ``1 / denom`` (a power of two), so
    sums are integer work, and ``t / total`` is the correctly rounded
    share that ``float(Fraction / Fraction)`` gives.  :attr:`buckets`
    is their exact value, and what equality compares, whatever the
    denominators.
    """

    started_at: float
    finished_at: float
    #: Bucket name -> exact seconds in ticks of ``1 / denom`` (no zeros).
    ticks: dict[str, int] = field(default_factory=dict)
    denom: int = 1
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
    def buckets(self) -> dict[str, Fraction]:
        """Bucket name -> exact seconds."""
        return {name: Fraction(t, self.denom)
                for name, t in self.ticks.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Attribution):
            return NotImplemented
        return self.buckets == other.buckets and all(
            getattr(self, name) == getattr(other, name)
            for name in ("started_at", "finished_at", "segments",
                         "partial", "partial_reason"))

    @property
    def elapsed(self) -> Fraction:
        """The window width, exactly."""
        return Fraction(self.finished_at) - Fraction(self.started_at)

    @property
    def total(self) -> Fraction:
        """Sum of all bucket charges, exactly."""
        return Fraction(sum(self.ticks.values()), self.denom)

    @property
    def exact(self) -> bool:
        """Whether the buckets reconcile exactly with the window."""
        return self.total == self.elapsed

    def _ranked(self) -> list[tuple[str, int]]:
        return sorted(self.ticks.items(), key=lambda kv: (-kv[1], kv[0]))

    def bucket_seconds(self) -> dict[str, float]:
        """Buckets as floats, largest first."""
        return {name: t / self.denom for name, t in self._ranked()}

    def shares(self) -> dict[str, float]:
        """Buckets as fractions of elapsed, largest first."""
        total = sum(self.ticks.values())
        if total <= 0:
            return {}
        return {name: t / total for name, t in self._ranked()}

    def dominant(self) -> str:
        """The bucket charged the most time (the bottleneck)."""
        if not self.ticks:
            return WAIT_OTHER
        return max(self.ticks.items(), key=lambda kv: (kv[1], kv[0]))[0]

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
    handed to :func:`attribute_windows` or :class:`WinnerTimeline` via
    ``intervals`` to share the collection cost.  ``end`` is ``None``
    for a still-open span (clipped to the window at attribution time).
    """
    out: list[tuple[float, Optional[float], str, int]] = []
    for name, spans in trace.spans.items():
        mapped = _span_bucket(name)
        if mapped is not None:
            bucket, prio = mapped
            out += [(span.start, span.end, bucket, prio) for span in spans]

    # Wire propagation: emit -> recv, paired by flow id.
    emit, recv = EventKind.CHUNK_EMIT, EventKind.CHUNK_RECV
    emits: dict[int, float] = {}
    for event in trace.events:
        kind = event.kind
        if kind == emit:
            if event.flow_id:
                emits[event.flow_id] = event.ts
        elif kind == recv:
            sent = emits.pop(event.flow_id, None) if event.flow_id else None
            if sent is not None:
                out.append((sent, event.ts, "wait:wire", _PRIO_WIRE))
        elif kind == EventKind.CREDIT_STALL and event.dur > 0:
            out.append((event.ts, event.ts + event.dur,
                        "wait:credit", _PRIO_CREDIT))
    return out


def partial_reason(dropped: int) -> str:
    """Why attributions over a ring that dropped events are partial."""
    if dropped <= 0:
        return ""
    return (f"event ring dropped {dropped} events; wire/credit "
            "intervals incomplete")


def attribute_windows(trace: Trace, windows,
                      intervals: Optional[list] = None
                      ) -> list[Attribution]:
    """Attribute every ``(started_at, finished_at)`` of ``windows``.

    The reference, in one pass however many windows (they may
    overlap).  Every interval endpoint and window edge cuts the line
    into elementary segments; numpy counts, per ``(prio, bucket)`` key,
    the half-open ``[start, end)`` intervals covering each segment (a
    still-open span never ends, a zero-width one covers nothing), and
    the first key in ``(prio, bucket)`` order with a nonzero count wins
    it — ``wait:other`` when none does.  A window is a run of whole
    segments: its buckets are the exact widths of its maximal
    same-winner runs (endpoints as Python-int ticks of one power-of-two
    denominator), summed per bucket.  An empty or inverted window
    attributes nothing.

    ``intervals`` (from :func:`raw_intervals`) skips the trace walk.
    """
    if not windows:
        return []
    if intervals is None:
        intervals = raw_intervals(trace)
    starts, ends, buckets, prios = (list(map(itemgetter(i), intervals))
                                    for i in range(4))
    keys = sorted(set(zip(prios, buckets)))
    names = [bucket for _prio, bucket in keys] + [WAIT_OTHER]
    rank = {key: i for i, key in enumerate(keys)}
    which = np.fromiter(map(rank.__getitem__, zip(prios, buckets)),
                        dtype=np.intp, count=len(starts))
    starts = np.array(starts, dtype=float)
    ends = np.array(ends, dtype=float)          # None (open) -> nan
    ends[np.isnan(ends)] = math.inf
    live = ends > starts
    starts, ends, which = starts[live], ends[live], which[live]
    edges = np.array(windows, dtype=float).reshape(-1, 2)
    points = np.unique(np.concatenate(
        [starts, ends[ends < math.inf], edges.ravel()]))

    # Coverage count of every key over every segment; the last row is
    # ``wait:other``, which covers everything at the lowest priority.
    row, size = which * (len(points) + 1), len(names) * (len(points) + 1)
    cover = (np.bincount(row + np.searchsorted(points, starts), None, size)
             - np.bincount(row + np.searchsorted(points, ends), None, size)
             ).reshape(len(names), len(points) + 1)
    cover[-1, 0] = 1
    winner = (np.cumsum(cover, axis=1)[:, :len(points) - 1] > 0
              ).argmax(axis=0)
    change = np.flatnonzero(winner[1:] != winner[:-1]) + 1

    # Exact ticks: point = mantissa * 2**exponent with a 53-bit integer
    # mantissa, so every point is a whole number of 2**low.
    mantissa, exponent = np.frexp(points)
    exponent -= 53
    low = min(int(exponent.min()), 0)
    ticks = (np.ldexp(mantissa, 53).astype(np.int64).astype(object)
             << (exponent - low).astype(object))

    dropped = trace.events.dropped
    out = []
    for (q0, q1), first, end in zip(
            windows, np.searchsorted(points, edges[:, 0]).tolist(),
            np.searchsorted(points, edges[:, 1]).tolist()):
        attribution = Attribution(
            started_at=q0, finished_at=q1, denom=1 << -low,
            partial=dropped > 0, partial_reason=partial_reason(dropped))
        out.append(attribution)
        if end <= first:
            continue
        cuts = change[np.searchsorted(change, first, "right"):
                      np.searchsorted(change, end)]
        lo = np.concatenate(([first], cuts))
        hi = np.concatenate((cuts, [end]))
        won = winner[lo]
        widths = ticks[hi] - ticks[lo]
        attribution.ticks = {names[k]: int(widths[won == k].sum())
                             for k in np.unique(won).tolist()}
        attribution.segments = list(zip(
            points[lo].tolist(), points[hi].tolist(),
            [names[k] for k in won.tolist()]))
    return out


def attribute(trace: Trace, started_at: float, finished_at: float,
              intervals: Optional[list] = None) -> Attribution:
    """Attribute every instant of ``[started_at, finished_at]``.

    The one-window case of :func:`attribute_windows`.
    """
    return attribute_windows(trace, [(started_at, finished_at)],
                             intervals)[0]


def summed(parts: list[Attribution], started_at: float,
           finished_at: float) -> Attribution:
    """The per-bucket exact sum of ``parts``, as one attribution."""
    denom = max((part.denom for part in parts), default=1)
    ticks: dict[str, int] = {}
    for part in parts:
        scale = denom // part.denom      # powers of two: exact
        for name, t in part.ticks.items():
            ticks[name] = ticks.get(name, 0) + t * scale
    return Attribution(started_at=started_at, finished_at=finished_at,
                       ticks=ticks, denom=denom)


class WinnerTimeline:
    """The winner of every instant of a run, painted once.

    Attribution is linear in the interval stream: which source wins an
    instant does not depend on the window asked about.  So one global
    pass over :func:`raw_intervals` — the same half-open
    ``[start, end)`` intervals, ``(prio, bucket)`` tie-break and
    dropped zero-width intervals as :func:`attribute_windows` — yields
    a step function of maximal same-winner runs covering ``(-inf,
    +inf)`` (a still-open span is held as ending at ``+inf``), and
    :meth:`attribute` answers any window as a slice of it: two
    bisects, two exact edge pieces, and one prefix-sum difference per
    bucket for the runs wholly inside.  Per key, intervals merge by a
    running max of ends; keys paint from the lowest priority up.

    Exactness: run boundaries are Python-int ticks over one common
    power-of-two denominator, so the dense per-bucket prefix sums add
    without a gcd and a slice's charges are integer differences; a
    window edge finer than every boundary widens the denominator by a
    shift.  Rational addition is associative, so the sums equal the
    reference's however the runs are grouped.

    :func:`attribute_windows` is the reference this is checked against
    (``Observatory.observatory_violations``, the property tests); the
    two share nothing but the interval list.
    """

    def __init__(self, trace: Trace, intervals: Optional[list] = None):
        self.trace = trace
        #: The :func:`raw_intervals` list the timeline was swept from.
        self.intervals = (raw_intervals(trace) if intervals is None
                          else intervals)
        # ``zip(*intervals)`` would hold an iterator per interval.
        starts, ends, buckets, prios = (
            list(map(itemgetter(i), self.intervals)) for i in range(4))
        #: Every ``(prio, bucket)`` source, in winning order.
        self.keys = sorted(set(zip(prios, buckets)))
        rank = {key: i for i, key in enumerate(self.keys)}
        #: Interval columns in list order (an open end is +inf).
        self.start = np.array(starts, dtype=float)
        self.end = np.array(ends, dtype=float)          # None -> nan
        self.end[np.isnan(self.end)] = math.inf
        self.key = np.fromiter(map(rank.__getitem__, zip(prios, buckets)),
                               dtype=np.intp, count=len(starts))
        live = np.flatnonzero(self.end > self.start)
        points = np.unique(np.concatenate(
            (self.start[live], self.end[live][self.end[live] < math.inf])))
        live = live[np.lexsort((self.start[live], self.key[live]))]
        bounds = np.searchsorted(self.key[live], range(len(self.keys) + 1))
        # Key holding [points[j], points[j + 1]); len(keys): wait:other.
        won = np.full(len(points), len(self.keys))
        for k in range(len(self.keys) - 1, -1, -1):
            mine = live[bounds[k]:bounds[k + 1]]
            if not len(mine):
                continue
            begin = self.start[mine]
            reach = np.maximum.accumulate(self.end[mine])
            opens = np.flatnonzero(np.append(True, begin[1:] > reach[:-1]))
            paint = np.zeros(len(points) + 1, dtype=np.intp)
            paint[np.searchsorted(points, begin[opens])] = 1
            paint[np.searchsorted(points, reach[np.append(
                opens[1:], len(mine)) - 1])] -= 1
            won[np.cumsum(paint[:-1]) > 0] = k

        # Run ``i`` is ``[starts[i], starts[i + 1])`` won by
        # ``winners[i]``; the last run extends to +inf.
        names = [bucket for _prio, bucket in self.keys] + [WAIT_OTHER]
        cut = np.flatnonzero(won != np.append(len(self.keys), won[:-1]))
        label = np.append(len(self.keys), won[cut])
        starts = self._starts = [-math.inf] + points[cut].tolist()
        winners = self._winners = [names[k] for k in label.tolist()]
        self._segments = list(zip(starts, starts[1:] + [math.inf],
                                  winners))
        #: Every bucket that wins some instant.
        self.buckets = frozenset(winners)

        # The finite boundaries as integer ticks of ``1 / self._denom``
        # (index 0, the ``-inf`` start, is never read): every
        # denominator is a power of two, so the largest is their
        # common one.
        ratios = list(map(float.as_integer_ratio, starts[1:]))
        self._denom = max((d for _n, d in ratios), default=1)
        ticks = self._ticks = [0] + [n * (self._denom // d)
                                     for n, d in ratios]
        # Width of every run but the last; the two infinite runs never
        # lie wholly inside a window, so they count 0.
        widths = [0] + [b - a for a, b in zip(ticks[1:-1], ticks[2:])]
        #: bucket -> ticks it won in the runs before run ``i``, for
        #: every ``i`` (dense, so a slice reads two entries).
        self._prefix: dict[str, list[int]] = {
            names[k]: list(accumulate(
                map(mul, widths, (label[:-1] == k).tolist()), initial=0))
            for k in set(label[1:-1].tolist())}

    def charges(self, started_at: float,
                finished_at: float) -> tuple[dict[str, int], int]:
        """The slice's bucket -> ticks of ``1 / denom``, and ``denom``."""
        if finished_at <= started_at:
            return {}, 1
        starts, winners, ticks = self._starts, self._winners, self._ticks
        first = bisect_right(starts, started_at) - 1
        last = bisect_left(starts, finished_at) - 1
        n0, d0 = started_at.as_integer_ratio()
        n1, d1 = finished_at.as_integer_ratio()
        shift = max(0, max(d0, d1).bit_length()
                    - self._denom.bit_length())
        denom = self._denom << shift
        t0, t1 = n0 * (denom // d0), n1 * (denom // d1)
        if first == last:
            return {winners[first]: t1 - t0}, denom
        charged = {}
        for bucket, sums in self._prefix.items():
            inner = sums[last] - sums[first + 1]
            if inner:
                charged[bucket] = inner << shift
        head = (ticks[first + 1] << shift) - t0
        tail = t1 - (ticks[last] << shift)
        charged[winners[first]] = charged.get(winners[first], 0) + head
        charged[winners[last]] = charged.get(winners[last], 0) + tail
        return charged, denom

    def attribute(self, started_at: float,
                  finished_at: float) -> Attribution:
        """The slice ``[started_at, finished_at]`` of the timeline.

        Equal to ``attribute(trace, started_at, finished_at,
        intervals=self.intervals)``.
        """
        dropped = self.trace.events.dropped
        attribution = Attribution(
            started_at, finished_at, *self.charges(started_at, finished_at),
            partial=dropped > 0, partial_reason=partial_reason(dropped))
        starts, winners = self._starts, self._winners
        first = bisect_right(starts, started_at) - 1
        last = bisect_left(starts, finished_at) - 1
        if finished_at > started_at:
            attribution.segments = [
                (started_at, finished_at, winners[first])] if first == last \
                else [(started_at, starts[first + 1], winners[first]),
                      *self._segments[first + 1:last],
                      (starts[last], finished_at, winners[last])]
        return attribution


def attribute_query(trace: Trace, result) -> Attribution:
    """Attribution for a :class:`~repro.engine.QueryResult` window."""
    return attribute(trace, result.started_at, result.finished_at)
