"""Metric collection for simulation runs: the observability registry.

Every experiment in the paper reduces to the same questions — how many
bytes crossed each segment of the data path, how busy each device was,
and how long the query took — so the tracer is organized around four
kinds of records:

* **counters** — monotonically increasing totals (bytes per
  segment, stall seconds per channel, cache hits, busy seconds);
* **spans** — named intervals (per-stage busy periods), from which
  busy time and critical-path summaries are derived;
* **events** — a bounded ring of typed :class:`~repro.sim.events.
  TraceEvent`s (chunk emit/recv, credit grant/stall, DMA
  issue/complete, cache hit/miss, operator open/close), the
  per-occurrence flight recorder the Chrome-trace exporter and stall
  narratives read;
* **ledger** — an exact running table of bytes × link × operator ×
  direction (:meth:`Trace.record_movement` /
  :meth:`Trace.movement_ledger`), kept separately from the ring so
  that ring truncation can never lose movement attribution.

A single :class:`Trace` is threaded through a fabric.  On top of the
raw records it derives the quantities reports need: per-span busy
time (:meth:`Trace.busy_time`), per-link byte/chunk totals summed
from the ledger (:meth:`Trace.link_report`), and a critical-path
summary ranking span names by total busy time
(:meth:`Trace.critical_path`).

The trace keeps a *clock watermark* — the largest simulated time it
has seen — so that spans still open at report time have a well-defined
duration (they are measured up to the watermark instead of raising).
A mid-run report therefore never crashes a benchmark.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

from .events import EventRing, TraceEvent

__all__ = ["Trace", "Span", "CounterHandle"]


@dataclass
class Span:
    """A named interval of simulated time.

    ``end is None`` marks a span that is still open.  A span holds no
    reference to the trace that lists it (that would make every
    finished trace cyclic garbage), so an open span's ``duration`` is
    0.0; :meth:`Trace.duration` measures it up to that trace's clock
    watermark, so reports taken mid-run never raise.
    """

    name: str
    start: float
    end: Optional[float] = None

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start


class CounterHandle:
    """A pre-resolved reference to one counter in a :class:`Trace`.

    Hot paths (per-message flow control, per-op device charges) used
    to rebuild the counter's key string with an f-string and walk the
    counter dict on every increment.  A handle is bound once — by a
    channel's constructor, at a link's or device's first charge — and
    after that each :meth:`add` is one dict update.  Handles
    write to the same public ``trace.counters`` mapping, so readers
    are unaffected.
    """

    __slots__ = ("counters", "key")

    def __init__(self, counters: dict, key: str):
        self.counters = counters
        self.key = key

    def add(self, amount: float = 1.0) -> None:
        self.counters[self.key] += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterHandle {self.key}>"


@dataclass
class Trace:
    """Accumulates counters, spans, events and the ledger of a run."""

    counters: dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    spans: dict[str, list[Span]] = field(
        default_factory=lambda: defaultdict(list))
    events: EventRing = field(default_factory=EventRing)
    ledger: dict[tuple[str, str, str], list[float]] = field(
        default_factory=dict)
    clock: float = 0.0
    #: Registered query contexts: qid -> {"name", "tenant"}.  Serving
    #: runs register one per query so events are tenant-attributable.
    contexts: dict[int, dict] = field(default_factory=dict)
    #: The ambient query context events default to (0 = none).  Set
    #: for the dynamic extent of a query's processes by the kernel
    #: (``Process._scope``); never touched in batch runs.
    current_qid: int = 0
    _flow_seq: int = field(default=0, repr=False)
    _ctx_seq: int = field(default=0, repr=False)
    #: Interned handles by counter name (see :meth:`counter_handle`).
    _handles: dict[str, CounterHandle] = field(
        default_factory=dict, repr=False)

    # -- recording -------------------------------------------------------

    def add(self, counter: str, amount: float = 1.0) -> None:
        """Increment a counter."""
        self.counters[counter] += amount

    def counter_handle(self, name: str) -> CounterHandle:
        """A pre-resolved handle for repeatedly incrementing ``name``.

        Bind once, at construction or first use; the
        handle's :meth:`~CounterHandle.add` then skips the per-call
        key-string construction the hot paths used to pay.  The
        counter itself is *not* materialized here — a handle that is
        never incremented leaves no trace, so constructing hardware
        cannot change what a report contains.  Interned per name, for
        names bound again (links, devices, shared totals); a per-query
        channel or stage builds its own :class:`CounterHandle`, or each
        served query's handles would stay here for the rest of the run.
        """
        handle = self._handles.get(name)
        if handle is None:
            handle = CounterHandle(self.counters, name)
            self._handles[name] = handle
        return handle

    def emit(self, ts: float, kind: str, actor: str, label: str = "",
             nbytes: float = 0.0, dur: float = 0.0,
             flow_id: int = 0, qid: Optional[int] = None) -> TraceEvent:
        """Record a typed event into the bounded ring.

        ``ts`` is the event instant (window *start* when ``dur`` is
        nonzero); the clock watermark advances to cover the whole
        window so mid-run reports see it.  ``qid`` defaults to the
        ambient :attr:`current_qid`, so emit sites deep in shared
        hardware code need no explicit threading.

        Each event is a fresh record on purpose: consumers (tail
        exemplars, report slices) retain references into the ring, so
        recycling a pool of event objects would alias live data.
        """
        watermark = ts + dur if dur > 0 else ts
        if watermark > self.clock:      # tick(), inlined: emit is hot
            self.clock = watermark
        event = TraceEvent(ts, kind, actor, label, nbytes, dur,
                           flow_id,
                           self.current_qid if qid is None else qid)
        self.events.append(event)
        return event

    def register_context(self, name: str, tenant: str = "") -> int:
        """Register a query context; returns its fresh ``qid``.

        Events emitted with (or scoped under) this qid become
        attributable to ``name`` / ``tenant`` — the trace-context
        propagation the serving telemetry and per-tenant trace lanes
        are built on.  Registration only ever *records*; it cannot
        change simulated behavior.
        """
        self._ctx_seq += 1
        qid = self._ctx_seq
        self.contexts[qid] = {"name": name, "tenant": tenant}
        return qid

    def next_flow_id(self) -> int:
        """A fresh id tying a chunk_emit to its chunk_recv."""
        self._flow_seq += 1
        return self._flow_seq

    def record_movement(self, link: str, actor: str, direction: str,
                        nbytes: float) -> None:
        """Attribute ``nbytes`` (one chunk) on ``link`` to ``actor``.

        The ledger is an exact aggregate (unlike the event ring it is
        never truncated); :meth:`link_report` sums it per link.
        """
        cell = self.ledger.setdefault((link, actor, direction),
                                      [0.0, 0.0])
        cell[0] += nbytes
        cell[1] += 1.0

    def tick(self, time: float) -> None:
        """Advance the clock watermark (never moves backwards)."""
        if time > self.clock:
            self.clock = time

    def open_span(self, name: str, time: float) -> Span:
        """Open a new span; close it with :meth:`close_span`."""
        if time > self.clock:        # tick(), inlined: hot path
            self.clock = time
        span = Span(name, time)
        self.spans[name].append(span)
        return span

    def close_span(self, span: Span, time: float) -> None:
        if time > self.clock:        # tick(), inlined: hot path
            self.clock = time
        span.end = time

    def close_open_spans(self) -> int:
        """Close every still-open span at the clock.

        Returns the number of spans closed.  Used before exporting a
        trace mid-run so the snapshot is self-contained.
        """
        when = self.clock
        closed = 0
        for spans in self.spans.values():
            for span in spans:
                if span.end is None:
                    span.end = max(when, span.start)
                    closed += 1
        return closed

    # -- reading -----------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never written)."""
        return self.counters.get(name, 0.0)

    def total(self, prefix: str) -> float:
        """Sum of all counters whose name starts with ``prefix``."""
        return sum(v for k, v in self.counters.items()
                   if k.startswith(prefix))

    def duration(self, span: Span) -> float:
        """``span``'s length, an open span's up to the clock watermark."""
        if span.end is None:
            return max(self.clock - span.start, 0.0)
        return span.duration

    def busy_time(self, span_name: str) -> float:
        """Total span time under ``span_name``.

        Open spans count up to the clock watermark, so a mid-run
        reading reflects work in progress instead of raising.
        """
        return sum(map(self.duration, self.spans.get(span_name, [])))

    # -- derived reports ---------------------------------------------------

    def span_summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, open count, total/mean/max duration."""
        out: dict[str, dict[str, float]] = {}
        for name, spans in sorted(self.spans.items()):
            if not spans:
                continue
            durations = [self.duration(s) for s in spans]
            total = sum(durations)
            out[name] = {
                "count": float(len(spans)),
                "open": float(sum(1 for s in spans if not s.closed)),
                "total_s": total,
                "mean_s": total / len(spans),
                "max_s": max(durations),
            }
        return out

    def critical_path(self, top: Optional[int] = None
                      ) -> list[dict[str, float]]:
        """Span names ranked by total busy time, busiest first.

        The head of this list is where the run actually spent its
        time — the simulated critical path.  ``share`` is relative to
        the clock watermark (can exceed 1 for multi-slot devices).
        """
        summary = self.span_summary()
        ranked = sorted(summary.items(),
                        key=lambda kv: (-kv[1]["total_s"], kv[0]))
        if top is not None:
            ranked = ranked[:top]
        horizon = self.clock
        return [{"span": name,
                 "busy_s": stats["total_s"],
                 "count": stats["count"],
                 "share": (stats["total_s"] / horizon
                           if horizon > 0 else 0.0)}
                for name, stats in ranked]

    def movement_ledger(self) -> list[dict]:
        """The movement ledger: bytes × link × actor × direction.

        One row per (link, actor, direction) cell, sorted by link
        then actor then direction — every plan's movement cost,
        attributable line by line (the paper's §3.3 cost metric).
        """
        return [{"link": link, "actor": actor, "direction": direction,
                 "bytes": cell[0], "chunks": cell[1]}
                for (link, actor, direction), cell
                in sorted(self.ledger.items())]

    def stall_report(self) -> dict[str, dict[str, float]]:
        """Per-stage stall seconds split by cause.

        Reads the stall counters the flow runtime maintains:

        * ``flow.<graph>.<src>-><dst>.stall.credit_s`` — the sender
          waited for a flow-control credit (**credit_starved**);
        * ``flow.<graph>.<src>-><dst>.stall.link_s`` — the sender
          queued behind other traffic on the route
          (**downstream_full**);
        * ``stage.<graph>.<stage>.stall.device_s`` — an operator
          waited for a busy device slot (**device_busy**).

        Channel stalls are charged to the *sending* stage.  Returns
        ``{stage: {credit_starved_s, downstream_full_s,
        device_busy_s, total_s}}`` sorted by stage name.
        """
        out: dict[str, dict[str, float]] = {}

        def cell(stage: str) -> dict[str, float]:
            return out.setdefault(stage, {"credit_starved_s": 0.0,
                                          "downstream_full_s": 0.0,
                                          "device_busy_s": 0.0})

        for key, value in self.counters.items():
            if key.startswith("flow.") and "->" in key:
                if key.endswith(".stall.credit_s"):
                    bucket = "credit_starved_s"
                    chan = key[len("flow."):-len(".stall.credit_s")]
                elif key.endswith(".stall.link_s"):
                    bucket = "downstream_full_s"
                    chan = key[len("flow."):-len(".stall.link_s")]
                else:
                    continue
                sender = chan.split("->", 1)[0]
                cell(sender)[bucket] += value
            elif (key.startswith("stage.")
                    and key.endswith(".stall.device_s")):
                stage = key[len("stage."):-len(".stall.device_s")]
                cell(stage)["device_busy_s"] += value
        for stats in out.values():
            stats["total_s"] = (stats["credit_starved_s"]
                                + stats["downstream_full_s"]
                                + stats["device_busy_s"])
        return dict(sorted(out.items()))

    def event_stats(self) -> dict:
        """Ring occupancy summary (recorded/capacity/dropped/truncated)."""
        return self.events.stats()

    def link_report(self) -> dict[str, dict[str, float]]:
        """Per-link totals ``{link: {"bytes": ..., "chunks": ...}}``,
        summed from the movement ledger (the one record of link
        traffic), sorted by link name."""
        out: dict[str, dict[str, float]] = {}
        for (link, _actor, _direction), (nbytes, chunks) in sorted(
                self.ledger.items()):
            totals = out.setdefault(link, {"bytes": 0.0, "chunks": 0.0})
            totals["bytes"] += nbytes
            totals["chunks"] += chunks
        return out
