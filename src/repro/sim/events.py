"""Typed per-query trace events: the movement-level flight recorder.

The counters and spans in :mod:`repro.sim.trace` answer *how much* —
bytes per link, busy seconds per device.  They cannot answer *which
operator moved which bytes over which link, and who stalled on credits
and why*: the questions the paper's movement-cost argument turns on
(§3.3, §7.1).  This module adds the missing record kind: a bounded
ring of typed :class:`TraceEvent` objects emitted by the flow runtime,
both engines, the hardware devices, and the cloud substrate.

Events are deliberately cheap (a dataclass append into a ring) and
deliberately *lossy at the tail*: the ring keeps the most recent
``capacity`` events and counts what it overwrote, so a long run never
grows without bound and a report can always state whether its event
view is complete (:attr:`EventRing.truncated`).  Aggregate reports
that must be exact — the movement ledger, the stall attribution —
are therefore maintained as running tables on the trace itself, not
derived from the ring.

The event vocabulary (:class:`EventKind`) is fixed so downstream
consumers (the Chrome-trace exporter, the stall report) can switch on
it:

==================  ======================================================
kind                emitted when
==================  ======================================================
``chunk_emit``      a producer finished serializing a chunk onto a channel
``chunk_recv``      the chunk arrived in the consumer stage's inbox
``credit_grant``    a flow-control credit returned to the sender (§7.1)
``credit_stall``    a sender blocked waiting for a credit (has ``dur``)
``dma_issue``       a DMA transfer (link hop / storage op) was issued
``dma_complete``    that transfer finished (has ``dur``)
``cache_hit``       a bufferpool / data cache / result cache hit
``cache_miss``      the corresponding miss
``op_open``         an operator chain / query / stage began work
``op_close``        it finished
``mem_alloc``       DRAM was allocated
``mem_free``        DRAM was freed
``tax_egress``      a chunk was serialized+compressed+encrypted for the wire
``tax_ingress``     a wire payload was decoded back into a chunk
``serve_arrive``    a tenant query arrived at the serving front door
``serve_shed``      admission control rejected it (load shedding)
``serve_start``     an admitted query left the fair queue and started
``serve_done``      it finished executing
``alert``           an SLO burn-rate monitor fired or resolved
==================  ======================================================

Serving runs additionally attribute events to the query (and thereby
tenant) that caused them: :attr:`TraceEvent.qid` names a context
registered with :meth:`~repro.sim.trace.Trace.register_context`.
``qid == 0`` means "no particular query" — shared infrastructure
work, or any event from a non-serving (batch) run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["EventKind", "TraceEvent", "EventRing",
           "DEFAULT_EVENT_CAPACITY"]

DEFAULT_EVENT_CAPACITY = 65536
"""Ring capacity a fresh :class:`~repro.sim.trace.Trace` starts with."""


class EventKind:
    """Vocabulary of trace event kinds (plain strings, trace-readable)."""

    CHUNK_EMIT = "chunk_emit"
    CHUNK_RECV = "chunk_recv"
    CREDIT_GRANT = "credit_grant"
    CREDIT_STALL = "credit_stall"
    DMA_ISSUE = "dma_issue"
    DMA_COMPLETE = "dma_complete"
    CACHE_HIT = "cache_hit"
    CACHE_MISS = "cache_miss"
    OP_OPEN = "op_open"
    OP_CLOSE = "op_close"
    MEM_ALLOC = "mem_alloc"
    MEM_FREE = "mem_free"
    TAX_EGRESS = "tax_egress"
    TAX_INGRESS = "tax_ingress"
    SERVE_ARRIVE = "serve_arrive"
    SERVE_SHED = "serve_shed"
    SERVE_START = "serve_start"
    SERVE_DONE = "serve_done"
    ALERT = "alert"

    ALL = (
        CHUNK_EMIT, CHUNK_RECV, CREDIT_GRANT, CREDIT_STALL,
        DMA_ISSUE, DMA_COMPLETE, CACHE_HIT, CACHE_MISS,
        OP_OPEN, OP_CLOSE, MEM_ALLOC, MEM_FREE,
        TAX_EGRESS, TAX_INGRESS,
        SERVE_ARRIVE, SERVE_SHED, SERVE_START, SERVE_DONE, ALERT,
    )


@dataclass(slots=True)
class TraceEvent:
    """One typed occurrence at a simulated instant.

    ``actor`` is the track the event belongs to (a device, stage,
    link, or cache name); ``label`` carries free-form detail (the
    channel crossed, the operation performed).  ``dur`` is nonzero
    for window-shaped events (``credit_stall``, ``dma_complete``) and
    then ``ts`` is the window *start*.  A nonzero ``flow_id`` ties a
    ``chunk_emit`` to its matching ``chunk_recv`` so exporters can
    draw flow arrows between tracks.  A nonzero ``qid`` attributes
    the event to a query context registered with
    :meth:`~repro.sim.trace.Trace.register_context` (serving runs),
    so per-tenant lanes and tail-exemplar event slices can be carved
    out of a shared ring.
    """

    ts: float
    kind: str
    actor: str
    label: str = ""
    nbytes: float = 0.0
    dur: float = 0.0
    flow_id: int = 0
    qid: int = 0

    def to_dict(self) -> dict:
        out = {"ts": self.ts, "kind": self.kind, "actor": self.actor}
        if self.label:
            out["label"] = self.label
        if self.nbytes:
            out["nbytes"] = self.nbytes
        if self.dur:
            out["dur"] = self.dur
        if self.flow_id:
            out["flow_id"] = self.flow_id
        if self.qid:
            out["qid"] = self.qid
        return out


class EventRing:
    """A bounded ring of :class:`TraceEvent` — keeps the newest.

    Appending past ``capacity`` overwrites the oldest event and
    increments :attr:`dropped`, so consumers can always tell whether
    the window is complete (:attr:`truncated`).  Iteration yields
    events oldest-first.
    """

    def __init__(self, capacity: int = DEFAULT_EVENT_CAPACITY):
        if capacity < 1:
            raise ValueError("event ring capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._buf: list[TraceEvent] = []
        self._next = 0          # overwrite cursor once the ring is full

    def append(self, event: TraceEvent) -> None:
        if len(self._buf) < self.capacity:
            self._buf.append(event)
        else:
            self._buf[self._next] = event
            self._next = (self._next + 1) % self.capacity
            self.dropped += 1

    @property
    def truncated(self) -> bool:
        """True when at least one event was overwritten."""
        return self.dropped > 0

    def stats(self) -> dict:
        """Ring occupancy summary for reports (JSON-safe)."""
        return {"recorded": len(self._buf),
                "capacity": self.capacity,
                "dropped": self.dropped,
                "truncated": self.truncated}

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[TraceEvent]:
        if self._next:
            return iter(self._buf[self._next:] + self._buf[:self._next])
        return iter(self._buf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EventRing {len(self._buf)}/{self.capacity}"
                f"{' truncated' if self.truncated else ''}>")
