"""Credit-based flow control between pipeline stages (§7.1).

The paper's data-movement design: queues placed strategically along
the pipeline, connected by DMA engines, with *credit-based* flow
control — the receiver grants the sender a budget of queue slots, and
a low-traffic counter-stream of credit messages replenishes it.  This
is the mechanism PCIe itself uses.

A :class:`CreditChannel` connects a producing stage to a consuming
stage's inbox across a path of fabric links.  Sends block until a
credit is available, so the consumer-side queue occupancy can never
exceed the credit window — the invariant bench C3 sweeps.  Credit
returns travel the reverse path as tiny control messages: they pay
latency and are counted (``flow.control.total_bytes``) but do not
occupy link bandwidth, matching their negligible size.

Hot path
--------
Wire delivery and credit return are one-shot, straight-line flows, so
by default they run as *scheduled callback chains* (raw-callback
slots, see :meth:`~repro.sim.Simulator.run`) instead of detached
generator processes: each step occupies exactly the
``(time, seq)`` slot its event-based equivalent would, so the total
event order — and therefore every trace, ledger, and checksum — is
bit-identical, while each message skips several Event/Process/
generator-frame allocations.  The only slot deliberately removed in
*both* paths is the former unconditional ``timeout(0.0)`` a
zero-latency credit return used to yield — pure event churn.  Set
``REPRO_SLOW_FLOW=1`` to force the generator-based reference flows
the determinism gates compare against (read once per stage graph, or
at construction by a channel built on its own).

A served query builds its channels anew, so construction derives
nothing a link already knows: the per-hop span name and counters are
the :class:`~repro.hardware.interconnect.Link`'s own handles, and the
stall counters are bound when the first stall is charged.
"""

from __future__ import annotations

import os
from typing import Any, Generator, Optional

from ..hardware.device import Device, OpKind
from ..hardware.interconnect import Link
from ..sim import EventKind, Simulator, Store, Trace
from ..sim.trace import CounterHandle

__all__ = ["END", "CreditChannel", "flow_fast_path"]

#: Bytes of one credit-return message.
CONTROL_BYTES = 16


def flow_fast_path() -> bool:
    """Whether new stage graphs/channels use the callback fast path."""
    return not os.environ.get("REPRO_SLOW_FLOW")


class _EndOfStream:
    """Sentinel closing one producer's contribution to a channel."""

    def __repr__(self):
        return "END"


END = _EndOfStream()


class _Delivery:
    """One in-flight message's wire delivery, as a callback chain.

    Replaces the detached ``_deliver`` generator process with a single
    rescheduled holder.  The kernel dispatches it via the raw-callback
    protocol (class-level ``callbacks = None`` + ``fn``), and each
    state transition claims exactly the queue slot the generator
    formulation would have:

    =====  ==================  ===================================
    state  slot it occupies    work performed at dispatch
    =====  ==================  ===================================
    0      process init        schedule the propagation timeout
    1      propagation timer   put into the inbox, wake the getter
    2      put-success         emit ``chunk_recv``
    =====  ==================  ===================================

    The generator's final slot (the process-done event, which nothing
    waits on) is dropped — removing a no-op slot shifts later global
    sequence numbers but never their *relative* order, which is all
    dispatch compares.
    """

    __slots__ = ("channel", "payload", "propagation", "flow_id",
                 "state")

    callbacks = None        # raw-callback dispatch marker
    _ok = True
    _defused = True

    def __init__(self, channel: "CreditChannel", payload: Any,
                 propagation: float, flow_id: int):
        self.channel = channel
        self.payload = payload
        self.propagation = propagation
        self.flow_id = flow_id
        self.state = 0
        channel.sim._schedule(0.0, self)        # the init slot

    def fn(self) -> None:
        channel = self.channel
        state = self.state
        if state == 0:
            self.state = 1
            channel.sim._schedule(self.propagation, self)
        elif state == 1:
            inbox = channel.inbox
            if inbox.try_put((channel, self.payload)):
                self.state = 2
                channel.sim._schedule(0.0, self)   # put-success slot
                inbox.wake_getters()
            else:
                # Bounded inbox, currently full: fall back to a real
                # put event; the recv emit rides its success slot.
                inbox.put((channel, self.payload)).add_callback(
                    self._on_put)
        else:
            self._emit_recv()

    def _on_put(self, _event) -> None:
        self._emit_recv()

    def _emit_recv(self) -> None:
        channel = self.channel
        channel.trace.emit(
            channel.sim.now, EventKind.CHUNK_RECV, channel.name,
            label="end" if self.payload is END else "",
            flow_id=self.flow_id, qid=channel.qid)


class _CreditReturn:
    """One credit's journey back to the sender, as a callback chain.

    Same protocol and slot discipline as :class:`_Delivery`.  For a
    zero-latency reverse path the chain starts directly in state 1 —
    the put happens at the init slot's dispatch, exactly where the
    reference generator (which no longer yields a pointless
    ``timeout(0.0)``) performs it.
    """

    __slots__ = ("channel", "state")

    callbacks = None
    _ok = True
    _defused = True

    def __init__(self, channel: "CreditChannel"):
        self.channel = channel
        self.state = 0 if channel._reverse_latency > 0 else 1
        channel.sim._schedule(0.0, self)        # the init slot

    def fn(self) -> None:
        channel = self.channel
        state = self.state
        if state == 0:
            self.state = 1
            channel.sim._schedule(channel._reverse_latency, self)
        elif state == 1:
            channel.in_flight_or_queued -= 1
            tokens = channel._tokens
            if tokens.try_put(True):
                self.state = 2
                channel.sim._schedule(0.0, self)   # put-success slot
                tokens.wake_getters()
            else:  # pragma: no cover - credits are conserved
                tokens.put(True).add_callback(self._on_put)
        else:
            self._emit_grant()

    def _on_put(self, _event) -> None:  # pragma: no cover - see above
        self._emit_grant()

    def _emit_grant(self) -> None:
        channel = self.channel
        channel.trace.emit(channel.sim.now, EventKind.CREDIT_GRANT,
                           channel.name, nbytes=CONTROL_BYTES,
                           qid=channel.qid)
        channel._control_total.add(CONTROL_BYTES)


class CreditChannel:
    """A flow-controlled, link-crossing connection into a stage inbox."""

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 links: list[Link], inbox: Store, credits: int = 8,
                 cpu_mediator: Optional[Device] = None,
                 actor: str = "", direction: str = "",
                 qid: int = 0, fast: Optional[bool] = None):
        if credits < 1:
            raise ValueError("credit window must be >= 1")
        self.sim = sim
        self.trace = trace
        self.name = name
        self.links = list(links)
        self.inbox = inbox
        self.credits = credits
        self.cpu_mediator = cpu_mediator
        # Movement-ledger attribution: the operator (sending stage)
        # responsible for this channel's bytes, and the direction the
        # bytes travel (``src_location->dst_location``).
        self.actor = actor or name
        self.direction = direction
        # Owning query context (serving runs).  The wire-delivery and
        # credit-return helpers run as *detached* chains outside the
        # sender stage's scoped frame, so they tag their events
        # explicitly instead of relying on the ambient context.
        self.qid = qid
        self._tokens = Store(sim, capacity=credits,
                             name=f"{name}.credits")
        self._tokens.items.extend([True] * credits)
        self.in_flight_or_queued = 0
        self.max_outstanding = 0
        # Summed here, not kept per route: a link's latency is a
        # what-if knob, and the next channel must see it turned.
        self._reverse_latency = sum(link.latency
                                    for link in self.links)
        # Callback fast path unless the reference flag forces the
        # generator flows (a stage graph reads it once and passes it).
        self._fast = flow_fast_path() if fast is None else fast
        # Counter handles and per-hop terms, resolved once instead of
        # per message (the f-string keys used to dominate trace.add).
        self._stall_credit = self._stall_link = None
        self._control_total = trace.counter_handle(
            "flow.control.total_bytes")
        self._hops = [
            (link, link._span_name, link.segment_handle(),
             # Pre-built movement-ledger key — record_movement's
             # per-call tuple construction, hoisted.
             (link.name, self.actor, self.direction))
            for link in self.links]

    # -- sending ---------------------------------------------------------

    def send(self, payload: Any, nbytes: float) -> Generator:
        """Ship ``payload`` (``nbytes`` on the wire) to the inbox.

        Blocks on the credit window and link *serialization* (port
        occupancy for nbytes/bandwidth at each hop).  Propagation
        latency is paid asynchronously — the message is "on the wire"
        and the sender may pipeline the next one, which is why a
        window larger than the bandwidth-delay product is needed to
        keep a long pipe full (bench C3).
        """
        sim, trace = self.sim, self.trace
        credit_wait_from = sim.now
        tokens = self._tokens
        if self._fast and tokens.items and not tokens._putters:
            # Allocation-free credit take: the zero-delay timeout
            # claims exactly the slot the StoreGet success event
            # would have, so the resume order is bit-identical.  (A
            # queued putter — unreachable while credits are conserved
            # — would have to be re-admitted getter-first, so that
            # case falls back to the event path.)
            del tokens.items[0]
            yield sim.timeout(0.0)
        else:
            yield tokens.get()
        if sim.now > credit_wait_from:
            # The sender blocked on the credit window: the receiver's
            # queue was full.  This is the "credit-starved" bucket of
            # the backpressure attribution report.
            stall = sim.now - credit_wait_from
            if self._stall_credit is None:
                self._stall_credit = CounterHandle(
                    trace.counters, f"flow.{self.name}.stall.credit_s")
            self._stall_credit.add(stall)
            trace.emit(credit_wait_from, EventKind.CREDIT_STALL,
                       self.name, nbytes=nbytes, dur=stall)
        self.in_flight_or_queued += 1
        if self.in_flight_or_queued > self.max_outstanding:
            self.max_outstanding = self.in_flight_or_queued
        wire_from = sim.now
        links = self.links
        if len(links) == 1:
            serialization = nbytes / links[0].bandwidth
        else:
            serialization = sum(nbytes / link.bandwidth
                                for link in links)
        propagation = 0.0
        ledger = trace.ledger
        for link, span_name, h_movement, hop_key in self._hops:
            if not link._ports.try_acquire():
                yield link._ports.request()
            # Mirror Link.transfer: a busy span per port-occupancy
            # window, consumed by the critical-path walker.
            span = trace.open_span(span_name, sim.now)
            try:
                yield sim.timeout(nbytes / link.bandwidth)
            finally:
                trace.close_span(span, sim.now)
                link._ports.release()
            propagation += link.latency
            now = sim.now
            if now > trace.clock:       # tick(), inlined
                trace.clock = now
            h_movement.add(nbytes)
            # record_movement, inlined with the pre-built key.
            cell = ledger.get(hop_key)
            if cell is None:
                cell = ledger[hop_key] = [0.0, 0.0]
            cell[0] += nbytes
            cell[1] += 1.0
            if self.cpu_mediator is not None and nbytes > 0:
                # CPU-mediated copy at every hop (ablation A2): the
                # host core touches the data instead of a DMA engine.
                yield from self.cpu_mediator.execute(OpKind.GENERIC, nbytes)
        wire_overhead = (sim.now - wire_from) - serialization
        if wire_overhead > 1e-12:
            # Time beyond uncontended serialization: queuing behind
            # other traffic on the route (port contention, CPU
            # mediation) — the "downstream-full" bucket.
            if self._stall_link is None:
                self._stall_link = CounterHandle(
                    trace.counters, f"flow.{self.name}.stall.link_s")
            self._stall_link.add(wire_overhead)
        flow_id = trace.next_flow_id()
        trace.emit(sim.now, EventKind.CHUNK_EMIT, self.name,
                   label="end" if payload is END else "",
                   nbytes=nbytes, flow_id=flow_id)
        if self._fast:
            _Delivery(self, payload, propagation, flow_id)
        else:
            sim.process(self._deliver(payload, propagation, flow_id),
                        name=f"{self.name}.wire")

    def _deliver(self, payload: Any, propagation: float,
                 flow_id: int = 0) -> Generator:
        """Reference (``REPRO_SLOW_FLOW=1``) generator delivery."""
        yield self.sim.timeout(propagation)
        yield self.inbox.put((self, payload))
        self.trace.emit(self.sim.now, EventKind.CHUNK_RECV, self.name,
                        label="end" if payload is END else "",
                        flow_id=flow_id, qid=self.qid)

    def send_end(self) -> Generator:
        """Close this producer's stream (consumes a credit like data)."""
        yield from self.send(END, 0.0)

    # -- receiving ---------------------------------------------------------

    def ack(self) -> None:
        """Consumer finished one message: return a credit.

        The credit message travels the reverse path (latency only) and
        is counted as control traffic — the counter-stream of §7.1.
        """
        if self._fast:
            _CreditReturn(self)
        else:
            self.sim.process(self._return_credit(),
                             name=f"{self.name}.credit")

    def _return_credit(self) -> Generator:
        """Reference (``REPRO_SLOW_FLOW=1``) generator credit return.

        A zero-latency reverse path proceeds straight to the token
        put — the unconditional ``timeout(0.0)`` this used to yield
        bought nothing but an extra event per message (the callback
        path mirrors the same slot shape).
        """
        if self._reverse_latency > 0:
            yield self.sim.timeout(self._reverse_latency)
        self.in_flight_or_queued -= 1
        yield self._tokens.put(True)
        self.trace.emit(self.sim.now, EventKind.CREDIT_GRANT, self.name,
                        nbytes=CONTROL_BYTES, qid=self.qid)
        self._control_total.add(CONTROL_BYTES)
