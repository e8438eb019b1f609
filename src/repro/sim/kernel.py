"""Discrete-event simulation kernel.

A small, deterministic event-driven simulator in the style of SimPy.
Model code is written as Python generators ("processes") that ``yield``
events — timeouts, queue operations, other processes — and are resumed
when those events fire.  The kernel guarantees a total, reproducible
order of execution: events fire in nondecreasing simulated time, and
events scheduled for the same instant fire in schedule order.

Everything in :mod:`repro` ultimately runs on this kernel: simulated
CPU cores, NIC processors, DMA engines, flow-control loops and serving
clients are all processes, so their interleaving is explicit and
replayable.

One queue
---------
Every pending event — zero-delay ``succeed()``/resume/grant and real
timeout alike — sits in one heap keyed ``(due time, schedule sequence
number)``; that key *is* the ordering guarantee above.  Zero-delay
events do not get a FIFO of their own: it buys nothing end to end
(``docs/performance.md``, "Fast-path audit").
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "Simulator",
]


class SimulationError(Exception):
    """Raised for misuse of the kernel (e.g. yielding a non-event)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; it is *triggered* once it has been
    scheduled to fire, and *processed* once its callbacks have run.
    Waiting on an already-processed event resumes the waiter
    immediately (at the current simulated time).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(0.0, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters will see the exception."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(0.0, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self.callbacks is None:
            # Already processed: run at the next scheduling opportunity so
            # callback ordering stays deterministic.
            proxy = Event(self.sim)
            proxy.callbacks.append(lambda _evt: callback(self))
            proxy._ok = True
            proxy._defused = True
            self.sim._schedule(0.0, proxy)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires (with no value) after a fixed simulated
    delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float):
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        # Flattened Event.__init__ (no super() call): a Timeout is
        # allocated per flow hop, so the extra frame is measurable.
        self.sim = sim
        self.callbacks = []
        self._defused = False
        self._ok = True
        self._value = None
        sim._schedule(delay, self)


class Process(Event):
    """A running model process wrapping a generator.

    The process itself is an event that fires (with the generator's
    return value) when the generator finishes, so processes can wait
    for each other by yielding the :class:`Process` object.
    """

    __slots__ = ("name", "_generator", "_target", "_scope")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process requires a generator, got {generator!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = None
        # Optional (context_holder, qid) pair: while the generator
        # runs, ``context_holder.current_qid`` is set to ``qid`` and
        # reset on suspension — dynamic-extent query attribution
        # without a delegating wrapper generator per process.  Pure
        # observation: setting an attribute cannot alter the event
        # schedule.
        self._scope: Optional[tuple] = None
        # Kick off at the current time.
        init = Event(sim)
        init._ok = True
        init.add_callback(self._resume)
        sim._schedule(0.0, init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        evt = Event(self.sim)
        evt._ok = False
        evt._value = Interrupt(cause)
        evt._defused = True
        evt.add_callback(self._resume)
        self.sim._schedule(0.0, evt)

    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            return
        self._target = None
        scope = self._scope
        if scope is not None:
            scope[0].current_qid = scope[1]
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            if scope is not None:
                scope[0].current_qid = 0
            self._ok = True
            self._value = stop.value
            self.sim._schedule(0.0, self)
            return
        except BaseException as exc:
            if scope is not None:
                scope[0].current_qid = 0
            self._ok = False
            self._value = exc
            self.sim._schedule(0.0, self)
            return
        if scope is not None:
            scope[0].current_qid = 0
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {next_event!r}")
        self._target = next_event
        # Inlined add_callback: the yielded event is almost never
        # already processed, and this runs once per process resume.
        callbacks = next_event.callbacks
        if callbacks is None:
            next_event.add_callback(self._resume)
        else:
            callbacks.append(self._resume)


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._pending = 0
        for evt in self._events:
            if not isinstance(evt, Event):
                raise SimulationError(f"expected Event, got {evt!r}")
        if not self._events:
            self.succeed({})
            return
        for evt in self._events:
            self._pending += 1
            evt.add_callback(self._check)

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _results(self) -> dict[int, Any]:
        return {i: evt._value for i, evt in enumerate(self._events)
                if evt.processed}


class AllOf(_Condition):
    """Fires when every constituent event has fired.

    The value is a dict mapping the index of each event (in input
    order) to its value.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._results())


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._results())


class _Call:
    """A callback :meth:`Simulator.call_at` scheduled (raw-callback
    protocol: class-level ``callbacks = None`` plus ``fn``)."""

    __slots__ = ("fn",)
    callbacks = None

    def __init__(self, fn: Callable[[], None]):
        self.fn = fn


class Simulator:
    """The event loop: a clock plus a priority queue of pending events."""

    def __init__(self):
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0

    # -- scheduling ----------------------------------------------------

    def _schedule(self, delay: float, event: Event) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, event))

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        """Call ``fn()`` at absolute simulated time ``when``.

        Absolute, not a delay: a pre-materialised arrival time ``t``
        must be dispatched at exactly ``t``, and ``now + (t - now)``
        is not always ``t`` in floating point.
        """
        if when < self.now:
            raise SimulationError(
                f"call_at({when!r}) is in the past (now={self.now!r})")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, _Call(fn)))

    # -- factory helpers -----------------------------------------------

    def timeout(self, delay: float) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay)

    def event(self) -> Event:
        """A fresh untriggered event (trigger with ``succeed``/``fail``)."""
        return Event(self)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires when all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- running -------------------------------------------------------

    def _pop(self) -> Event:
        """Remove the next due event and advance the clock to it."""
        when, _seq, event = heapq.heappop(self._queue)
        if when < self.now:
            raise SimulationError("event scheduled in the past")
        self.now = when
        return event

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``."""
        if until is not None and until < self.now:
            raise SimulationError(
                f"until={until!r} is in the past (now={self.now!r})")
        pop, queue = self._pop, self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                self.now = until
                return
            event = pop()
            callbacks = event.callbacks
            if callbacks is None:
                # A raw scheduled callback, not an Event: an object
                # with class-level ``callbacks = None`` and an ``fn``
                # (``call_at``'s ``_Call``, the flow fast path's
                # ``_Delivery`` / ``_CreditReturn``).
                # A real Event carries a list until it is dispatched
                # and is scheduled exactly once, so the marker is
                # unambiguous; the holder occupies the (time, seq)
                # slot an Event would, with none of the machinery.
                event.fn()
                continue
            event.callbacks = None
            if len(callbacks) == 1:
                callbacks[0](event)
            else:
                for callback in callbacks:
                    callback(event)
            if not event._ok and not event._defused:
                raise event._value
        if until is not None:
            self.now = until

    def run_process(self, generator: Generator) -> Any:
        """Convenience: start ``generator`` as a process, run until the
        queue drains, return its value.

        Raises the process's exception if it failed.
        """
        proc = self.process(generator)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} did not finish by t={self.now}")
        if not proc._ok:
            raise proc._value
        return proc._value

    @property
    def pending_events(self) -> int:
        """Number of events still queued (for tests/diagnostics)."""
        return len(self._queue)
