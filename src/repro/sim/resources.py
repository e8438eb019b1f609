"""Shared-resource primitives for simulation processes.

Two primitives cover everything the hardware models need:

* :class:`Store` — a bounded FIFO queue of items.  Producers ``yield
  store.put(item)`` and block when the queue is full; consumers
  ``yield store.get()`` and block when it is empty.  Channels between
  data-flow stages are Stores.
* :class:`Resource` — a counted resource with FIFO admission.  Devices
  (a DMA engine, a storage computational unit, a memory controller
  port) are Resources: a process requests a slot, holds it for the
  service time, then releases it.

Both keep FIFO semantics so simulations stay deterministic.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from .kernel import Event, SimulationError, Simulator

__all__ = ["Store", "Resource"]


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item


class _StoreGet(Event):
    __slots__ = ()


class Store:
    """A bounded FIFO queue connecting producer and consumer processes."""

    def __init__(self, sim: Simulator, capacity: float = math.inf,
                 name: str = ""):
        if capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: list[Any] = []
        self._putters: list[_StorePut] = []
        self._getters: list[_StoreGet] = []
        # High-water mark, for flow-control experiments.
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` has been enqueued."""
        event = _StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> Event:
        """Event that fires with the next item once one is available."""
        event = _StoreGet(self.sim)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_put(self, item: Any) -> bool:
        """Allocation-free put fast path; ``True`` if enqueued.

        Appends ``item`` without creating a ``_StorePut`` event and —
        deliberately — without serving waiting getters.  A caller on
        the flow fast path first schedules its own continuation (the
        slot the put-success event would have occupied), then calls
        :meth:`wake_getters`, reproducing ``_dispatch``'s
        put-before-get scheduling order bit for bit.  Fails (returns
        ``False``) when the store is full or earlier puts are queued,
        in which case the caller must fall back to :meth:`put` to
        keep FIFO fairness.
        """
        if self._putters or len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        if len(self.items) > self.max_occupancy:
            self.max_occupancy = len(self.items)
        return True

    def wake_getters(self) -> None:
        """Serve waiting getters; the second half of a fast put.

        Identical scheduling order to the get-serving loop of
        ``_dispatch`` (FIFO, one success event per getter).
        """
        getters, items = self._getters, self.items
        while getters and items:
            getters.pop(0).succeed(items.pop(0))

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Admit pending puts while there is room.
            while self._putters and len(self.items) < self.capacity:
                put = self._putters.pop(0)
                self.items.append(put.item)
                self.max_occupancy = max(self.max_occupancy, len(self.items))
                put.succeed()
                progressed = True
            # Serve pending gets while there are items.
            while self._getters and self.items:
                get = self._getters.pop(0)
                get.succeed(self.items.pop(0))
                progressed = True


class _Request(Event):
    __slots__ = ("amount",)

    def __init__(self, resource: "Resource", amount: int):
        super().__init__(resource.sim)
        self.amount = amount


class Resource:
    """A counted resource (e.g. device execution slots) with FIFO grants.

    ``capacity`` is the number of concurrently grantable units.  A
    request may ask for several units at once (e.g. a wide DMA
    transfer); grants are strictly FIFO, so a large request at the
    head of the line blocks smaller ones behind it — matching how
    hardware arbitration queues behave.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiting: list[_Request] = []
        # Accounting for utilization reports.
        self.busy_time = 0.0
        self._busy_since: Optional[float] = None

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def try_acquire(self, amount: int = 1) -> bool:
        """Allocation-free grant fast path; ``True`` if granted now.

        Grants ``amount`` units immediately — without creating a
        ``_Request`` event or consuming a queue slot — when no earlier
        request is waiting and capacity is free.  The caller simply
        continues instead of yielding, so an uncontended acquire costs
        zero events.  Returns ``False`` under contention (or when the
        queue is non-empty, preserving FIFO fairness), in which case
        the caller must fall back to ``yield request()``.
        """
        if self._waiting or amount > self.capacity - self.in_use:
            return False
        if self.in_use == 0:
            self._busy_since = self.sim.now
        self.in_use += amount
        return True

    def request(self, amount: int = 1) -> Event:
        """Event that fires when ``amount`` units have been granted."""
        if amount < 1 or amount > self.capacity:
            raise SimulationError(
                f"cannot request {amount} of capacity {self.capacity}")
        event = _Request(self, amount)
        self._waiting.append(event)
        self._grant()
        return event

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` previously granted units."""
        if amount > self.in_use:
            raise SimulationError("releasing more than in use")
        self.in_use -= amount
        if self.in_use == 0 and self._busy_since is not None:
            self.busy_time += self.sim.now - self._busy_since
            self._busy_since = None
        self._grant()

    def _grant(self) -> None:
        while self._waiting and self._waiting[0].amount <= self.available:
            req = self._waiting.pop(0)
            if self.in_use == 0:
                self._busy_since = self.sim.now
            self.in_use += req.amount
            req.succeed()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time the resource was busy (any unit in use)."""
        total = self.busy_time
        if self._busy_since is not None:
            total += self.sim.now - self._busy_since
        horizon = elapsed if elapsed is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return total / horizon
