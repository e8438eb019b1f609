"""DRAM, near-memory accelerators, and disaggregated memory (§5).

:func:`memory_read` is §5.1's memory controller on the fabric: a
stream of requests over a node's memory bus, each followed by an
issue gap, so one core sustains only part of a controller while a few
cores saturate all of them.

:class:`NearMemoryAccelerator` interposes between the memory
controller and the CPU (the M7-style design of §5.2): it sees data in
flight and can filter, decompress, transpose, chase pointers, and run
list maintenance with privileged memory bandwidth.  Crucially, data it
*discards* never crosses the memory bus toward the caches — the data
reduction that motivates the whole architecture.

:class:`DisaggregatedMemoryNode` is a remote memory server (§5.3):
DRAM fronted by a NIC, optionally with a near-memory accelerator so
the bottom of a query plan can execute where the data lives (the
Farview-style offload the paper cites).

:class:`LRUCache` is the one cache of the model: the buffer pool
(§7.4), the data and result caches (§7.5) and the LLC of the
pointer-chasing experiment (§5.4) each keep their entries in one.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Generator, Hashable, Optional

from ..sim import EventKind, Simulator, Trace
from .device import GIB, Device, OpKind
from .nic import NIC, SmartNIC

if TYPE_CHECKING:
    from .topology import Fabric

__all__ = ["DRAM", "LRUCache", "NearMemoryAccelerator",
           "DisaggregatedMemoryNode", "memory_read", "nearmem_rates"]

#: Bytes per memory request: a stream reaches the controller in
#: requests of this size.
REQUEST_BYTES = 1 << 20

#: Share of one controller a single stream sustains (§5.1: 75–85 %,
#: constant for over a decade).
SINGLE_STREAM_FRACTION = 0.8

#: The bandwidth a near-memory accelerator streams at, in bytes/second.
NEARMEM_BANDWIDTH = 40.0 * GIB


def nearmem_rates() -> dict[str, float]:
    """Rates of a near-memory accelerator.

    The unit sits on the controller, so streaming kinds run at full
    memory bandwidth — faster than any single core can stream (§5.2).
    Pointer chasing is its headline capability: traversals happen
    without round trips to the CPU (§5.4).
    """
    return {
        OpKind.FILTER: NEARMEM_BANDWIDTH,
        OpKind.PROJECT: NEARMEM_BANDWIDTH,
        OpKind.DECOMPRESS: 0.8 * NEARMEM_BANDWIDTH,
        OpKind.COMPRESS: 0.5 * NEARMEM_BANDWIDTH,
        OpKind.TRANSPOSE: 0.7 * NEARMEM_BANDWIDTH,
        OpKind.POINTER_CHASE: 0.5 * NEARMEM_BANDWIDTH,
        OpKind.LIST_MAINTENANCE: 0.6 * NEARMEM_BANDWIDTH,
        OpKind.AGGREGATE: 0.5 * NEARMEM_BANDWIDTH,
        OpKind.HASH: 0.6 * NEARMEM_BANDWIDTH,
        OpKind.COUNT: NEARMEM_BANDWIDTH,
    }


class DRAM:
    """A block of DRAM capacity at some fabric location."""

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 capacity: int = 64 << 30):
        self.sim = sim
        self.trace = trace
        self.name = name
        self.capacity = capacity
        self.used = 0

    def allocate(self, nbytes: int) -> None:
        """Reserve ``nbytes``; raises MemoryError when over capacity."""
        if self.used + nbytes > self.capacity:
            raise MemoryError(
                f"DRAM {self.name}: {nbytes} requested, "
                f"{self.capacity - self.used} free")
        self.used += nbytes
        self.trace.emit(self.sim.now, EventKind.MEM_ALLOC,
                        f"dram.{self.name}", nbytes=nbytes)

    def free(self, nbytes: int) -> None:
        """Release ``nbytes`` previously allocated."""
        if nbytes > self.used:
            raise MemoryError(f"DRAM {self.name}: freeing more than used")
        self.used -= nbytes
        self.trace.emit(self.sim.now, EventKind.MEM_FREE,
                        f"dram.{self.name}", nbytes=nbytes)
        self.trace.add(f"dram.{self.name}.frees", 1)


class LRUCache:
    """A byte-budgeted least-recently-used cache of values.

    Each entry is a value (never None) and the bytes it occupies;
    :attr:`used_bytes` never exceeds :attr:`capacity_bytes`.  Hits,
    misses and evictions are counted exactly; with a ``trace`` each
    lookup is also a ``cache_hit`` / ``cache_miss`` event stamped at
    the trace's clock.
    """

    def __init__(self, capacity_bytes: int, name: str = "lru",
                 trace: Optional[Trace] = None):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.trace = trace
        self._entries: OrderedDict = OrderedDict()   # key -> (value, bytes)
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable):
        """``key``'s value, now the most recently used; None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            kind = EventKind.CACHE_MISS
        else:
            self._entries.move_to_end(key)
            self.hits += 1
            kind = EventKind.CACHE_HIT
        if self.trace is not None:
            self.trace.emit(self.trace.clock, kind, f"cache.{self.name}",
                            label=str(key))
        return None if entry is None else entry[0]

    def put(self, key: Hashable, value, nbytes: int) -> list:
        """Store ``value`` (``nbytes`` big) as the most recently used.

        Returns the ``(key, nbytes)`` of every entry evicted to make
        room, least recently used first.  An older copy of ``key`` is
        replaced, not evicted; an entry larger than the whole budget is
        refused, and its older copy dropped all the same.
        """
        old = self._entries.pop(key, None)
        if old is not None:
            self.used_bytes -= old[1]
        if nbytes > self.capacity_bytes:
            return []
        evicted = []
        while self.used_bytes + nbytes > self.capacity_bytes:
            victim, (_value, victim_bytes) = self._entries.popitem(
                last=False)
            self.used_bytes -= victim_bytes
            evicted.append((victim, victim_bytes))
        self._entries[key] = (value, nbytes)
        self.used_bytes += nbytes
        self.evictions += len(evicted)
        return evicted


def memory_read(fabric: Fabric, src: str, dst: str,
                nbytes: float) -> Generator:
    """Stream ``nbytes`` from ``src`` to ``dst`` (simulation process).

    Each :data:`REQUEST_BYTES` request crosses the route, holding a
    port of its memory bus at the controller's full bandwidth; the
    stream then waits an issue gap without a port, so it sustains
    :data:`SINGLE_STREAM_FRACTION` of one controller while other
    streams' requests fill the gap.  A few streams thus saturate the
    bus, and with many, per-stream bandwidth collapses (§5.1).  A read
    that stops at ``<node>.llc`` crosses no cache; one that stops at
    ``<node>.cpu`` crosses the cache bus too.
    """
    (membus,) = [link for link in fabric.route(src, dst)
                 if link.segment == "membus"]
    remaining = float(nbytes)
    while remaining > 0:
        piece = min(REQUEST_BYTES, remaining)
        yield from fabric.transfer(src, dst, piece)
        yield fabric.sim.timeout(
            piece / membus.bandwidth * (1 / SINGLE_STREAM_FRACTION - 1))
        remaining -= piece


class NearMemoryAccelerator(Device):
    """An accelerator on the memory controller's data path (§5.2)."""

    def __init__(self, sim: Simulator, trace: Trace, name: str):
        super().__init__(sim, trace, name,
                         rates=nearmem_rates(),
                         startup=0.5e-6, slots=2, programmable=True)


class DisaggregatedMemoryNode:
    """A remote memory server: DRAM + NIC (+ optional accelerator)."""

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 capacity: int = 256 << 30, nic_gbits: float = 100.0,
                 smart_nic: bool = True, accelerator: bool = True):
        self.sim = sim
        self.trace = trace
        self.name = name
        self.dram = DRAM(sim, trace, f"{name}.dram", capacity=capacity)
        nic_cls = SmartNIC if smart_nic else NIC
        self.nic = nic_cls(sim, trace, f"{name}.nic", gbits=nic_gbits)
        self.accelerator: Optional[NearMemoryAccelerator] = (
            NearMemoryAccelerator(sim, trace, f"{name}.accel")
            if accelerator else None)
