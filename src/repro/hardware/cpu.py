"""CPU socket model: cores, caches, memory controllers, NUMA.

This module encodes the quantitative claims of §5.1:

* a single core sustains only a fraction (historically 75–85 %) of a
  memory controller's bandwidth — :class:`MemoryController` enforces a
  per-stream issue-rate ceiling;
* controllers are oversubscribed with respect to cores, so a moderate
  number of memory-bound cores saturates the controllers and per-core
  bandwidth collapses — controller ports serialize chunked requests,
  so saturation emerges rather than being asserted;
* NUMA: access to a neighbour socket's controller pays an inter-socket
  hop (:func:`repro.hardware.interconnect.memory_bus` at lower speed).

Cores are :class:`~repro.hardware.device.Device` instances whose rate
table reflects *software* implementations of the operator kinds — the
reference point accelerator offloads are compared against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generator, Optional

from ..sim import Resource, Simulator, Trace
from .device import GIB, Device, OpKind

__all__ = [
    "MemoryController",
    "CacheHierarchy",
    "LRUCache",
    "CPUSocket",
    "Server",
    "default_core_rates",
]


def default_core_rates(ghz: float = 3.0) -> dict[str, float]:
    """Software (per-core) processing rates in bytes/second.

    Calibrated to a ~3 GHz core running vectorized database kernels.
    Regex is the stand-out laggard — the reason AQUA pushed LIKE to
    accelerators (§3.3).
    """
    scale = ghz / 3.0
    return {
        OpKind.FILTER: 8.0 * GIB * scale,
        OpKind.REGEX: 0.8 * GIB * scale,
        OpKind.PROJECT: 12.0 * GIB * scale,
        OpKind.HASH: 6.0 * GIB * scale,
        OpKind.PARTITION: 5.0 * GIB * scale,
        OpKind.AGGREGATE: 6.0 * GIB * scale,
        OpKind.SORT: 2.0 * GIB * scale,
        OpKind.JOIN_BUILD: 3.0 * GIB * scale,
        OpKind.JOIN_PROBE: 4.0 * GIB * scale,
        OpKind.COUNT: 16.0 * GIB * scale,
        OpKind.COMPRESS: 1.5 * GIB * scale,
        OpKind.DECOMPRESS: 3.0 * GIB * scale,
        OpKind.ENCRYPT: 2.0 * GIB * scale,
        OpKind.DECRYPT: 2.0 * GIB * scale,
        OpKind.SERIALIZE: 5.0 * GIB * scale,
        OpKind.DESERIALIZE: 5.0 * GIB * scale,
        OpKind.TRANSPOSE: 4.0 * GIB * scale,
        OpKind.POINTER_CHASE: 0.5 * GIB * scale,
        OpKind.LIST_MAINTENANCE: 2.0 * GIB * scale,
        OpKind.GENERIC: 8.0 * GIB * scale,
    }


class MemoryController:
    """One DDR memory controller with a per-stream efficiency ceiling.

    Reads are issued in fixed-size chunks.  Each chunk occupies the
    controller port at the full channel bandwidth, but the issuing
    stream then pays an *issue gap* before its next chunk, capping a
    single stream at ``single_stream_fraction`` of channel bandwidth
    (§5.1: 75–85 %, constant for over a decade).  While one stream
    sits in its gap, other streams' chunks are served, so aggregate
    throughput approaches the channel bandwidth — and with many
    streams, per-stream bandwidth collapses to ``bandwidth / n``.
    """

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 bandwidth: float = 20.0 * GIB,
                 single_stream_fraction: float = 0.8,
                 chunk_bytes: int = 1 << 20,
                 arbitration_latency: float = 40e-9):
        if not 0.0 < single_stream_fraction <= 1.0:
            raise ValueError("single_stream_fraction must be in (0, 1]")
        self.sim = sim
        self.trace = trace
        self.name = name
        self.bandwidth = bandwidth
        self.single_stream_fraction = single_stream_fraction
        self.chunk_bytes = chunk_bytes
        self.arbitration_latency = arbitration_latency
        self._port = Resource(sim, capacity=1, name=f"{name}.port")

    def _issue_gap(self, chunk: float) -> float:
        full = chunk / self.bandwidth
        limited = chunk / (self.bandwidth * self.single_stream_fraction)
        return limited - full

    def access(self, nbytes: float, write: bool = False) -> Generator:
        """Stream ``nbytes`` through the controller (simulation process)."""
        direction = "write" if write else "read"
        remaining = float(nbytes)
        while remaining > 0:
            chunk = min(self.chunk_bytes, remaining)
            if not self._port.try_acquire():
                yield self._port.request()
            try:
                yield self.sim.timeout(
                    self.arbitration_latency + chunk / self.bandwidth)
            finally:
                self._port.release()
            # Issue gap is paid without holding the port, so other
            # streams can slot in — this is what lets aggregate
            # bandwidth exceed a single stream's.
            yield self.sim.timeout(self._issue_gap(chunk))
            remaining -= chunk
        self.trace.add(f"memctrl.{self.name}.bytes.{direction}", nbytes)
        self.trace.add("movement.membus.bytes", nbytes)


@dataclass
class CacheLevelSpec:
    """Capacity and bandwidth of one cache level."""

    name: str
    capacity: int
    bandwidth: float


class CacheHierarchy:
    """The on-chip staircase every byte climbs in Figure 1.

    For streaming scans (no reuse), each byte crosses every level on
    its way from DRAM to the registers; ``charge_stream`` accounts
    that movement and returns the time the slowest level adds.  An
    optional HBM "L4" level models Xeon Max-style configurations
    (§5.1).
    """

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 levels: Optional[list[CacheLevelSpec]] = None):
        self.sim = sim
        self.trace = trace
        self.name = name
        if levels is None:
            levels = [
                CacheLevelSpec("L1", 48 << 10, 400.0 * GIB),
                CacheLevelSpec("L2", 2 << 20, 300.0 * GIB),
                CacheLevelSpec("L3", 64 << 20, 200.0 * GIB),
            ]
        self.levels = levels

    def charge_stream(self, nbytes: float) -> float:
        """Account a streaming pass of ``nbytes`` through all levels.

        Returns the added transfer time (the levels operate as a
        pipeline, so the slowest level bounds it).
        """
        slowest = 0.0
        for level in self.levels:
            self.trace.add(
                f"cache.{self.name}.{level.name}.bytes", nbytes)
            self.trace.add("movement.cache.bytes", nbytes)
            slowest = max(slowest, nbytes / level.bandwidth)
        return slowest

    def stream(self, nbytes: float) -> Generator:
        """Simulation process variant of :meth:`charge_stream`."""
        yield self.sim.timeout(self.charge_stream(nbytes))


class LRUCache:
    """A block-granular LRU cache with exact hit/miss accounting.

    Used for the pointer-chasing experiment (§5.4) and as the
    replacement engine of the buffer pool.  Keys are opaque block
    identifiers; all blocks are ``block_bytes`` large.
    """

    def __init__(self, capacity_blocks: int, name: str = "lru",
                 trace: Optional[Trace] = None):
        if capacity_blocks < 1:
            raise ValueError("capacity must be at least one block")
        self.capacity = capacity_blocks
        self.name = name
        self.trace = trace
        self._blocks: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, key) -> bool:
        return key in self._blocks

    def access(self, key) -> bool:
        """Touch ``key``; returns True on hit, inserts on miss."""
        if key in self._blocks:
            self._blocks.move_to_end(key)
            self.hits += 1
            if self.trace is not None:
                self.trace.add(f"cache.{self.name}.hits", 1)
            return True
        self.misses += 1
        if self.trace is not None:
            self.trace.add(f"cache.{self.name}.misses", 1)
        self._blocks[key] = True
        if len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)
            self.evictions += 1
        return False

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CPUSocket:
    """A socket: cores + cache hierarchy + memory controllers.

    The controller:core ratio defaults to the oversubscription the
    paper describes (many more cores than controllers).
    """

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 cores: int = 8, controllers: int = 2,
                 ghz: float = 3.0,
                 controller_bandwidth: float = 20.0 * GIB,
                 single_stream_fraction: float = 0.8):
        self.sim = sim
        self.trace = trace
        self.name = name
        self.cores = [
            Device(sim, trace, f"{name}.core{i}",
                   rates=default_core_rates(ghz), startup=0.0, slots=1)
            for i in range(cores)
        ]
        self.controllers = [
            MemoryController(sim, trace, f"{name}.mc{i}",
                             bandwidth=controller_bandwidth,
                             single_stream_fraction=single_stream_fraction)
            for i in range(controllers)
        ]
        self.caches = CacheHierarchy(sim, trace, name)

    def controller_for(self, stream_id: int) -> MemoryController:
        """Static round-robin assignment of streams to controllers."""
        return self.controllers[stream_id % len(self.controllers)]

    def core(self, index: int) -> Device:
        return self.cores[index % len(self.cores)]

    def memory_read(self, nbytes: float, stream_id: int = 0,
                    through_caches: bool = True) -> Generator:
        """Read from local DRAM into a core, crossing the caches."""
        controller = self.controller_for(stream_id)
        yield from controller.access(nbytes)
        if through_caches:
            yield from self.caches.stream(nbytes)

    def aggregate_bandwidth(self) -> float:
        """Peak DRAM bandwidth of the socket (all controllers)."""
        return sum(c.bandwidth for c in self.controllers)


class Server:
    """A multi-socket server: the NUMA reality of §5.1.

    "If the data requested ... is not stored in the local DRAM but on
    a memory attached to a neighbor CPU socket, there are additional
    penalties for higher access latency.  The phenomenon, called
    Non-Uniform Memory Access (NUMA), is unavoidable in servers that
    use two or more CPU sockets — anecdotally, the large majority of
    servers available in the cloud."

    A remote read crosses the inter-socket interconnect (a shared,
    bandwidth-limited resource) *and* the remote socket's controller,
    so remote bandwidth is lower and remote accesses contend with the
    remote socket's own traffic.
    """

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 sockets: int = 2, cores_per_socket: int = 8,
                 controllers_per_socket: int = 2,
                 interconnect_bandwidth: float = 30.0 * GIB,
                 interconnect_latency: float = 120e-9,
                 **socket_kwargs):
        if sockets < 1:
            raise ValueError("a server needs at least one socket")
        self.sim = sim
        self.trace = trace
        self.name = name
        self.sockets = [
            CPUSocket(sim, trace, f"{name}.s{i}",
                      cores=cores_per_socket,
                      controllers=controllers_per_socket,
                      **socket_kwargs)
            for i in range(sockets)
        ]
        self.interconnect_bandwidth = interconnect_bandwidth
        self.interconnect_latency = interconnect_latency
        self._xsocket = Resource(sim, capacity=1,
                                 name=f"{name}.xsocket")

    def memory_read(self, nbytes: float, socket: int,
                    home_socket: int, stream_id: int = 0,
                    chunk_bytes: int = 1 << 20) -> Generator:
        """Read memory homed at ``home_socket`` from ``socket``.

        Local reads behave like :meth:`CPUSocket.memory_read`; remote
        reads additionally serialize chunks over the inter-socket
        interconnect (paying latency per chunk — the NUMA penalty).
        """
        home = self.sockets[home_socket % len(self.sockets)]
        if socket % len(self.sockets) == home_socket % len(self.sockets):
            yield from home.memory_read(nbytes, stream_id=stream_id)
            return
        remaining = float(nbytes)
        while remaining > 0:
            piece = min(chunk_bytes, remaining)
            yield from home.controller_for(stream_id).access(piece)
            if not self._xsocket.try_acquire():
                yield self._xsocket.request()
            try:
                yield self.sim.timeout(
                    self.interconnect_latency
                    + piece / self.interconnect_bandwidth)
            finally:
                self._xsocket.release()
            remaining -= piece
        self.trace.add(f"numa.{self.name}.remote_bytes", nbytes)
        self.trace.add("movement.xsocket.bytes", nbytes)
        # The reader's own cache hierarchy still sees the stream.
        reader = self.sockets[socket % len(self.sockets)]
        yield from reader.caches.stream(nbytes)
