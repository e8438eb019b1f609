"""Links, interconnect protocols, and coherence domains.

A :class:`Link` is a bandwidth/latency pipe between two fabric nodes.
Transfers serialize on the link's ports, so contention emerges
naturally when several flows share a segment — the effect the paper's
scheduling section (§7.3) is about.

Factories encode the protocol generations the paper discusses (§6):
PCIe 3 through 7 (doubling bandwidth per generation), CXL on top of
PCIe 5/6, RDMA-over-Ethernet at 100–800 Gb/s, and the on-chip
memory/cache buses of Figure 1.

:class:`CoherenceDomain` models §6.2's key contrast: with *software*
coherence (PCIe/RDMA era) a writer must ship explicit invalidation
RPCs to every sharer, and sharers re-fetch whole regions; with
*hardware* coherence (CXL ``cxl.cache``) only 64-byte cache-line
invalidations travel, with no CPU involvement on either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..sim import EventKind, Resource, Simulator, Trace
from .device import GIB, Device

__all__ = [
    "Link",
    "CoherenceDomain",
    "pcie_link",
    "cxl_link",
    "ethernet_link",
    "rdma_link",
    "memory_bus",
    "cache_bus",
    "PCIE_LANE_GBPS",
]

# Usable per-lane throughput in GB/s per PCIe generation (x1), after
# encoding overhead.  Doubles per generation, as §6.2 highlights.
PCIE_LANE_GBPS = {3: 0.985, 4: 1.969, 5: 3.938, 6: 7.877, 7: 15.754}

CACHE_LINE = 64
"""Bytes per cache line, used by coherence traffic accounting."""


@dataclass
class Link:
    """A point-to-point pipe with bandwidth, latency, and port contention.

    ``segment`` classifies the link for movement accounting
    (``network``, ``pcie``, ``cxl``, ``membus``, ``cache``)
    so experiments can report "bytes moved over the network" as one
    number regardless of topology.
    """

    sim: Simulator
    trace: Trace
    name: str
    bandwidth: float           # bytes / second
    latency: float             # seconds, propagation + protocol
    segment: str = "network"
    ports: int = 1             # concurrent transfers before queuing

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"link {self.name}: bandwidth must be positive")
        self._ports = Resource(self.sim, capacity=self.ports,
                               name=f"{self.name}.ports")
        # Hot-path trace keys (transfer() runs per chunk); the counter
        # handle is bound at first use (:meth:`segment_handle`).
        self._span_name = f"link.{self.name}"
        self._segment_bytes = None

    def segment_handle(self):
        """The ``movement.<segment>.bytes`` handle, bound on first call.

        Per-link bytes and chunks are the movement ledger's, summed by
        :meth:`~repro.sim.trace.Trace.link_report`.
        """
        if self._segment_bytes is None:
            self._segment_bytes = self.trace.counter_handle(
                f"movement.{self.segment}.bytes")
        return self._segment_bytes

    def transfer_time(self, nbytes: float) -> float:
        """Predicted uncontended time for a transfer of ``nbytes``."""
        return self.latency + nbytes / self.bandwidth

    def scale_bandwidth(self, factor: float) -> None:
        """What-if perturbation hook: multiply bandwidth by ``factor``.

        ``factor=1.0`` is an exact no-op, so the what-if engine's
        perturbed baseline reproduces the unperturbed run bit for bit.
        """
        if factor <= 0:
            raise ValueError(
                f"link {self.name}: bandwidth factor must be positive")
        self.bandwidth *= factor

    def scale_latency(self, factor: float) -> None:
        """What-if perturbation hook: multiply latency by ``factor``."""
        if factor < 0:
            raise ValueError(
                f"link {self.name}: latency factor must be >= 0")
        self.latency *= factor

    def transfer(self, nbytes: float, flow: str = "",
                 direction: str = "") -> Generator:
        """Move ``nbytes`` across the link (a simulation sub-process).

        ``flow`` attributes the bytes to an operator/flow in the
        movement ledger; ``direction`` records which way they went
        (``src->dst`` location pair).
        """
        issued = self.sim.now
        self.trace.emit(issued, EventKind.DMA_ISSUE, self.name,
                        label=flow, nbytes=nbytes)
        if not self._ports.try_acquire():
            yield self._ports.request()
        # A busy span per occupancy window: the raw material the
        # critical-path walker attributes link time from.
        span = self.trace.open_span(self._span_name, self.sim.now)
        try:
            yield self.sim.timeout(self.transfer_time(nbytes))
        finally:
            self.trace.close_span(span, self.sim.now)
            self._ports.release()
        self.trace.tick(self.sim.now)
        self.trace.emit(issued, EventKind.DMA_COMPLETE, self.name,
                        label=flow, nbytes=nbytes,
                        dur=self.sim.now - issued)
        (self._segment_bytes or self.segment_handle()).add(nbytes)
        self.trace.record_movement(self.name, flow or "unattributed",
                                   direction, nbytes)

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of time at least one port was busy."""
        return self._ports.utilization(elapsed)

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.bandwidth / GIB:.1f} GiB/s>"


# ---------------------------------------------------------------------------
# Protocol factories
# ---------------------------------------------------------------------------

def pcie_link(sim: Simulator, trace: Trace, name: str,
              generation: int = 5) -> Link:
    """An x16 PCIe link of the given generation (§6.1–6.2)."""
    if generation not in PCIE_LANE_GBPS:
        raise ValueError(f"unknown PCIe generation {generation}")
    bandwidth = PCIE_LANE_GBPS[generation] * 16 * GIB
    return Link(sim, trace, name, bandwidth=bandwidth, latency=500e-9,
                segment="pcie", ports=2)


def cxl_link(sim: Simulator, trace: Trace, name: str) -> Link:
    """An x16 CXL link — PCIe 5 electricals, lower protocol latency
    (§6.2)."""
    bandwidth = PCIE_LANE_GBPS[5] * 16 * GIB
    return Link(sim, trace, name, bandwidth=bandwidth, latency=250e-9,
                segment="cxl", ports=2)


def ethernet_link(sim: Simulator, trace: Trace, name: str,
                  gbits: float) -> Link:
    """A datacenter Ethernet link; 100–1600 Gb/s NICs per §2.2."""
    return Link(sim, trace, name, bandwidth=gbits / 8.0 * 1e9,
                latency=10e-6, segment="network", ports=2)


def rdma_link(sim: Simulator, trace: Trace, name: str,
              gbits: float) -> Link:
    """An RDMA (RoCE-style) link: Ethernet speeds, much lower latency."""
    return Link(sim, trace, name, bandwidth=gbits / 8.0 * 1e9,
                latency=2e-6, segment="network", ports=2)


def memory_bus(sim: Simulator, trace: Trace, name: str,
               gib_per_s: float, ports: int) -> Link:
    """One DDR channel's worth of DRAM bandwidth (§5.1)."""
    return Link(sim, trace, name, bandwidth=gib_per_s * GIB,
                latency=90e-9, segment="membus", ports=ports)


def cache_bus(sim: Simulator, trace: Trace, name: str) -> Link:
    """On-chip path between cache levels / cores (Figure 1): 200 GiB/s
    on each of four ports."""
    return Link(sim, trace, name, bandwidth=200.0 * GIB,
                latency=5e-9, segment="cache", ports=4)


# ---------------------------------------------------------------------------
# Coherence
# ---------------------------------------------------------------------------

@dataclass
class CoherenceDomain:
    """A set of agents sharing memory, with HW or SW coherence (§6.2).

    ``mode='hardware'`` models CXL ``cxl.cache``: a write invalidates
    remote copies with one cache-line-sized message per sharer per
    touched line, sent by the fabric with no CPU involvement.

    ``mode='software'`` models the PCIe/RDMA status quo: the writing
    side's CPU sends an invalidation RPC to every sharer (CPU work on
    both ends), and each sharer must re-read the whole region before
    its next access.
    """

    sim: Simulator
    trace: Trace
    name: str
    link: Link
    mode: str = "hardware"
    rpc_bytes: int = 256            # software invalidation message size
    snoop_bytes: int = 8            # hardware per-line snoop header
    cpu: Optional[Device] = None    # required for software mode
    sharer_cpus: dict[str, Device] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in ("hardware", "software"):
            raise ValueError(f"unknown coherence mode {self.mode!r}")
        if self.mode == "software" and self.cpu is None:
            raise ValueError("software coherence requires a host CPU device")

    def add_sharer(self, name: str, cpu: Optional[Device] = None) -> None:
        """Register an agent caching this region."""
        self.sharer_cpus[name] = cpu

    def write(self, nbytes: float, writer: str) -> Generator:
        """Perform a coherent write of ``nbytes`` and pay invalidations."""
        sharers = [s for s in self.sharer_cpus if s != writer]
        lines = max(1, int(nbytes) // CACHE_LINE)
        if self.mode == "hardware":
            # Fabric-generated line invalidations: a header-only snoop
            # per touched line per sharer; no data moves and no CPU is
            # involved on either side.
            invalidation_bytes = lines * self.snoop_bytes * len(sharers)
            if sharers:
                yield from self.link.transfer(
                    invalidation_bytes, flow=f"coherence.{self.name}")
        else:
            # Software coherence: RPC per sharer, CPU work both ends,
            # then each sharer re-fetches the whole region.
            from .device import OpKind
            for sharer in sharers:
                yield from self.cpu.execute(OpKind.GENERIC, self.rpc_bytes)
                yield from self.link.transfer(
                    self.rpc_bytes, flow=f"coherence.{self.name}")
                sharer_cpu = self.sharer_cpus.get(sharer)
                if sharer_cpu is not None:
                    yield from sharer_cpu.execute(
                        OpKind.GENERIC, self.rpc_bytes)
                yield from self.link.transfer(
                    nbytes, flow=f"coherence.{self.name}.refetch")
