"""Storage media and computational storage (§3).

:class:`StorageMedium` models the passive device: bandwidth plus a
per-request access latency (the translation layer of an SSD).  :class:`ComputationalStorage` couples a medium with a small
computational unit (CU) that can run *streaming, mostly stateless*
operators — selection, projection, regex, hashing, pre-aggregation —
as the data leaves the device (§3.3).  The CU is deliberately slower
than a server-class core for general work but competitive for the
streaming kinds, which is exactly the trade-off the paper's "which
operators make sense to push down" question (reproduced in bench C7)
explores.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..sim import EventKind, Resource, Simulator, Trace
from .device import GIB, Device, OpKind

__all__ = ["StorageMedium", "ComputationalStorage", "storage_cu_rates"]


def storage_cu_rates(scale: float = 1.0) -> dict[str, float]:
    """Rates for an embedded storage computational unit.

    Streaming kinds run near line rate (the CU sits on the data path);
    regex is *faster* than a CPU core (dedicated automaton, per the
    AQUA example); stateful kinds (sort, join) are absent — the CU is
    stateless by design (§3.3).
    """
    return {
        OpKind.FILTER: 4.0 * GIB * scale,
        OpKind.REGEX: 3.0 * GIB * scale,
        OpKind.PROJECT: 4.0 * GIB * scale,
        OpKind.HASH: 3.0 * GIB * scale,
        OpKind.PARTITION: 3.0 * GIB * scale,
        OpKind.AGGREGATE: 2.0 * GIB * scale,   # pre-aggregation only
        OpKind.SORT: 1.0 * GIB * scale,        # bounded run generation
        OpKind.COUNT: 8.0 * GIB * scale,
        OpKind.COMPRESS: 2.5 * GIB * scale,
        OpKind.DECOMPRESS: 4.0 * GIB * scale,
        OpKind.ENCRYPT: 3.0 * GIB * scale,
        OpKind.DECRYPT: 3.0 * GIB * scale,
        OpKind.SERIALIZE: 4.0 * GIB * scale,
        OpKind.DESERIALIZE: 4.0 * GIB * scale,
    }


class StorageMedium:
    """A passive storage device: bandwidth + per-request latency."""

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 read_bandwidth: float):
        self.sim = sim
        self.trace = trace
        self.name = name
        self.read_bandwidth = read_bandwidth
        self.access_latency = 80e-6
        self._channel = Resource(sim, capacity=8, name=f"{name}.chan")

    @classmethod
    def nvme_ssd(cls, sim: Simulator, trace: Trace, name: str,
                 gib_per_s: float = 3.0) -> "StorageMedium":
        """A modern Flash SSD (§2.1): 80 us per request, eight in
        flight."""
        return cls(sim, trace, name, read_bandwidth=gib_per_s * GIB)

    def read_time(self, nbytes: float) -> float:
        """Predicted uncontended read time."""
        return self.access_latency + nbytes / self.read_bandwidth

    def scale_bandwidth(self, factor: float) -> None:
        """What-if perturbation hook: multiply the read bandwidth.

        ``factor=1.0`` is an exact no-op (what-if baseline
        verification relies on this).
        """
        if factor <= 0:
            raise ValueError(
                f"medium {self.name}: bandwidth factor must be positive")
        self.read_bandwidth *= factor

    def scale_latency(self, factor: float) -> None:
        """What-if perturbation hook: multiply the access latency."""
        if factor < 0:
            raise ValueError(
                f"medium {self.name}: latency factor must be >= 0")
        self.access_latency *= factor

    def read(self, nbytes: float) -> Generator:
        """Read ``nbytes`` off the medium (simulation process)."""
        issued = self.sim.now
        self.trace.emit(issued, EventKind.DMA_ISSUE,
                        f"storage.{self.name}", label="read",
                        nbytes=nbytes)
        if not self._channel.try_acquire():
            yield self._channel.request()
        span = self.trace.open_span(f"storage.{self.name}",
                                    self.sim.now)
        try:
            yield self.sim.timeout(self.read_time(nbytes))
        finally:
            self.trace.close_span(span, self.sim.now)
            self._channel.release()
        self.trace.tick(self.sim.now)
        self.trace.emit(issued, EventKind.DMA_COMPLETE,
                        f"storage.{self.name}", label="read",
                        nbytes=nbytes, dur=self.sim.now - issued)
        self.trace.add("movement.storage.bytes", nbytes)


class ComputationalStorage:
    """A storage medium with an embedded computational unit (§3.3).

    The CU is shared by all tenants of the storage layer, so its
    ``slots`` and rates cap how much processing can be pushed down —
    the multi-tenancy constraint the paper raises.
    """

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 medium: Optional[StorageMedium] = None,
                 cu_scale: float = 1.0):
        self.sim = sim
        self.trace = trace
        self.name = name
        self.medium = medium if medium is not None else StorageMedium.nvme_ssd(
            sim, trace, f"{name}.media")
        self.cu = Device(sim, trace, f"{name}.cu",
                         rates=storage_cu_rates(cu_scale),
                         startup=2e-6, slots=2,
                         programmable=True)
