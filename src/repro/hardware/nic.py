"""NICs and SmartNICs (§4).

A plain :class:`NIC` moves bytes between the host and the wire
without touching them.  A :class:`SmartNIC` adds an on-NIC processor
that can operate on the stream as it flows — the bump-in-the-wire
accelerator of §4.3 — supporting hashing, partitioning, filtering,
(pre-)aggregation, COUNT, and the collective operations
(scatter/gather) of §4.4.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator, Trace
from .device import Device, OpKind

__all__ = ["NIC", "SmartNIC", "smartnic_rates"]


def smartnic_rates(line_rate: float) -> dict[str, float]:
    """Processing rates for a SmartNIC pipeline.

    Streaming kinds run at wire speed (the point of a bump-in-the-wire
    design); slightly-stateful kinds (pre-aggregation, partitioning)
    run a bit below it; heavyweight state (sort, full join build) is
    unsupported.
    """
    return {
        OpKind.FILTER: line_rate,
        OpKind.PROJECT: line_rate,
        OpKind.HASH: line_rate,
        OpKind.PARTITION: 0.8 * line_rate,
        OpKind.AGGREGATE: 0.6 * line_rate,
        OpKind.COUNT: 2.0 * line_rate,
        OpKind.COMPRESS: 0.5 * line_rate,
        OpKind.DECOMPRESS: line_rate,
        OpKind.ENCRYPT: line_rate,       # inline crypto engines
        OpKind.DECRYPT: line_rate,
        OpKind.SERIALIZE: line_rate,
        OpKind.DESERIALIZE: line_rate,
    }


class NIC:
    """A conventional NIC: no stream processing."""

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 gbits: float = 100.0):
        self.sim = sim
        self.trace = trace
        self.name = name
        self.line_rate = gbits / 8.0 * 1e9
        self.processor: Optional[Device] = None

    def scale_line_rate(self, factor: float) -> None:
        """What-if perturbation hook: multiply the line rate.

        ``factor=1.0`` is an exact no-op (baseline bit-identity).
        Does not touch the on-NIC processor; use
        ``processor.scale_speed`` for that.
        """
        if factor <= 0:
            raise ValueError(
                f"nic {self.name}: line-rate factor must be positive")
        self.line_rate *= factor


class SmartNIC(NIC):
    """A NIC with a bump-in-the-wire stream processor (§4.3)."""

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 gbits: float = 100.0):
        super().__init__(sim, trace, name, gbits=gbits)
        self.processor = Device(sim, trace, f"{name}.proc",
                                rates=smartnic_rates(self.line_rate),
                                startup=1e-6, slots=2, programmable=True)
