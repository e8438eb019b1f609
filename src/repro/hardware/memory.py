"""DRAM, near-memory accelerators, and disaggregated memory (§5).

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
"""

from __future__ import annotations

from typing import Optional

from ..sim import EventKind, Simulator, Trace
from .device import GIB, Device, OpKind
from .nic import NIC, SmartNIC

__all__ = ["DRAM", "NearMemoryAccelerator", "DisaggregatedMemoryNode",
           "nearmem_rates"]


def nearmem_rates(memory_bandwidth: float) -> dict[str, float]:
    """Rates of a near-memory accelerator.

    The unit sits on the controller, so streaming kinds run at full
    memory bandwidth — faster than any single core can stream (§5.2).
    Pointer chasing is its headline capability: traversals happen
    without round trips to the CPU (§5.4).
    """
    return {
        OpKind.FILTER: memory_bandwidth,
        OpKind.PROJECT: memory_bandwidth,
        OpKind.DECOMPRESS: 0.8 * memory_bandwidth,
        OpKind.COMPRESS: 0.5 * memory_bandwidth,
        OpKind.TRANSPOSE: 0.7 * memory_bandwidth,
        OpKind.POINTER_CHASE: 0.5 * memory_bandwidth,
        OpKind.LIST_MAINTENANCE: 0.6 * memory_bandwidth,
        OpKind.AGGREGATE: 0.5 * memory_bandwidth,
        OpKind.HASH: 0.6 * memory_bandwidth,
        OpKind.COUNT: memory_bandwidth,
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
        self.trace.add(f"dram.{self.name}.allocs", 1)
        self.trace.add(f"dram.{self.name}.allocated", nbytes)
        self.trace.sample(f"dram.{self.name}.used", self.sim.now, self.used)

    def free(self, nbytes: int) -> None:
        """Release ``nbytes`` previously allocated."""
        if nbytes > self.used:
            raise MemoryError(f"DRAM {self.name}: freeing more than used")
        self.used -= nbytes
        self.trace.emit(self.sim.now, EventKind.MEM_FREE,
                        f"dram.{self.name}", nbytes=nbytes)
        self.trace.add(f"dram.{self.name}.frees", 1)
        self.trace.sample(f"dram.{self.name}.used", self.sim.now, self.used)


class NearMemoryAccelerator(Device):
    """An accelerator on the memory controller's data path (§5.2)."""

    def __init__(self, sim: Simulator, trace: Trace, name: str,
                 memory_bandwidth: float = 40.0 * GIB, slots: int = 2):
        super().__init__(sim, trace, name,
                         rates=nearmem_rates(memory_bandwidth),
                         startup=0.5e-6, slots=slots, programmable=True)
        self.memory_bandwidth = memory_bandwidth


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
