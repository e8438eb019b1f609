"""The buffer pool — the "main memory addiction" of §7.4.

Conventional engines keep as much data as possible in compute-node
DRAM.  :class:`BufferPool` models that faithfully: table chunks are
cached in the compute node's DRAM under LRU replacement, each at its
own size; hits cost a local memory-bus crossing, misses pay the full
remote path (storage read + network + PCIe) and evict under pressure.
The DRAM footprint it pins is exactly what the data-flow engine does
*not* need — the comparison bench C5 draws.
"""

from __future__ import annotations

from typing import Generator

from ..hardware.memory import LRUCache
from ..hardware.presets import HeterogeneousFabric

__all__ = ["BufferPool"]


class BufferPool:
    """An LRU chunk cache in the result node's DRAM."""

    def __init__(self, fabric: HeterogeneousFabric, capacity_bytes: int):
        self.fabric = fabric
        self.dram = fabric.compute[0].dram
        self.lru = LRUCache(capacity_bytes, name="bufferpool0",
                            trace=fabric.trace)
        self.peak_bytes = 0

    def fetch(self, table: str, index: int, nbytes: int) -> Generator:
        """Bring chunk ``index`` of ``table`` to DRAM; True on a hit.

        A hit charges nothing extra (the chunk is already in DRAM); a
        miss reads storage, crosses the network and host interconnect
        into DRAM, and evicts least-recently-used chunks to make room.
        """
        key = f"{table}[{index}]"
        if self.lru.get(key) is not None:
            return True
        if nbytes > self.lru.capacity_bytes:
            raise ValueError(f"chunk {key} ({nbytes} B) is larger than "
                             f"the pool ({self.lru.capacity_bytes} B)")
        yield from self.fabric.storage.medium.read(nbytes)
        yield from self.fabric.transfer(
            self.fabric.storage_location,
            "compute0.dram", nbytes, flow="bufferpool0")
        for _victim, victim_bytes in self.lru.put(key, nbytes, nbytes):
            self.dram.free(victim_bytes)
        self.dram.allocate(nbytes)
        self.peak_bytes = max(self.peak_bytes, self.lru.used_bytes)
        return False
