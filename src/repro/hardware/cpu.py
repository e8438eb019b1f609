"""The host CPU's software rates, and a block-granular LRU cache.

A fabric's CPU site (``compute<i>.cpu``) is one
:class:`~repro.hardware.device.Device` with a slot per core, running
at :func:`default_core_rates` — the *software* implementations of the
operator kinds that accelerator offloads are compared against.  The
§5.1 memory controller is the fabric's memory bus, read through
:func:`repro.hardware.memory.memory_read`.

:class:`LRUCache` is the replacement engine of the buffer pool and the
LLC of the pointer-chasing experiment (§5.4).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..sim import Trace
from .device import GIB, OpKind

__all__ = ["LRUCache", "default_core_rates"]


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
