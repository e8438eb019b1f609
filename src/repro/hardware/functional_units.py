"""Near-memory functional units with real data behaviour (§5.4).

The paper asks *what functional units should a near-memory accelerator
carry* and proposes four: value/range filters with on-demand
decompression, a pointer-dereferencing unit for hierarchical
traversals, a data-transposition unit for HTAP format conversion, and
fast list primitives for memory-centric maintenance work.

This module implements the data structures those units operate on —
most importantly :class:`HierarchicalBlockStore`, a B-tree-like block
layout over sorted keys — and the two traversal strategies the paper
contrasts:

* :func:`chase_on_cpu`: every visited block crosses the node's
  memory bus and cache bus before the CPU can decide which block to
  fetch next (a round trip per level);
* :func:`chase_near_memory`: the traversal happens inside the
  memory system and only the matching leaf payload moves up.

Both return the same answer (they walk the same real tree); only the
movement differs — which is the claim bench F5 measures.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Optional, Sequence

from .device import Device, OpKind
from .memory import LRUCache, memory_read

if TYPE_CHECKING:
    from .presets import ComputeNode
    from .topology import Fabric

__all__ = [
    "Block",
    "HierarchicalBlockStore",
    "chase_on_cpu",
    "chase_near_memory",
    "FreeList",
    "gc_on_cpu",
    "gc_near_memory",
]

BLOCK_BYTES = 4096
"""Bytes per block of a :class:`HierarchicalBlockStore` (a page)."""
FANOUT = 16
"""Children per internal block."""
LEAF_CAPACITY = 64
"""Keys per leaf block."""
NODE_BYTES = 64
"""Bytes per :class:`FreeList` node (a cache line)."""


@dataclass
class Block:
    """One fixed-size block: either internal (routing) or leaf (data)."""

    block_id: int
    keys: list[int]
    children: list[int] = field(default_factory=list)  # internal only
    values: list[int] = field(default_factory=list)    # leaf only
    nbytes: int = BLOCK_BYTES
    min_key: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children


class HierarchicalBlockStore:
    """A static B-tree-like index over sorted integer keys.

    Built bottom-up, :data:`FANOUT` children per internal block and
    :data:`LEAF_CAPACITY` keys per leaf; blocks live in a flat
    dictionary addressed by block id, mimicking pages in memory.
    """

    def __init__(self, keys: Sequence[int]):
        sorted_keys = sorted(keys)
        if sorted_keys != list(keys):
            raise ValueError("keys must be sorted")
        if not sorted_keys:
            raise ValueError("store requires at least one key")
        self.blocks: dict[int, Block] = {}
        self._next_id = 0
        # Leaves: key -> value is identity*2+1 so tests can check payloads.
        level = []
        for start in range(0, len(sorted_keys), LEAF_CAPACITY):
            chunk = sorted_keys[start:start + LEAF_CAPACITY]
            leaf = self._new_block(keys=chunk,
                                   values=[k * 2 + 1 for k in chunk],
                                   min_key=chunk[0])
            level.append(leaf)
        # Internal levels, bottom-up.  A child's smallest reachable key
        # (min_key) supplies the separator, so single-key internal
        # blocks and deep trees route correctly.
        while len(level) > 1:
            parents = []
            for start in range(0, len(level), FANOUT):
                group = level[start:start + FANOUT]
                separators = [blk.min_key for blk in group[1:]]
                parent = self._new_block(
                    keys=separators,
                    children=[blk.block_id for blk in group],
                    min_key=group[0].min_key)
                parents.append(parent)
            level = parents
        self.root_id = level[0].block_id

    def _new_block(self, keys: list[int], children: list[int] = None,
                   values: list[int] = None, min_key: int = 0) -> Block:
        block = Block(self._next_id, keys, children or [], values or [],
                      min_key=min_key)
        self.blocks[self._next_id] = block
        self._next_id += 1
        return block

    @property
    def height(self) -> int:
        """Number of blocks on a root-to-leaf path."""
        depth, block = 1, self.blocks[self.root_id]
        while not block.is_leaf:
            block = self.blocks[block.children[0]]
            depth += 1
        return depth

    def traverse(self, key: int) -> list[Block]:
        """Root-to-leaf path of blocks visited for ``key``."""
        path = []
        block = self.blocks[self.root_id]
        while True:
            path.append(block)
            if block.is_leaf:
                return path
            index = bisect.bisect_right(block.keys, key)
            block = self.blocks[block.children[index]]

    def lookup(self, key: int) -> Optional[int]:
        """Pure lookup (no simulation): the stored value or None."""
        leaf = self.traverse(key)[-1]
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return None


def chase_on_cpu(store: HierarchicalBlockStore, key: int, fabric: Fabric,
                 node: ComputeNode, cache: Optional[LRUCache] = None
                 ) -> Generator:
    """Traverse on ``node``'s CPU: each block crosses membus + caches.

    An optional :class:`LRUCache` models the LLC holding hot upper
    levels; cached blocks skip the memory-bus crossing (but the CPU
    still inspects them).  Returns the lookup result.
    """
    for block in store.traverse(key):
        if cache is None or cache.get(block.block_id) is None:
            yield from memory_read(fabric, f"{node.name}.dram",
                                   node.cpu.name, block.nbytes)
            if cache is not None:
                cache.put(block.block_id, block, block.nbytes)
        yield from node.cpu.execute(OpKind.POINTER_CHASE, block.nbytes)
    return store.lookup(key)


def chase_near_memory(store: HierarchicalBlockStore, key: int,
                      fabric: Fabric, node: ComputeNode) -> Generator:
    """Traverse near memory: only the leaf moves toward the CPU (§5.4).

    ``node``'s accelerator walks every level (charged at its
    pointer-chase rate, internal to the memory system), then a single
    leaf block crosses the memory bus and caches to the CPU.  Returns
    the lookup result.
    """
    path = store.traverse(key)
    traversal_bytes = sum(block.nbytes for block in path)
    yield from node.accelerator.execute(OpKind.POINTER_CHASE,
                                        traversal_bytes)
    leaf = path[-1]
    yield from memory_read(fabric, node.accelerator.name, node.cpu.name,
                           leaf.nbytes)
    return store.lookup(key)


class FreeList:
    """A linked free-list, the target of §5.4's list-maintenance unit.

    Nodes are block ids; a garbage-collection pass walks the list and
    unlinks dead nodes.  Implemented for real so correctness of the
    offloaded version is checkable.
    """

    def __init__(self, node_ids: Sequence[int]):
        self.nodes = list(node_ids)

    def collect(self, dead: set[int]) -> int:
        """Unlink all nodes in ``dead``; returns how many were removed."""
        before = len(self.nodes)
        self.nodes = [n for n in self.nodes if n not in dead]
        return before - len(self.nodes)


def gc_on_cpu(free_list: FreeList, dead: set[int], fabric: Fabric,
              node: ComputeNode) -> Generator:
    """Garbage-collect on ``node``'s CPU: the whole list streams to it."""
    total = len(free_list.nodes) * NODE_BYTES
    yield from memory_read(fabric, f"{node.name}.dram", node.cpu.name,
                           total)
    yield from node.cpu.execute(OpKind.LIST_MAINTENANCE, total)
    return free_list.collect(dead)


def gc_near_memory(free_list: FreeList, dead: set[int],
                   accelerator: Device) -> Generator:
    """Garbage-collect near memory: nothing crosses toward the CPU."""
    total = len(free_list.nodes) * NODE_BYTES
    yield from accelerator.execute(OpKind.LIST_MAINTENANCE, total)
    return free_list.collect(dead)
