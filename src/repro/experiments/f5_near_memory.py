"""F5 — processing near memory (Figure 5, §5.2–§5.4).

Three of the paper's proposed near-memory functional units, each
compared against the CPU doing the same work over the memory bus:

* **filter + decompress**: the accelerator filters (and decompresses)
  on the memory->cache path so the cores "see only filtered and
  uncompressed data";
* **pointer chasing**: a traversal unit walks a hierarchical block
  structure inside the memory system and sends only the leaf up;
* **list maintenance**: GC-style free-list cleanup runs entirely near
  memory.
"""

import numpy as np

from ..hardware import (
    FreeList,
    HierarchicalBlockStore,
    LRUCache,
    OpKind,
    build_fabric,
    chase_near_memory,
    chase_on_cpu,
    dataflow_spec,
    gc_near_memory,
    gc_on_cpu,
    memory_read,
)
from ..hardware.functional_units import BLOCK_BYTES
from . import above, below, exactly

FILTER_BYTES = 64 << 20
"""Bytes the filter scenario reads out of DRAM."""
LOOKUPS = 200
"""Probes per pointer-chasing run."""
GC_NODES = 200_000
"""Free-list length the GC scenario cleans."""


def env():
    """A Figure 6 fabric and its compute node (CPU + near memory)."""
    fabric = build_fabric(dataflow_spec())
    return fabric, fabric.compute[0]


# ---------------------------------------------------------------------------
# Filter on the memory -> cache path
# ---------------------------------------------------------------------------

def run_filter(selectivity: float, on_accel: bool) -> dict:
    fabric, node = env()
    kept = FILTER_BYTES * selectivity

    def cpu_side():
        # Everything crosses the memory bus and caches, then the CPU
        # filters in software.
        yield from memory_read(fabric, "compute0.dram", "compute0.cpu",
                               FILTER_BYTES)
        yield from node.cpu.execute(OpKind.FILTER, FILTER_BYTES)

    def accel_side():
        # The accelerator filters at memory bandwidth; only survivors
        # cross toward the caches/CPU.
        yield from node.accelerator.execute(OpKind.FILTER, FILTER_BYTES)
        yield from memory_read(fabric, "compute0.nearmem", "compute0.cpu",
                               kept)

    fabric.sim.run_process(accel_side() if on_accel else cpu_side())
    return {
        "selectivity": selectivity,
        "site": "near-memory" if on_accel else "cpu",
        "membus_bytes": fabric.trace.counter("movement.membus.bytes"),
        "cache_bytes": fabric.trace.counter("movement.cache.bytes"),
        "elapsed": fabric.sim.now,
    }


# ---------------------------------------------------------------------------
# Pointer chasing
# ---------------------------------------------------------------------------

def run_chase(n_keys: int, cached: bool = False) -> dict:
    keys = list(range(0, n_keys * 2, 2))
    store = HierarchicalBlockStore(keys)
    rng = np.random.default_rng(42)
    probes = rng.integers(0, n_keys * 2, size=LOOKUPS).tolist()

    fabric, node = env()
    cache = LRUCache(256 * BLOCK_BYTES) if cached else None

    def cpu_run():
        for key in probes:
            yield from chase_on_cpu(store, key, fabric, node, cache=cache)

    fabric.sim.run_process(cpu_run())
    cpu = {"membus": fabric.trace.counter("movement.membus.bytes"),
           "elapsed": fabric.sim.now}

    fabric2, node2 = env()

    def nm_run():
        for key in probes:
            yield from chase_near_memory(store, key, fabric2, node2)

    fabric2.sim.run_process(nm_run())
    near = {"membus": fabric2.trace.counter("movement.membus.bytes"),
            "elapsed": fabric2.sim.now}
    return {
        "keys": n_keys,
        "height": store.height,
        "llc_cached": cached,
        "cpu_membus": cpu["membus"],
        "nm_membus": near["membus"],
        "cpu_elapsed": cpu["elapsed"],
        "nm_elapsed": near["elapsed"],
    }


# ---------------------------------------------------------------------------
# List maintenance (GC)
# ---------------------------------------------------------------------------

def run_gc() -> dict:
    dead = set(range(0, GC_NODES, 10))

    fabric, node = env()
    removed_cpu = fabric.sim.run_process(
        gc_on_cpu(FreeList(list(range(GC_NODES))), set(dead), fabric, node))

    fabric2, node2 = env()
    removed_nm = fabric2.sim.run_process(
        gc_near_memory(FreeList(list(range(GC_NODES))), set(dead),
                       node2.accelerator))
    assert removed_cpu == removed_nm
    return {
        "scenario": "gc",
        "nodes": GC_NODES,
        "cpu_membus": fabric.trace.counter("movement.membus.bytes"),
        "nm_membus": fabric2.trace.counter("movement.membus.bytes"),
        "cpu_elapsed": fabric.sim.now,
        "nm_elapsed": fabric2.sim.now,
    }


def run():
    filters = [run_filter(s, on) for s in (1.0, 0.1, 0.01)
               for on in (False, True)]
    chases = [run_chase(n) for n in (10_000, 1_000_000)]
    chases.append(run_chase(1_000_000, cached=True))
    gc = run_gc()
    return filters, chases, gc


def _filter(rows, sel, site):
    return next(r["membus_bytes"] for r in rows[0]
                if r["selectivity"] == sel and r["site"] == site)


def _chase(rows, cached):
    return next(r for r in rows[1] if r["keys"] == 1_000_000
                and r["llc_cached"] == cached)


CHECKS = {
    # Filter: near-memory movement scales with selectivity; CPU's not.
    "near_memory_filter_cuts_membus_50x": lambda rows: above(
        _filter(rows, 0.01, "cpu") / _filter(rows, 0.01, "near-memory"), 50),
    "cpu_filter_moves_everything": lambda rows: exactly(
        _filter(rows, 0.01, "cpu"), _filter(rows, 1.0, "cpu")),
    # Chase: near-memory moves one block per lookup, the CPU one per level.
    "near_memory_chase_moves_one_block_per_lookup": lambda rows: above(
        _chase(rows, False)["cpu_membus"] / _chase(rows, False)["nm_membus"],
        _chase(rows, False)["height"] - 1),
    # A warm LLC narrows (but here does not erase) the CPU's gap.
    "warm_llc_narrows_the_cpu_gap": lambda rows: below(
        _chase(rows, True)["cpu_membus"] / _chase(rows, False)["cpu_membus"],
        1),
    "near_memory_gc_moves_nothing":
        lambda rows: exactly(rows[2]["nm_membus"], 0),
}
