"""Kernel-cache counters, kept for their one reader, ``perfbench/worker.py``.

It reports them as ``engine.codegen_compiled`` and
``engine.codegen_cache_hits``.  Every operator runs through its own
``run()``; no kernel is generated, so both counts are 0.
"""


def counters() -> dict[str, int]:
    """``compiles`` and ``memory_hits``: 0 and 0."""
    return {"compiles": 0, "memory_hits": 0}
