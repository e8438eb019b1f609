"""E3 (extension) — compressed data in memory, decompressed on demand
(§5.4).

The paper: "it would be interesting if the possibility existed of
keeping data in memory compressed and having the accelerator
decompress on demand. Such a set of functional units would allow the
rest of the pipeline (the cores, aided by the caches) to see only
filtered and uncompressed data."

Three residency/processing configurations over the same (really
zlib-compressed) table:

* raw in DRAM, CPU filters — maximal DRAM footprint, full-table
  memory traffic;
* compressed in DRAM, CPU decompresses+filters — smaller footprint,
  but the cores burn time on decompression and every raw byte still
  crosses the cache bus to them;
* compressed in DRAM, near-memory unit decompresses+filters — same
  small footprint, and only surviving rows cross toward the caches.
"""

from ..hardware import OpKind, build_fabric, dataflow_spec, memory_read
from ..relational import col, compress_chunk, make_uniform_table
from . import above, at_least, below, exactly

ROWS = 300_000
DISTINCT = 40          # low-cardinality columns compress well
SELECTIVITY_CUTOFF = 2  # k0 < 2 -> ~5% of rows


def make_payload():
    table = make_uniform_table(ROWS, columns=4, distinct=DISTINCT,
                               chunk_rows=ROWS)
    chunk = table.chunks[0]
    compressed = compress_chunk(chunk)
    predicate = col("k0") < SELECTIVITY_CUTOFF
    survivors = chunk.filter(predicate.evaluate(chunk))
    return chunk, compressed, survivors


def run_config(config: str) -> dict:
    chunk, compressed, survivors = make_payload()
    fabric = build_fabric(dataflow_spec())
    cpu = fabric.site_device("compute0.cpu")
    accel = fabric.site_device("compute0.nearmem")
    raw, packed, kept = (float(chunk.nbytes),
                         float(compressed.nbytes),
                         float(survivors.nbytes))

    def raw_cpu():
        yield from memory_read(fabric, "compute0.dram", "compute0.cpu", raw)
        yield from cpu.execute(OpKind.FILTER, raw)

    def compressed_cpu():
        yield from memory_read(fabric, "compute0.dram", "compute0.cpu",
                               packed)
        yield from cpu.execute(OpKind.DECOMPRESS, packed)
        # The decompressed stream then crosses the caches to the CPU.
        yield from fabric.transfer("compute0.llc", "compute0.cpu", raw)
        yield from cpu.execute(OpKind.FILTER, raw)

    def compressed_nearmem():
        yield from accel.execute(OpKind.DECOMPRESS, packed)
        yield from accel.execute(OpKind.FILTER, raw)
        # Only survivors move toward the caches and the CPU.
        yield from memory_read(fabric, "compute0.nearmem", "compute0.cpu",
                               kept)

    runner = {"raw+cpu": raw_cpu,
              "compressed+cpu": compressed_cpu,
              "compressed+nearmem": compressed_nearmem}[config]
    fabric.sim.run_process(runner())
    return {
        "config": config,
        "dram_resident": packed if config.startswith("compressed")
        else raw,
        "membus_bytes": fabric.trace.counter("movement.membus.bytes"),
        "cache_bytes": fabric.trace.counter("movement.cache.bytes"),
        "elapsed": fabric.sim.now,
        "compression_ratio": compressed.ratio,
    }


def run() -> list[dict]:
    return [run_config(c) for c in
            ("raw+cpu", "compressed+cpu", "compressed+nearmem")]


def _share(rows, key, config, reference):
    """Row ``config``'s ``key`` over row ``reference``'s (0: raw+cpu,
    1: compressed+cpu, 2: compressed+nearmem)."""
    return rows[config][key] / rows[reference][key]


CHECKS = {
    "data_compresses_over_2x":
        lambda rows: above(rows[0]["compression_ratio"], 2),
    # Residency shrinks by the (real) compression ratio.
    "compression_halves_residency":
        lambda rows: below(_share(rows, "dram_resident", 1, 0), 0.5),
    "near_memory_keeps_the_small_footprint": lambda rows: exactly(
        rows[2]["dram_resident"], rows[1]["dram_resident"]),
    # CPU decompression still floods the caches with raw bytes.
    "cpu_decompression_floods_the_caches":
        lambda rows: at_least(_share(rows, "cache_bytes", 1, 0), 1),
    # The near-memory unit sends only survivors upward.
    "near_memory_membus_under_10pct":
        lambda rows: below(_share(rows, "membus_bytes", 2, 0), 0.1),
    "near_memory_cache_under_10pct":
        lambda rows: below(_share(rows, "cache_bytes", 2, 1), 0.1),
    "near_memory_beats_cpu_decompression":
        lambda rows: below(_share(rows, "elapsed", 2, 1), 1),
}
