"""C6 — "No more data caches" (§7.5).

The paper: cloud engines stack caching layers (SSD/DRAM) over slow
object storage because the CPU-centric model must haul every byte up
before deciding whether it is needed.  The active-pipeline
alternative filters where the data lives, so caching *base tables*
buys little and costs the most expensive resource (DRAM).  Caching
*results* still makes sense.

Workload: a repeated stream of selective queries (80% repeats of a
small query set).  Configurations:

* baseline: CPU-placed pipeline + DRAM base-table cache (hits skip
  the network, like a warm caching layer);
* active pipeline: pushdown placement, no cache;
* active pipeline + result cache.
"""

import numpy as np

from .. import (
    Catalog,
    DataflowEngine,
    LRUCache,
    Query,
    build_fabric,
    col,
    cpu_only,
    dataflow_spec,
    make_uniform_table,
    pushdown,
)
from ..engine import plan_fingerprint
from . import above, below, exactly

ROWS = 60_000
CHUNK = 4_096
N_QUERIES = 20
DISTINCT_QUERIES = 4


def workload():
    rng = np.random.default_rng(3)
    cuts = [5, 10, 15, 20][:DISTINCT_QUERIES]
    picks = rng.integers(0, DISTINCT_QUERIES, size=N_QUERIES)
    return [(Query.scan("t").filter(col("k0") < cuts[p])
             .project(["k1"])) for p in picks]


def make_env():
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("t", make_uniform_table(ROWS, columns=4,
                                             distinct=1000,
                                             chunk_rows=CHUNK))
    return fabric, catalog


def run_base_table_cache() -> dict:
    """CPU-centric pipeline with a DRAM cache of base-table chunks."""
    fabric, catalog = make_env()
    engine = DataflowEngine(fabric, catalog)
    table = catalog.table("t")
    cache = LRUCache(table.nbytes * 2, name="base", trace=fabric.trace)
    total_elapsed = 0.0
    for i, query in enumerate(workload()):
        placement = cpu_only(query.plan, fabric)
        # Model the caching layer: chunks already cached skip the
        # storage+network path — we charge only the local membus.
        missed = [j for j in range(len(table.chunks))
                  if cache.get(f"t/{j}") is None]
        for j in missed:
            chunk = table.chunks[j]
            cache.put(f"t/{j}", chunk, chunk.nbytes)
        if not missed:
            # Fully cached: run from local memory (no network).
            def local_run():
                for chunk in table.chunks:
                    yield from fabric.transfer(
                        "compute0.dram", "compute0.cpu", chunk.nbytes,
                        flow="cached")
                    device = fabric.site_device("compute0.cpu")
                    yield from device.execute("filter", chunk.nbytes)
            start = fabric.sim.now
            fabric.sim.run_process(local_run())
            total_elapsed += fabric.sim.now - start
        else:
            result = engine.execute(query, placement=placement,
                                    name=f"c6base{i}")
            total_elapsed += result.elapsed
    return {
        "config": "cpu-pipeline + base-table cache",
        "network": fabric.trace.counter("movement.network.bytes"),
        "dram_for_cache": cache.used_bytes,
        "elapsed_total": total_elapsed,
    }


def run_active_pipeline(result_cache: bool) -> dict:
    fabric, catalog = make_env()
    engine = DataflowEngine(fabric, catalog)
    cache = LRUCache(16 << 20, name="results") if result_cache else None
    total_elapsed = 0.0
    dram_for_results = 0
    for i, query in enumerate(workload()):
        key = plan_fingerprint(query.plan)
        if cache is not None and cache.get(key) is not None:
            continue  # free hit: the answer is already local
        result = engine.execute(
            query, placement=pushdown(query.plan, fabric),
            name=f"c6act{i}")
        total_elapsed += result.elapsed
        if cache is not None:
            cache.put(key, result.table, result.table.nbytes)
            dram_for_results = cache.used_bytes
    name = "active pipeline" + (" + result cache" if result_cache
                                else "")
    return {
        "config": name,
        "network": fabric.trace.counter("movement.network.bytes"),
        "dram_for_cache": dram_for_results,
        "elapsed_total": total_elapsed,
    }


def run():
    return [run_base_table_cache(),
            run_active_pipeline(False),
            run_active_pipeline(True)]


CHECKS = {
    # The caching layer holds the whole table in DRAM...
    "base_cache_holds_the_table": lambda rows: above(
        rows[0]["dram_for_cache"], 0.9 * (ROWS * 32)),
    # ...while the pipeline needs none and moves far less data.
    "pipeline_needs_no_cache":
        lambda rows: exactly(rows[1]["dram_for_cache"], 0),
    "pipeline_moves_under_half": lambda rows: below(
        rows[1]["network"] / rows[0]["network"], 0.5),
    # Result caching keeps a sliver of DRAM and cuts repeat work.
    "result_cache_is_a_sliver": lambda rows: below(
        rows[2]["dram_for_cache"] / rows[0]["dram_for_cache"], 0.1),
    "result_cache_halves_the_work": lambda rows: below(
        rows[2]["elapsed_total"] / rows[1]["elapsed_total"], 0.5),
}
