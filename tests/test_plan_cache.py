"""Plan-cache correctness: hits, misses, invalidation, bit-identity."""

import pytest

from repro.engine import AggSpec, Query
from repro.hardware import build_fabric, dataflow_spec
from repro.optimizer import Optimizer
from repro.relational import Catalog, col, make_lineitem, make_uniform_table
from repro.serve import (
    PlanCache,
    fabric_fingerprint,
    plan_fingerprint,
    schema_fingerprint,
)


def make_env(rows=3000):
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(rows, chunk_rows=500))
    catalog.register("uniform", make_uniform_table(rows, distinct=50,
                                                   chunk_rows=500))
    return fabric, catalog


def template():
    return (Query.scan("lineitem")
            .filter(col("l_quantity") > 20)
            .aggregate(["l_returnflag"],
                       [AggSpec("sum", "l_extendedprice", "rev")]))


def other_template():
    return (Query.scan("uniform")
            .filter(col("k0") < 10)
            .count())


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------

def test_plan_fingerprint_stable_across_instances():
    # Fresh plan objects have fresh node ids; the fingerprint must
    # not see them.
    assert plan_fingerprint(template()) == plan_fingerprint(template())


def test_plan_fingerprint_sees_predicate_changes():
    changed = (Query.scan("lineitem")
               .filter(col("l_quantity") > 21)
               .aggregate(["l_returnflag"],
                          [AggSpec("sum", "l_extendedprice", "rev")]))
    assert plan_fingerprint(template()) != plan_fingerprint(changed)


def test_schema_fingerprint_sees_data_changes():
    _fabric, catalog_a = make_env(rows=3000)
    _fabric, catalog_b = make_env(rows=3000)
    assert (schema_fingerprint(catalog_a, ["lineitem"])
            == schema_fingerprint(catalog_b, ["lineitem"]))
    _fabric, catalog_c = make_env(rows=4000)
    assert (schema_fingerprint(catalog_a, ["lineitem"])
            != schema_fingerprint(catalog_c, ["lineitem"]))


def test_fabric_fingerprint_sees_topology_changes():
    fabric_a = build_fabric(dataflow_spec())
    fabric_b = build_fabric(dataflow_spec())
    assert fabric_fingerprint(fabric_a) == fabric_fingerprint(fabric_b)
    fabric_c = build_fabric(dataflow_spec(compute_nodes=2))
    assert fabric_fingerprint(fabric_a) != fabric_fingerprint(fabric_c)


# ---------------------------------------------------------------------------
# Hit / miss / invalidation
# ---------------------------------------------------------------------------

def test_miss_then_hit():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    assert cache.lookup(template(), catalog, fabric) is None
    planned = template()
    variants = optimizer.plan_variants(planned, n=3)
    cache.store(planned, catalog, fabric, variants)
    assert cache.lookup(template(), catalog, fabric) is not None
    assert cache.counters() == {"hits": 1, "misses": 1,
                                "invalidations": 0, "entries": 1}


def test_distinct_templates_are_distinct_entries():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    planned = template()
    cache.store(planned, catalog, fabric,
                optimizer.plan_variants(planned, n=2))
    assert cache.lookup(other_template(), catalog, fabric) is None
    assert cache.counters()["entries"] == 1


def test_schema_change_invalidates():
    fabric, catalog = make_env(rows=3000)
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    planned = template()
    cache.store(planned, catalog, fabric,
                optimizer.plan_variants(planned, n=2))
    # Same query, same fabric — but the table changed underneath.
    _fabric, catalog_changed = make_env(rows=4000)
    assert cache.lookup(template(), catalog_changed, fabric) is None
    assert cache.counters()["invalidations"] == 1
    assert cache.counters()["entries"] == 0  # stale entry dropped


def test_placement_context_change_invalidates():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    planned = template()
    cache.store(planned, catalog, fabric,
                optimizer.plan_variants(planned, n=2))
    other_fabric = build_fabric(dataflow_spec(compute_nodes=2))
    assert cache.lookup(template(), catalog, other_fabric) is None
    assert cache.counters()["invalidations"] == 1


def test_capacity_eviction():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache(capacity=1)
    planned_a, planned_b = template(), other_template()
    cache.store(planned_a, catalog, fabric,
                optimizer.plan_variants(planned_a, n=1))
    cache.store(planned_b, catalog, fabric,
                optimizer.plan_variants(planned_b, n=1))
    assert cache.counters()["entries"] == 1
    assert cache.lookup(other_template(), catalog, fabric) is not None


def test_rebind_rejects_mismatched_shape():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    planned = template()
    variants = optimizer.plan_variants(planned, n=1)
    # Corrupt the stored shape to prove the guard trips.
    cache.store(planned, catalog, fabric, variants)
    entry = next(iter(cache._entries.values()))
    entry.variants[0].chains.append(["compute0.node"])
    with pytest.raises(ValueError):
        cache.lookup(template(), catalog, fabric)


# ---------------------------------------------------------------------------
# Bit-identity: cached variants == fresh optimization
# ---------------------------------------------------------------------------

def test_cached_variants_match_fresh_optimization():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    planned = template()
    cache.store(planned, catalog, fabric,
                optimizer.plan_variants(planned, n=3))

    fresh_plan = template()
    cached = cache.lookup(fresh_plan, catalog, fabric)
    fresh = optimizer.plan_variants(fresh_plan, n=3)
    assert len(cached) == len(fresh)
    nodes = list(fresh_plan.plan.walk())
    for cached_variant, fresh_variant in zip(cached, fresh):
        assert (cached_variant.placement.name
                == fresh_variant.placement.name)
        assert (cached_variant.placement.result_site
                == fresh_variant.placement.result_site)
        assert (cached_variant.placement.partitions
                == fresh_variant.placement.partitions)
        assert (cached_variant.cost.bottleneck_time
                == fresh_variant.cost.bottleneck_time)
        for node in nodes:
            assert (cached_variant.placement.sites.get(node.node_id)
                    == fresh_variant.placement.sites.get(node.node_id))


def test_cached_execution_is_bit_identical():
    """Executing a cached placement produces the same checksum AND
    the same simulated time as executing a fresh optimization."""
    from repro.engine import DataflowEngine
    from repro.obs import table_checksum

    def run(use_cache):
        fabric, catalog = make_env()
        optimizer = Optimizer(fabric, catalog)
        cache = PlanCache()
        # Prime with a throwaway instance, as the server would.
        primer = template()
        cache.store(primer, catalog, fabric,
                    optimizer.plan_variants(primer, n=3))
        plan = template()
        if use_cache:
            variants = cache.lookup(plan, catalog, fabric)
        else:
            variants = optimizer.plan_variants(plan, n=3)
        result = DataflowEngine(fabric, catalog).execute(
            plan, placement=variants[0].placement)
        return table_checksum(result.table), result.elapsed

    cached_sum, cached_elapsed = run(use_cache=True)
    fresh_sum, fresh_elapsed = run(use_cache=False)
    assert cached_sum == fresh_sum
    assert cached_elapsed == fresh_elapsed
