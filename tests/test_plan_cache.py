"""Plan-cache correctness: hits, misses, invalidation, bit-identity."""

from repro.engine import AggSpec, Query
from repro.hardware import build_fabric, dataflow_spec
from repro.optimizer import Optimizer
from repro.relational import Catalog, col, make_lineitem, make_uniform_table
from repro.serve import PlanCache


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
# Hit / miss / invalidation
# ---------------------------------------------------------------------------

def test_miss_then_hit():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    planned = template()
    assert cache.lookup(planned, catalog, fabric) is None
    variants = optimizer.plan_variants(planned, n=3)
    cache.store(planned, catalog, fabric, variants)
    assert cache.lookup(planned, catalog, fabric) is variants
    assert cache.counters() == {"hits": 1, "misses": 1,
                                "invalidations": 0, "entries": 1}


def test_an_equal_plan_instance_misses_and_the_stored_one_hits():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    planned = template()
    cache.store(planned, catalog, fabric,
                optimizer.plan_variants(planned, n=2))
    assert cache.lookup(template(), catalog, fabric) is None
    assert cache.lookup(planned, catalog, fabric) is not None
    assert cache.counters() == {"hits": 1, "misses": 1,
                                "invalidations": 0, "entries": 1}


def test_distinct_templates_are_distinct_entries():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    planned, other = template(), other_template()
    assert cache.lookup(other, catalog, fabric) is None
    ranked = {}
    for plan in (planned, other):
        ranked[plan] = optimizer.plan_variants(plan, n=2)
        cache.store(plan, catalog, fabric, ranked[plan])
    assert cache.counters()["entries"] == 2
    for plan in (planned, other):
        assert cache.lookup(plan, catalog, fabric) is ranked[plan]


def test_schema_change_invalidates():
    fabric, catalog = make_env(rows=3000)
    optimizer = Optimizer(fabric, catalog)
    cache = PlanCache()
    planned = template()
    cache.store(planned, catalog, fabric,
                optimizer.plan_variants(planned, n=2))
    # Same query, same fabric — but the table changed underneath.
    _fabric, catalog_changed = make_env(rows=4000)
    assert cache.lookup(planned, catalog_changed, fabric) is None
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
    assert cache.lookup(planned, catalog, other_fabric) is None
    assert cache.counters()["invalidations"] == 1


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

    cached = cache.lookup(planned, catalog, fabric)
    fresh = optimizer.plan_variants(planned, n=3)
    assert len(cached) == len(fresh)
    nodes = list(planned.plan.walk())
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
        # Prime with the plan itself, as the server does.
        plan = template()
        cache.store(plan, catalog, fabric,
                    optimizer.plan_variants(plan, n=3))
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
