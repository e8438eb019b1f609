"""Prepared templates: misses, hits and bit-identity, on the server.

A server builds each template's ``Query`` and ranks its variants once,
at the template's first admitted submission (a plan-cache miss); every
later submission of that template reuses both (a hit).  The counters
are read off the records."""

from repro.engine import AggSpec, DataflowEngine, Query
from repro.hardware import build_fabric, dataflow_spec
from repro.obs import table_checksum
from repro.optimizer import Optimizer
from repro.relational import Catalog, col, make_lineitem, make_uniform_table
from repro.serve import ArrivalSpec, QueryServer, ServeConfig, TenantClass


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


def make_server(templates):
    tenant = TenantClass(name="t", weight=1.0, slo_s=1.0, seed=1,
                         arrival=ArrivalSpec(kind="poisson", rate=100.0),
                         templates={name: 1.0 for name in templates})
    return QueryServer(*make_env(), [tenant], templates,
                       ServeConfig(telemetry=False, observatory=False))


def serve(server, names):
    """Submit ``names`` in order and drain; the variant list each
    query ran with, by record."""
    ran = {}
    execute = server.executor.execute

    def recording(name, query, variants, record, qid=0):
        ran[record.name] = variants
        return execute(name, query, variants, record, qid=qid)

    server.executor.execute = recording
    for name in names:
        server.submit("t", name)
    server.fabric.run()
    assert server.idle
    return [ran[r.name] for r in server.records]


# ---------------------------------------------------------------------------
# Hit / miss
# ---------------------------------------------------------------------------

def test_miss_then_hit():
    server = make_server({"agg": template})
    first, second = serve(server, ["agg", "agg"])
    assert second is first is server._prepared["agg"][1]
    assert [r.plan_cache for r in server.records] == ["miss", "hit"]
    assert server.metrics()["plan_cache"] == {
        "hits": 1, "misses": 1, "invalidations": 0, "entries": 1}
    assert server.accounting_violations() == []


def test_an_equal_plan_instance_misses_and_the_stored_one_hits():
    # Two template names with equal plans are two entries: the second
    # name is planned afresh, and the first name's own entry hits.
    built = []

    def counted():
        built.append(template())
        return built[-1]

    server = make_server({"a": counted, "b": counted})
    a, b, a_again = serve(server, ["a", "b", "a"])
    assert len(built) == 2
    assert a_again is a and b is not a
    assert server._prepared["a"][0] is built[0]
    assert [r.plan_cache for r in server.records] == ["miss", "miss", "hit"]
    assert server.metrics()["plan_cache"] == {
        "hits": 1, "misses": 2, "invalidations": 0, "entries": 2}


def test_distinct_templates_are_distinct_entries():
    server = make_server({"agg": template, "count": other_template})
    ran = serve(server, ["count", "agg", "agg", "count"])
    assert server.metrics()["plan_cache"]["entries"] == 2
    assert ran[0] is ran[3] is server._prepared["count"][1]
    assert ran[1] is ran[2] is server._prepared["agg"][1]
    assert ran[0] is not ran[1]


# ---------------------------------------------------------------------------
# Bit-identity: prepared variants == fresh optimization
# ---------------------------------------------------------------------------

def test_cached_variants_match_fresh_optimization():
    server = make_server({"agg": template})
    serve(server, ["agg", "agg"])
    planned, cached = server._prepared["agg"]
    fresh = Optimizer(*make_env()).plan_variants(planned, n=3)
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
    """Executing a prepared placement produces the same checksum AND
    the same simulated time as executing a fresh optimization, and
    the served answers are that checksum."""
    server = make_server({"agg": template})
    serve(server, ["agg", "agg"])
    plan, variants = server._prepared["agg"]

    def run(placement):
        fabric, catalog = make_env()
        result = DataflowEngine(fabric, catalog).execute(
            plan, placement=placement)
        return table_checksum(result.table), result.elapsed

    fresh = Optimizer(*make_env()).plan_variants(plan, n=3)
    assert run(variants[0].placement) == run(fresh[0].placement)
    assert {r.checksum for r in server.records} == {
        run(variants[0].placement)[0]}
