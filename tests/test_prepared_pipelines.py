"""Prepared pipelines: a recipe's instances equal a one-shot compile,
share nothing, are derived once per (template, variant), and never
outlive what they were derived from.  Pinned by values and counts."""

import pytest

from repro.engine import (
    AggSpec,
    DataflowEngine,
    Query,
    VolcanoEngine,
    pushdown,
)
from repro.engine.dataflow import PipelineRecipe
from repro.hardware import build_fabric, dataflow_spec
from repro.obs import table_checksum
from repro.optimizer import Optimizer
from repro.relational import (
    Catalog,
    col,
    make_lineitem,
    make_orders,
    make_uniform_table,
    standard_catalog,
)
from repro.serve import (
    ArrivalSpec,
    QueryServer,
    ServeConfig,
    TenantClass,
    serve_templates,
)

from . import golden_ranking, prepared_counts

_CASES = list(golden_ranking.cases())


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def structure(graph) -> dict:
    """Everything about a graph's shape but its object identities."""
    owner = {id(stage.done): name for name, stage in graph.stages.items()}
    return {
        "stages": [
            (name, stage.location,
             stage.device.name if stage.device is not None else None,
             stage.router, stage.is_sink,
             [op.name for op in stage.ops],
             [owner[id(event)] for event in stage.depends_on],
             stage.source_table.name if stage.source_table is not None
             else None,
             [c.name for c in stage.inputs], [c.name for c in stage.outputs])
            for name, stage in graph.stages.items()],
        "channels": [
            (channel.name, [link.name for link in channel.links],
             channel.credits, channel.actor, channel.direction,
             channel.cpu_mediator is not None, channel.qid)
            for channel in graph.channels],
    }


def operator_ids(graph) -> set[int]:
    """Identities of every operator and join state."""
    found = set()
    for stage in graph.stages.values():
        for op in stage.ops:
            found.add(id(op))
            state = getattr(op, "state", None)
            if state is not None:
                found.add(id(state))
    return found


def observed(fabric, graph) -> dict:
    """Run ``graph``; everything the run left behind."""
    result = graph.run()
    trace = fabric.trace
    return {
        "checksum": table_checksum(graph.recipe.result_table(graph)),
        "elapsed": repr(result.elapsed),
        "now": repr(fabric.sim.now),
        "moved": repr(trace.total("movement.")),
        "ring": [event.to_dict() for event in trace.events],
        "counters": dict(trace.counters),
        "ledger": trace.movement_ledger(),
    }


def small_catalog(seed=7, rows=2000):
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(
        rows, seed=seed, orders=rows // 4, chunk_rows=500))
    catalog.register("orders", make_orders(rows // 4, chunk_rows=500))
    catalog.register("uniform", make_uniform_table(
        rows, columns=3, distinct=50, chunk_rows=500))
    return catalog


# ---------------------------------------------------------------------------
# (a) Equivalence: recipe instances == one-shot compile == execute
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,spec,query,rows", _CASES,
                         ids=[case[0] for case in _CASES])
def test_recipe_instances_equal_a_one_shot_compile(name, spec, query, rows):
    catalog = standard_catalog(rows)
    plan = query().plan
    ranked = Optimizer(build_fabric(spec()), catalog).rank(plan)
    assert ranked
    for entry in ranked:
        placement = entry.placement
        # One-shot: recipe built and instantiated once, run from t=0.
        one_fabric = build_fabric(spec())
        one_shot = DataflowEngine(one_fabric, catalog).compile(
            plan, placement, name="q")
        # Prepared: the second instance of one recipe, run from t=0 on
        # a fabric where the first instance was built and never run.
        fabric = build_fabric(spec())
        engine = DataflowEngine(fabric, catalog)
        first = engine.compile(plan, placement, name="q")
        second = engine.compile(plan, placement, name="q",
                                recipe=first.recipe)
        assert second.recipe is first.recipe, placement.name
        assert structure(first) == structure(second) == structure(one_shot)
        assert not operator_ids(first) & operator_ids(second)
        want = observed(one_fabric, one_shot)
        got = observed(fabric, second)
        for key in want:
            assert got[key] == want[key], (name, placement.name, key)
        # And the packaged entry point agrees with both.
        result = DataflowEngine(build_fabric(spec()), catalog).execute(
            plan, placement, name="q")
        assert table_checksum(result.table) == want["checksum"]
        assert repr(result.elapsed) == want["elapsed"]


def test_instance_names_are_per_query():
    fabric = build_fabric(dataflow_spec())
    engine = DataflowEngine(fabric, standard_catalog(2000))
    plan = serve_templates()["join_priority"]().plan
    placement = pushdown(plan, fabric)
    first = engine.compile(plan, placement, name="gold.q#1", qid=3)
    second = engine.compile(plan, placement, name="gold.q#2", qid=4,
                            recipe=first.recipe)
    assert second.recipe is first.recipe
    assert all(c.name.startswith("gold.q#2.") and c.qid == 4
               for c in second.channels)
    assert [s._metric for s in second.stages.values()] == [
        f"stage.gold.q#2.{name}" for name in first.stages]
    # An unnamed compile still numbers its graphs per engine.
    assert engine.compile(plan, placement).name == "df3"


# ---------------------------------------------------------------------------
# (b) Isolation: instances share nothing and leak nothing
# ---------------------------------------------------------------------------

STATEFUL = ("join_priority", "topk", "group_by_flag")


@pytest.mark.parametrize("template", STATEFUL)
def test_no_operator_is_shared_between_instances(template):
    fabric = build_fabric(dataflow_spec())
    catalog = standard_catalog(2000)
    engine = DataflowEngine(fabric, catalog)
    plan = serve_templates()[template]().plan
    for variant in Optimizer(fabric, catalog).plan_variants(plan, n=3):
        graphs = [engine.compile(plan, variant.placement, name="a")]
        for name in "bc":
            graphs.append(engine.compile(plan, variant.placement, name=name,
                                         recipe=graphs[0].recipe))
        ids = [operator_ids(graph) for graph in graphs]
        assert ids[0] and not (ids[0] & ids[1] or ids[0] & ids[2]
                               or ids[1] & ids[2])


@pytest.mark.parametrize("concurrency", [1, 4])
@pytest.mark.parametrize("template", STATEFUL)
def test_later_instances_return_the_first_instances_answer(template,
                                                           concurrency):
    """Back to back (1 slot) and interleaved on the fabric (4 slots)."""
    catalog = standard_catalog(2000)
    tenant = TenantClass(name="t", weight=1.0, slo_s=1.0, seed=1,
                         arrival=ArrivalSpec(kind="poisson", rate=100.0),
                         templates={template: 1.0})
    server = QueryServer(
        build_fabric(dataflow_spec()), catalog, [tenant], serve_templates(),
        ServeConfig(max_concurrency=concurrency, max_queue=16,
                    telemetry=False, observatory=False))
    for _ in range(6):
        server.submit("t", template)
    server.fabric.run()
    assert server.idle
    oracle = table_checksum(VolcanoEngine(
        build_fabric(dataflow_spec()), catalog).execute(
            serve_templates()[template]()).table)
    assert [r.checksum for r in server.records] == [oracle] * 6
    assert server.metrics()["plan_cache"]["hits"] == 5
    recipes = [variant.recipe
               for _query, ranked in server._prepared.values()
               for variant in ranked if variant.recipe is not None]
    assert len(recipes) == len({r.variant_name for r in server.records})


# ---------------------------------------------------------------------------
# (c) Counts: derived once per template / per (template, variant)
# ---------------------------------------------------------------------------

def test_a_served_run_derives_each_thing_once():
    counts, server = prepared_counts.count_served_run(queries=300)
    cache = server.metrics()["plan_cache"]
    assert (cache["hits"], cache["misses"]) == (295, 5)
    templates = sorted(serve_templates())
    # Each template factory ran once and nothing on the serving path
    # described its plan.
    assert [counts[f"factory:{name}"] for name in templates] == [1] * 5
    assert len(server._prepared) == 5
    assert counts["hashed"] == 0
    # The plan walker ran once per (template, variant) pair picked.
    ran = prepared_counts.pairs_that_ran(server)
    assert counts["recipes"] == len(ran)
    variants = max(len(ranked) for _query, ranked
                   in server._prepared.values())
    assert cache["misses"] <= counts["recipes"] <= cache["misses"] * variants
    # One stage graph per completed query; each environment switch is
    # read at most once per graph.
    assert counts["graphs"] == sum(r.completed for r in server.records)
    for switch in prepared_counts.SWITCHES:
        assert 0 < counts[f"env:{switch}"] <= counts["graphs"]
    assert prepared_counts.problems(counts, server) == []


# ---------------------------------------------------------------------------
# Robustness: a recipe never outlives what it was derived from
# ---------------------------------------------------------------------------

def _template():
    return (Query.scan("lineitem")
            .filter(col("l_quantity") > 20)
            .aggregate(["l_returnflag"],
                       [AggSpec("sum", "l_extendedprice", "rev"),
                        AggSpec("count", alias="n")]))


def test_catalog_change_builds_a_new_recipe_and_reads_the_new_chunks():
    fabric = build_fabric(dataflow_spec())
    catalog = small_catalog(seed=7)
    engine = DataflowEngine(fabric, catalog)
    plan = _template().plan
    placement = pushdown(plan, fabric)
    before = engine.compile(plan, placement, name="before")
    old = observed(fabric, before)["checksum"]
    again = engine.compile(plan, placement, name="again",
                           recipe=before.recipe)
    assert again.recipe is before.recipe
    # Same shape, other rows: the plan cache's context digest cannot
    # tell, the catalog version can.
    catalog.register("lineitem", make_lineitem(
        2000, seed=99, orders=500, chunk_rows=500))
    after = engine.compile(plan, placement, name="after",
                           recipe=before.recipe)
    assert after.recipe is not before.recipe
    new = observed(fabric, after)["checksum"]
    fresh = table_checksum(DataflowEngine(
        build_fabric(dataflow_spec()), catalog).execute(plan).table)
    assert new == fresh != old


def test_fabric_or_engine_option_change_builds_a_new_recipe():
    fabric = build_fabric(dataflow_spec())
    catalog = small_catalog()
    plan = _template().plan
    placement = pushdown(plan, fabric)
    recipe = DataflowEngine(fabric, catalog).compile(
        plan, placement).recipe
    same = DataflowEngine(fabric, catalog)
    assert same.compile(plan, placement, recipe=recipe).recipe is recipe
    others = [
        DataflowEngine(build_fabric(dataflow_spec()), catalog),
        DataflowEngine(fabric, small_catalog()),
        DataflowEngine(fabric, catalog, use_zonemaps=True),
        DataflowEngine(fabric, catalog, cpu_mediated=True),
    ]
    for engine in others:
        graph = engine.compile(plan, placement, recipe=recipe)
        assert graph.recipe is not recipe
        assert all((c.cpu_mediator is None) == (engine.cpu_mediator
                                                is None)
                   for c in graph.channels)
    # Another plan instance or placement object is another recipe too.
    other_plan = _template().plan
    assert same.compile(other_plan, pushdown(other_plan, fabric),
                        recipe=recipe).recipe is not recipe
    assert same.compile(plan, pushdown(plan, fabric),
                        recipe=recipe).recipe is not recipe


@pytest.mark.parametrize("resource,factor", [
    ("storage_cu.speed", 0.25), ("net.bw", 0.5), ("net.lat", 4.0)])
def test_perturbation_after_preparation_is_honoured(resource, factor):
    catalog = standard_catalog(2000)
    plan = serve_templates()["group_by_flag"]().plan

    def run(prepare_first):
        fabric = build_fabric(dataflow_spec())
        engine = DataflowEngine(fabric, catalog)
        placement = pushdown(plan, fabric)
        recipe = (engine.compile(plan, placement).recipe
                  if prepare_first else None)
        fabric.apply_perturbation(resource, factor)
        graph = engine.compile(plan, placement, name="q", recipe=recipe)
        assert (graph.recipe is recipe) == prepare_first
        return observed(fabric, graph)

    baseline = DataflowEngine(build_fabric(dataflow_spec()),
                              catalog).execute(plan)
    prepared, fresh = run(True), run(False)
    assert prepared["elapsed"] == fresh["elapsed"]
    assert prepared["checksum"] == fresh["checksum"]
    assert prepared["ring"] == fresh["ring"]
    assert prepared["elapsed"] != repr(baseline.elapsed)


def test_dropped_table_raises_the_catalogs_error():
    fabric = build_fabric(dataflow_spec())
    catalog = small_catalog()
    engine = DataflowEngine(fabric, catalog)
    plan = _template().plan
    placement = pushdown(plan, fabric)
    recipe = engine.compile(plan, placement).recipe
    del catalog._tables["lineitem"]     # no version bump: recipe current
    with pytest.raises(KeyError, match="unknown table 'lineitem'"):
        engine.compile(plan, placement, recipe=recipe)
    with pytest.raises(KeyError, match="unknown table 'lineitem'"):
        PipelineRecipe(engine, plan, placement)


def test_server_reprepares_when_a_table_is_replaced_in_place():
    """Same rows and bytes: the cache entry survives, its recipes don't."""
    catalog = small_catalog(seed=7)
    tenant = TenantClass(name="t", weight=1.0, slo_s=1.0, seed=1,
                         arrival=ArrivalSpec(kind="poisson", rate=100.0),
                         templates={"group_by_flag": 1.0})
    server = QueryServer(
        build_fabric(dataflow_spec()), catalog, [tenant], serve_templates(),
        ServeConfig(telemetry=False, observatory=False))
    for _ in range(2):
        server.submit("t", "group_by_flag")
    server.fabric.run()
    assert server.idle
    catalog.register("lineitem", make_lineitem(
        2000, seed=99, orders=500, chunk_rows=500))
    for _ in range(2):
        server.submit("t", "group_by_flag")
    server.fabric.run()
    assert server.idle
    old, old2, new, new2 = [r.checksum for r in server.records]
    oracle = table_checksum(VolcanoEngine(
        build_fabric(dataflow_spec()), catalog).execute(
            serve_templates()["group_by_flag"]()).table)
    assert old == old2 != new == new2 == oracle
    assert [r.plan_cache for r in server.records] == [
        "miss", "hit", "hit", "hit"]


# ---------------------------------------------------------------------------
# Prepared templates: the server's entries
# ---------------------------------------------------------------------------

def test_same_instance_hit_returns_the_entrys_own_variants(monkeypatch):
    """The entry is the optimizer's own list; every hit hands it on."""
    returned, ran = [], []
    plan_variants = Optimizer.plan_variants

    def ranking(*args, **kwargs):
        returned.append(plan_variants(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(Optimizer, "plan_variants", ranking)
    tenant = TenantClass(name="t", weight=1.0, slo_s=1.0, seed=1,
                         arrival=ArrivalSpec(kind="poisson", rate=100.0),
                         templates={"count_hot": 1.0})
    server = QueryServer(
        build_fabric(dataflow_spec()), standard_catalog(2000), [tenant],
        serve_templates(), ServeConfig(telemetry=False, observatory=False))
    execute = server.executor.execute

    def executing(name, query, variants, *args, **kwargs):
        ran.append(variants)
        return execute(name, query, variants, *args, **kwargs)

    monkeypatch.setattr(server.executor, "execute", executing)
    for _ in range(3):
        server.submit("t", "count_hot")
    server.fabric.run()
    [ranked] = returned
    assert server._prepared["count_hot"][1] is ranked
    assert len(ran) == 3 and all(variants is ranked for variants in ran)
