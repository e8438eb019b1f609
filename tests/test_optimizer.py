"""Tests for the cost model, enumeration, and optimizer ranking."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.scenarios import SCENARIOS
from repro.engine import (
    AggSpec,
    DataflowEngine,
    Query,
    cpu_only,
    pushdown,
)
from repro.engine.logical import Filter
from repro.hardware import build_fabric, conventional_spec, dataflow_spec
from repro.optimizer import (
    CostModel,
    Optimizer,
    enumerate_placements,
)
from repro.relational import (
    Catalog,
    col,
    make_lineitem,
    make_orders,
    standard_catalog,
)
from repro.relational.expressions import Between, Compare

from . import golden_ranking
from .test_property_engines import fresh_env, query_plans


def make_env(rows=4000, compute_nodes=1, **spec_overrides):
    fabric = build_fabric(dataflow_spec(compute_nodes=compute_nodes,
                                        **spec_overrides))
    catalog = Catalog()
    catalog.register("lineitem",
                     make_lineitem(rows, orders=rows // 4,
                                   chunk_rows=500))
    catalog.register("orders", make_orders(rows // 4, chunk_rows=500))
    return fabric, catalog


SELECTIVE = (Query.scan("lineitem")
             .filter(col("l_quantity") > 45)
             .project(["l_orderkey"]))


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

def test_cost_model_pushdown_moves_fewer_network_bytes():
    fabric, catalog = make_env()
    model = CostModel(fabric, catalog)
    plan = SELECTIVE.plan
    cost_push = model.cost(plan, pushdown(plan, fabric))
    cost_cpu = model.cost(plan, cpu_only(plan, fabric))
    assert cost_push.network_bytes < cost_cpu.network_bytes
    assert cost_push.total_bytes < cost_cpu.total_bytes
    # Both pipelines are scan-bottlenecked, so makespans can tie —
    # but pushdown never predicts worse.
    assert cost_push.bottleneck_time <= cost_cpu.bottleneck_time


def test_cost_model_scan_bytes_exact():
    """Scan volume is known exactly — model must match the table."""
    fabric, catalog = make_env()
    model = CostModel(fabric, catalog)
    plan = Query.scan("lineitem").plan
    cost = model.cost(plan, cpu_only(plan, fabric))
    assert cost.segment_bytes["storage"] == pytest.approx(
        catalog.table("lineitem").nbytes, rel=0.01)


def test_cost_model_exact_cardinalities_injectable():
    fabric, catalog = make_env()
    plan = SELECTIVE.plan
    filter_node = plan.children[0]
    exact = {filter_node.node_id: 123.0}
    model = CostModel(fabric, catalog, cardinalities=exact)
    assert model.rows_out(filter_node) == 123.0


def test_cost_model_cpu_only_network_matches_simulation():
    """CPU-only placement: network bytes = table bytes, and the
    simulated counter agrees (model and simulator share accounting)."""
    fabric, catalog = make_env()
    model = CostModel(fabric, catalog)
    plan = SELECTIVE.plan
    predicted = model.cost(plan, cpu_only(plan, fabric)).network_bytes
    engine = DataflowEngine(fabric, catalog)
    result = engine.execute(SELECTIVE,
                            placement=cpu_only(plan, fabric))
    # Each network hop counts once; predicted is per-hop too.
    assert result.bytes_on("network") == pytest.approx(predicted, rel=0.01)


def test_cost_model_aggregate_chain_reduces_stream():
    fabric, catalog = make_env()
    model = CostModel(fabric, catalog)
    query = (Query.scan("lineitem")
             .aggregate(["l_returnflag"],
                        [AggSpec("sum", "l_extendedprice", "rev")]))
    plan = query.plan
    cost_staged = model.cost(plan, pushdown(plan, fabric))
    cost_cpu = model.cost(plan, cpu_only(plan, fabric))
    assert cost_staged.network_bytes < cost_cpu.network_bytes


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumeration_yields_multiple_options():
    fabric, catalog = make_env()
    plans = list(enumerate_placements(SELECTIVE.plan, fabric))
    assert len(plans) > 3
    # Sites used must differ across candidates.
    signatures = {tuple(sorted((k, tuple(v))
                               for k, v in p.sites.items()))
                  for p in plans}
    assert len(signatures) == len(plans)


def test_enumeration_respects_monotonicity():
    fabric, catalog = make_env()
    from repro.engine.placement import data_path_sites
    path = data_path_sites(fabric)
    index = {site: i for i, site in enumerate(path)}
    plan = SELECTIVE.plan
    for placement in enumerate_placements(plan, fabric):
        for node in plan.walk():
            my_first = placement.sites[node.node_id][0]
            for child in node.children:
                child_last = placement.sites[child.node_id][-1]
                assert index.get(child_last, len(path) - 1) <= \
                    index.get(my_first, len(path) - 1)


def test_enumeration_capped():
    fabric, catalog = make_env()
    query = Query.scan("lineitem")
    for i in range(6):
        query = query.filter(col("l_quantity") > i)
    plans = list(enumerate_placements(query.plan, fabric,
                                      max_placements=10))
    assert len(plans) == 10


def test_enumeration_all_valid():
    fabric, catalog = make_env()
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 10)
             .aggregate(["l_returnflag"], [AggSpec("count", alias="n")]))
    for placement in enumerate_placements(query.plan, fabric):
        placement.validate(query.plan, fabric)


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def test_optimizer_prefers_offload_on_smart_fabric():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    best = optimizer.optimize(SELECTIVE)
    used_sites = {s for chain in best.placement.sites.values()
                  for s in chain}
    assert used_sites & {"storage.cu", "storage.nic"}, used_sites


def test_optimizer_on_dumb_fabric_falls_back_to_cpu():
    fabric = build_fabric(conventional_spec())
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(2000, chunk_rows=500))
    optimizer = Optimizer(fabric, catalog)
    best = optimizer.optimize(SELECTIVE)
    used_sites = {s for chain in best.placement.sites.values()
                  for s in chain}
    assert used_sites == {"compute0.cpu"}


def test_optimizer_choice_beats_cpu_only_in_simulation():
    """The ranking is consistent with simulated reality."""
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    best = optimizer.optimize(SELECTIVE)

    fabric1, catalog1 = make_env()
    engine1 = DataflowEngine(fabric1, catalog1)
    res_best = engine1.execute(SELECTIVE, placement=best.placement)

    fabric2, catalog2 = make_env()
    engine2 = DataflowEngine(fabric2, catalog2)
    res_cpu = engine2.execute(
        SELECTIVE, placement=cpu_only(SELECTIVE.plan, fabric2))

    assert res_best.table.sorted_rows() == res_cpu.table.sorted_rows()
    assert res_best.total_bytes_moved <= res_cpu.total_bytes_moved
    assert res_best.elapsed <= res_cpu.elapsed


def test_plan_variants_include_best_and_cpu_only():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    variants = optimizer.plan_variants(SELECTIVE, n=3)
    assert len(variants) >= 2
    names = [v.placement.name for v in variants]
    assert "cpu-only" in names
    # Best first.
    scores = [v.cost.bottleneck_time for v in variants[:-1]]
    assert scores == sorted(scores)


def test_variants_are_distinct():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    variants = optimizer.plan_variants(SELECTIVE, n=4)
    signatures = {Optimizer._signature(v.placement) for v in variants}
    assert len(signatures) == len(variants)


# ---------------------------------------------------------------------------
# Distributed join planning (Figure 4 in the plan space)
# ---------------------------------------------------------------------------

JOIN_QUERY = (Query.scan("lineitem")
              .filter(col("l_quantity") > 5)
              .join(Query.scan("orders"), "l_orderkey", "o_orderkey")
              .aggregate(["o_priority"],
                         [AggSpec("count", alias="n")]))


def test_enumeration_offers_partitioned_join_on_multinode_fabric():
    fabric, catalog = make_env(compute_nodes=2)
    from repro.optimizer import enumerate_placements
    partitions = {p.partitions for p in
                  enumerate_placements(JOIN_QUERY.plan, fabric)}
    assert partitions == {1, 2}


def test_enumeration_single_node_has_no_partitioned_variant():
    fabric, catalog = make_env()
    from repro.optimizer import enumerate_placements
    partitions = {p.partitions for p in
                  enumerate_placements(JOIN_QUERY.plan, fabric)}
    assert partitions == {1}


def test_cost_model_partitioned_join_reduces_per_node_device_time():
    fabric, catalog = make_env(compute_nodes=2)
    model = CostModel(fabric, catalog)
    single = pushdown(JOIN_QUERY.plan, fabric)
    double = pushdown(JOIN_QUERY.plan, fabric)
    double.partitions = 2
    cost1 = model.cost(JOIN_QUERY.plan, single)
    cost2 = model.cost(JOIN_QUERY.plan, double)
    # Node 0's CPU sheds join work to node 1 (the aggregate above the
    # join stays on node 0, so the drop is less than a full half).
    assert cost2.device_time["compute0.cpu"] < \
        0.85 * cost1.device_time["compute0.cpu"]
    assert cost2.device_time["compute1.cpu"] > 0
    # The scatter site paid partition work.
    assert cost2.device_time.get("storage.nic", 0.0) > 0


def test_optimizer_picks_distributed_join_when_it_wins():
    """With a join-bound query on a fast network, 2-way wins."""
    fabric, catalog = make_env(rows=8000,
                               compute_nodes=2,
                               network_gbits=400,
                               ssd_gib_per_s=32)
    optimizer = Optimizer(fabric, catalog, max_placements=512)
    best = optimizer.optimize(JOIN_QUERY)
    assert best.placement.partitions == 2
    # And the simulation agrees the chosen plan runs correctly.
    engine = DataflowEngine(fabric, catalog)
    result = engine.execute(JOIN_QUERY, placement=best.placement)
    assert result.rows == 5


# ---------------------------------------------------------------------------
# Ranking: pinned output, one estimate per call, loud failures
# ---------------------------------------------------------------------------

_GOLDEN = json.loads(golden_ranking.FIXTURE.read_text())
_CASES = list(golden_ranking.cases())


@pytest.mark.parametrize("name,spec,query,rows", _CASES,
                         ids=[case[0] for case in _CASES])
def test_rank_matches_golden_fixture(name, spec, query, rows):
    """Placements, their order and the cost figures the scheduler reads
    are the ones recorded before ranking was made cheap (PR 16)."""
    plan = query().plan
    ranked = Optimizer(build_fabric(spec()),
                       standard_catalog(rows)).rank(plan)
    assert golden_ranking.differences(
        {name: _GOLDEN[name]},
        {name: golden_ranking.ranking_record(ranked, plan)}) == []


def test_golden_fixture_covers_every_case():
    assert set(_GOLDEN) == {case[0] for case in _CASES}


@given(query=query_plans(),
       injected=st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=4))
@settings(max_examples=25, deadline=None)
def test_rank_costs_equal_a_fresh_cost_model(query, injected):
    """The shared per-rank estimate changes no number: every ranked
    entry equals ``CostModel.cost`` on a model built for it alone."""
    fabric, catalog = fresh_env()
    plan = query.plan
    cardinalities = {node.node_id: rows
                     for node, rows in zip(plan.walk(), injected)}
    ranked = Optimizer(fabric, catalog,
                       cardinalities=cardinalities).rank(plan)
    assert len(ranked) >= 2
    for entry in ranked:
        fresh = CostModel(fabric, catalog, cardinalities=cardinalities)
        assert entry.cost == fresh.cost(plan, entry.placement)


def test_rank_follows_a_reregistered_table():
    """Nothing estimated in one ``rank()`` survives into the next."""
    fabric, catalog = make_env(rows=4000)
    optimizer = Optimizer(fabric, catalog)
    plan = SELECTIVE.plan
    before = optimizer.rank(plan)[0].cost.segment_bytes["storage"]
    catalog.register("lineitem",
                     make_lineitem(1000, orders=250, chunk_rows=500))
    after = optimizer.rank(plan)[0].cost
    assert after.segment_bytes["storage"] == pytest.approx(
        catalog.table("lineitem").nbytes, rel=0.01)
    assert after.segment_bytes["storage"] < 0.3 * before
    assert after == CostModel(fabric, catalog).cost(plan, after.placement)


@pytest.mark.parametrize("max_placements", [1, 16, 256])
def test_rank_estimates_selectivity_once_per_plan(monkeypatch,
                                                  max_placements):
    """A count, not a clock: ``rank()`` of F6 (2 filters, 4 levels)
    estimates selectivities per plan, not per candidate placement."""
    calls = []
    for cls in (Between, Compare):
        original = cls.estimate_selectivity
        monkeypatch.setattr(
            cls, "estimate_selectivity",
            lambda self, stats=None, _orig=original:
                calls.append(self) or _orig(self, stats))
    scenario = SCENARIOS["f6"]
    plan = scenario.query().plan
    filters = sum(isinstance(n, Filter) for n in plan.walk())
    assert filters == 2
    ranked = Optimizer(build_fabric(scenario.spec()),
                       standard_catalog(3000),
                       max_placements=max_placements).rank(plan)
    assert len(ranked) == min(max_placements, 25) + 1
    # Each node's estimate re-walks its own subtree once: a filter is
    # estimated for itself, the join and the aggregate above it.
    assert len(calls) == 3 * filters


def test_rank_drops_an_invalid_option_and_nothing_else(monkeypatch):
    from repro.engine.placement import PlacementError, check_chain
    from repro.optimizer import enumeration

    fabric, catalog = make_env()
    plan = SELECTIVE.plan
    everything = Optimizer(fabric, catalog).rank(plan)

    def no_storage_cu(node, chain, fabric):
        if "storage.cu" in chain:
            raise PlacementError("storage.cu is out of service")
        check_chain(node, chain, fabric)

    monkeypatch.setattr(enumeration, "check_chain", no_storage_cu)
    ranked = Optimizer(fabric, catalog).rank(plan)
    non_scan = [n.node_id for n in plan.walk() if n.children]

    def uses_cu(entry):
        return any("storage.cu" in entry.placement.sites[i]
                   for i in non_scan)

    assert ranked and not any(uses_cu(e) for e in ranked)
    assert len(ranked) == sum(not uses_cu(e) for e in everything)


def test_rank_propagates_a_bug_in_validation(monkeypatch):
    """Only PlacementError means "not a candidate"; anything else is a
    bug and must not silently shrink the candidate set."""
    from repro.optimizer import enumeration

    def broken(node, chain, fabric):
        raise RuntimeError("validation bug")

    monkeypatch.setattr(enumeration, "check_chain", broken)
    fabric, catalog = make_env()
    with pytest.raises(RuntimeError, match="validation bug"):
        Optimizer(fabric, catalog).rank(SELECTIVE.plan)
