"""Tests for interference tracking and the query scheduler."""

import pytest

from repro.engine import AggSpec, Query
from repro.hardware import build_fabric, dataflow_spec
from repro.optimizer import Optimizer
from repro.relational import Catalog, col, make_lineitem, make_uniform_table
from repro.scheduler import LoadTracker, ScheduledQuery, Scheduler, demand_vector


def make_env(rows=4000, compute_nodes=1):
    fabric = build_fabric(dataflow_spec(compute_nodes=compute_nodes))
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(rows, chunk_rows=500))
    catalog.register("uniform", make_uniform_table(rows, distinct=50,
                                                   chunk_rows=500))
    return fabric, catalog


HEAVY = (Query.scan("lineitem")
         .filter(col("l_quantity") > 5)
         .aggregate(["l_returnflag"],
                    [AggSpec("sum", "l_extendedprice", "rev")]))
LIGHT = Query.scan("uniform").filter(col("k0") < 5).count()


# ---------------------------------------------------------------------------
# LoadTracker
# ---------------------------------------------------------------------------

def test_demand_vector_covers_devices_and_links():
    fabric, catalog = make_env()
    optimizer = Optimizer(fabric, catalog)
    best = optimizer.optimize(HEAVY)
    vector = demand_vector(best.cost)
    assert any(k.startswith("device:") for k in vector)
    assert any(k.startswith("link:") for k in vector)
    assert all(v >= 0 for v in vector.values())


def test_load_tracker_admit_release():
    tracker = LoadTracker()
    tracker.admit("a", {"device:x": 1.0})
    tracker.admit("b", {"device:x": 2.0, "link:l": 1.0})
    assert tracker.load() == {"device:x": 3.0, "link:l": 1.0}
    tracker.release("a")
    assert tracker.load() == {"device:x": 2.0, "link:l": 1.0}


def test_load_tracker_duplicate_admit_rejected():
    tracker = LoadTracker()
    tracker.admit("a", {})
    with pytest.raises(ValueError):
        tracker.admit("a", {})


def test_interference_score_only_counts_shared_resources():
    tracker = LoadTracker()
    tracker.admit("busy", {"device:x": 10.0})
    disjoint = {"device:y": 1.0}
    overlapping = {"device:x": 1.0}
    assert tracker.interference_score(disjoint) == 1.0
    assert tracker.interference_score(overlapping) == 11.0


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------

def test_scheduler_runs_single_query():
    fabric, catalog = make_env()
    scheduler = Scheduler(fabric, catalog, policy="greedy")
    scheduler.submit("q1", HEAVY)
    records = scheduler.run()
    assert len(records) == 1
    assert records[0].table is not None
    assert records[0].table.num_rows > 0
    assert records[0].finished > records[0].started >= 0


def test_scheduler_concurrent_queries_all_finish_correctly():
    fabric, catalog = make_env()
    scheduler = Scheduler(fabric, catalog, policy="interference")
    for i in range(4):
        scheduler.submit(f"q{i}", HEAVY, arrival=i * 1e-4)
    records = scheduler.run()
    assert len(records) == 4
    tables = [r.table.sorted_rows() for r in records]
    assert all(t == tables[0] for t in tables)  # identical queries


def test_scheduler_rejects_duplicate_names():
    fabric, catalog = make_env()
    scheduler = Scheduler(fabric, catalog)
    scheduler.submit("q", LIGHT)
    with pytest.raises(ValueError):
        scheduler.submit("q", LIGHT)


@pytest.mark.parametrize("kwargs", [
    pytest.param(dict(policy="magic"), id="unknown-policy"),
    pytest.param(dict(variants_per_query=0), id="zero-variants"),
    pytest.param(dict(variants_per_query=-1), id="negative-variants"),
])
def test_scheduler_rejects_bad_arguments(kwargs):
    fabric, catalog = make_env()
    with pytest.raises(ValueError):
        Scheduler(fabric, catalog, **kwargs)


@pytest.mark.parametrize("arrival", [-1.0, float("nan"), float("inf")])
def test_scheduler_rejects_bad_arrival(arrival):
    fabric, catalog = make_env()
    scheduler = Scheduler(fabric, catalog)
    with pytest.raises(ValueError, match="'late'"):
        scheduler.submit("late", LIGHT, arrival=arrival)


def test_scheduler_results_match_solo_execution():
    fabric, catalog = make_env()
    scheduler = Scheduler(fabric, catalog, policy="interference")
    scheduler.submit("heavy", HEAVY)
    scheduler.submit("light", LIGHT, arrival=1e-5)
    records = {r.name: r for r in scheduler.run()}

    from repro.engine import DataflowEngine
    fabric2, catalog2 = make_env()
    solo = DataflowEngine(fabric2, catalog2)
    assert records["heavy"].table.sorted_rows() == \
        solo.execute(HEAVY).table.sorted_rows()
    fabric3, catalog3 = make_env()
    solo3 = DataflowEngine(fabric3, catalog3)
    assert records["light"].table.sorted_rows() == \
        solo3.execute(LIGHT).table.sorted_rows()


def test_greedy_policy_always_picks_best():
    fabric, catalog = make_env()
    scheduler = Scheduler(fabric, catalog, policy="greedy")
    for i in range(3):
        scheduler.submit(f"q{i}", HEAVY, arrival=0.0)
    records = scheduler.run()
    variants = {r.variant_name for r in records}
    assert len(variants) == 1


def test_scheduler_makespan_and_latency_reporting():
    fabric, catalog = make_env()
    scheduler = Scheduler(fabric, catalog, policy="greedy")
    assert scheduler.run() == []
    assert scheduler.makespan() == 0.0
    scheduler.submit("a", LIGHT, arrival=0.0)
    scheduler.submit("b", LIGHT, arrival=1e-4)
    scheduler.run()
    assert scheduler.makespan() > 0
    assert all(r.latency > 0 for r in scheduler.records.values())


def test_scheduled_query_latency_properties():
    record = ScheduledQuery("q", arrival=1.0, started=2.0, finished=5.0)
    assert record.latency == 4.0


# ---------------------------------------------------------------------------
# Workload utilities
# ---------------------------------------------------------------------------

def test_poisson_arrivals_seeded_and_monotone():
    from repro.scheduler import poisson_arrivals
    a = poisson_arrivals(50, rate=100.0, seed=7)
    b = poisson_arrivals(50, rate=100.0, seed=7)
    assert a == b
    assert all(x < y for x, y in zip(a, a[1:]))
    # Mean inter-arrival roughly 1/rate.
    gaps = [y - x for x, y in zip([0.0] + a, a)]
    assert 0.5 / 100 < sum(gaps) / len(gaps) < 2.0 / 100


def test_poisson_requires_positive_rate():
    from repro.scheduler import poisson_arrivals
    with pytest.raises(ValueError):
        poisson_arrivals(5, rate=0.0)
