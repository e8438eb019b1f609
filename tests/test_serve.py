"""End-to-end tests for the multi-tenant serving stack."""

import dataclasses
import inspect
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.observatory import Observatory
from repro.bench import compare_reports, run_suite
from repro.obs import make_report, validate_report
from repro.serve import (
    ArrivalSpec,
    QueryServer,
    ServeConfig,
    TenantClass,
    open_arrivals,
    run_scenario,
    schedule_for,
    serve_templates,
)
from repro.serve.scenarios import _serve_clients
from repro.serve.server import MIN_RETRY_AFTER_S
from repro.serve.telemetry import ServeTelemetry
from repro.sim import SimulationError
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import standard_catalog


def make_server(config=None, tenants=None):
    fabric = build_fabric(dataflow_spec())
    catalog = standard_catalog(1500)
    tenants = tenants or [
        TenantClass(name="a", weight=2.0, slo_s=0.01, seed=1,
                    arrival=ArrivalSpec(kind="poisson", rate=500.0),
                    templates={"count_hot": 1.0}),
        TenantClass(name="b", weight=1.0, slo_s=0.01, seed=2,
                    arrival=ArrivalSpec(kind="poisson", rate=500.0),
                    templates={"topk": 1.0}),
    ]
    server = QueryServer(fabric, catalog, tenants, serve_templates(),
                         config or ServeConfig())
    return server


def test_serve_plane_option_inventory():
    """The options some caller sets; the rest are module constants."""
    assert [f.name for f in dataclasses.fields(ServeConfig)] == [
        "max_concurrency", "max_queue", "telemetry", "observatory"]
    assert list(inspect.signature(ServeTelemetry).parameters) == [
        "tenants", "trace"]
    assert list(inspect.signature(Observatory).parameters) == [
        "tenants", "trace", "link_bandwidth"]


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_admission_sheds_when_queue_full():
    # Two slots busy and two queued: the fifth arrival is shed, and
    # its hint is the queued demand drained through the two slots.
    server = make_server(config=ServeConfig(max_concurrency=2,
                                            max_queue=2))
    records = [server.submit("b", "topk") for _ in range(5)]
    assert [r.admitted for r in records] == [True] * 4 + [False]
    cost = server._prepared["topk"][1][0].cost.bottleneck_time
    assert records[-1].retry_after_s == max(MIN_RETRY_AFTER_S,
                                            2 * cost / 2)
    assert server.metrics()["admission"] == {"admitted": 4, "shed": 1}
    server.fabric.run()
    assert server.metrics()["admission"] == {"admitted": 4, "shed": 1}
    assert server.accounting_violations() == []


def test_admission_retry_after_has_floor():
    # Nothing queued behind the busy slot: the hint is the floor.
    server = make_server(config=ServeConfig(max_concurrency=1,
                                            max_queue=0))
    _running, shed = (server.submit("a", "count_hot") for _ in range(2))
    assert not shed.admitted
    assert shed.retry_after_s == MIN_RETRY_AFTER_S == 1e-3


def test_admission_admits_into_a_free_slot_with_no_waiting_room():
    server = make_server(config=ServeConfig(max_concurrency=1,
                                            max_queue=0))
    assert server.submit("a", "count_hot").admitted
    server.fabric.run()
    assert server.submit("a", "count_hot").admitted
    server.fabric.run()
    assert server.metrics()["admission"] == {"admitted": 2, "shed": 0}


def test_serving_with_no_waiting_room_completes_queries():
    record = run_scenario("two_tenant_bursty", queries=20,
                          config=ServeConfig(max_concurrency=1,
                                             max_queue=0))
    assert record["completed"] >= 1


def test_admission_rejects_bad_config():
    with pytest.raises(ValueError, match="max_queue"):
        ServeConfig(max_queue=-1, max_concurrency=1)
    with pytest.raises(ValueError, match="max_concurrency"):
        ServeConfig(max_queue=1, max_concurrency=0)


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------

def test_open_arrivals_are_seeded_and_sorted():
    tenant = TenantClass(name="t", seed=5,
                         arrival=ArrivalSpec(kind="bursty", rate=1000.0,
                                             rate_off=10.0),
                         templates={"count_hot": 1.0})
    first = open_arrivals(tenant, 50)
    second = open_arrivals(tenant, 50)
    assert [a.time for a in first] == [a.time for a in second]
    assert all(a.time <= b.time for a, b in zip(first, first[1:]))
    assert all(a.tenant == "t" for a in first)


def test_open_arrivals_rejects_closed_tenant():
    tenant = TenantClass(name="t",
                         arrival=ArrivalSpec(kind="closed"),
                         templates={"count_hot": 1.0})
    with pytest.raises(ValueError, match="closed-loop"):
        open_arrivals(tenant, 10)


def test_schedule_merges_and_skips_closed():
    open_tenant = TenantClass(
        name="open", seed=1,
        arrival=ArrivalSpec(kind="poisson", rate=1000.0),
        templates={"count_hot": 1.0})
    closed_tenant = TenantClass(
        name="closed", arrival=ArrivalSpec(kind="closed"),
        templates={"count_hot": 1.0})
    merged = schedule_for([open_tenant, closed_tenant],
                          {"open": 20, "closed": 99})
    assert len(merged) == 20
    assert all(a.tenant == "open" for a in merged)
    times = [a.time for a in merged]
    assert times == sorted(times)


def test_arrival_kind_validation():
    with pytest.raises(ValueError, match="unknown arrival kind"):
        ArrivalSpec(kind="lunar")


# ---------------------------------------------------------------------------
# QueryServer (batch mode, no clients)
# ---------------------------------------------------------------------------

def test_server_batch_submit_and_drain():
    server = make_server()
    records = [server.submit("a", "count_hot") for _ in range(5)]
    server.fabric.run()
    assert server.idle
    assert all(r.completed for r in records)
    assert all(r.checksum for r in records)
    assert len({r.checksum for r in records}) == 1  # same template
    assert server.accounting_violations() == []


def test_server_plan_cache_hits_after_first():
    server = make_server()
    for _ in range(4):
        server.submit("a", "count_hot")
    server.fabric.run()
    assert server.idle
    counters = server.metrics()["plan_cache"]
    assert counters["misses"] == 1
    assert counters["hits"] == 3
    kinds = [r.plan_cache for r in server.records]
    assert kinds == ["miss", "hit", "hit", "hit"]


def test_server_sheds_above_queue_bound():
    config = ServeConfig(max_concurrency=1, max_queue=1)
    server = make_server(config=config)
    seen = []
    for _ in range(5):
        record = server.submit("a", "count_hot",
                               on_done=seen.append)
    del record
    server.fabric.run()
    assert server.idle
    shed = [r for r in server.records if not r.admitted]
    # 1 running + 1 queued admitted at submission time; rest shed.
    assert len(shed) == 3
    assert all(r.retry_after_s > 0 for r in shed)
    assert len(seen) == 5  # on_done fired for shed and completed
    assert server.accounting_violations() == []


def test_server_unknown_template_and_tenant():
    server = make_server()
    with pytest.raises(ValueError):
        server.submit("a", "nope")
    with pytest.raises(KeyError):
        server.submit("ghost", "count_hot")


def test_tenant_validation():
    with pytest.raises(ValueError, match="unknown"):
        make_server(tenants=[
            TenantClass(name="a", templates={"no_such": 1.0})])
    with pytest.raises(ValueError, match="weight"):
        TenantClass(name="a", weight=0.0,
                    templates={"count_hot": 1.0})


# ---------------------------------------------------------------------------
# Clients as simulator processes
# ---------------------------------------------------------------------------

def _closed(name):
    """A tenant of one closed-loop client."""
    return TenantClass(name=name, slo_s=0.01, seed=7,
                       arrival=ArrivalSpec(kind="closed", population=1,
                                           think_s=0.001),
                       templates={"count_hot": 1.0})


def test_closed_loop_client_process():
    server = make_server()
    sim = server.fabric.sim
    latencies = []

    def client():
        for _ in range(5):
            reply = sim.event()
            server.submit("a", "count_hot", on_done=reply.succeed)
            record = yield reply
            latencies.append(record.latency)
            yield sim.timeout(0.001)

    proc = sim.process(client())
    sim.run()
    assert not proc.is_alive
    assert len(latencies) == 5
    assert all(lat > 0 for lat in latencies)
    assert server.idle


def test_open_arrivals_land_at_exact_times():
    server = make_server()
    sim = server.fabric.sim
    for i in range(10):
        sim.call_at(i * 0.001, partial(server.submit, "a", "count_hot"))
    sim.run()
    assert len(server.records) == 10
    assert [r.arrival for r in server.records] \
        == [i * 0.001 for i in range(10)]


def test_call_at_in_the_past_raises():
    server = make_server()
    sim = server.fabric.sim

    def client():
        yield sim.timeout(0.01)
        sim.call_at(0.001, partial(server.submit, "a", "count_hot"))

    sim.process(client())
    with pytest.raises(SimulationError, match="in the past"):
        sim.run()


def test_serving_run_names_a_client_the_server_never_answers():
    server = make_server()
    # A server that takes the submission and never calls ``on_done``.
    server.submit = lambda tenant, template, on_done=None: \
        SimpleNamespace(admitted=True)
    with pytest.raises(RuntimeError, match=r"stalled.*client\.c#0"):
        _serve_clients(server, [_closed("c")], {"c": 1})


def test_shed_reply_to_a_client_carries_retry_after():
    server = make_server(config=ServeConfig(max_concurrency=1,
                                            max_queue=1))
    sim = server.fabric.sim
    records = []

    def eager():
        # Three submits at t=0: one runs, one queues, and the third
        # finds the waiting room full and is shed.
        replies = [sim.event() for _ in range(3)]
        for reply in replies:
            server.submit("a", "count_hot", on_done=reply.succeed)
        done = yield sim.all_of(replies)
        records.extend(done.values())

    sim.process(eager())
    sim.run()
    shed = [r for r in records if not r.admitted]
    assert len(records) == 3
    assert len(shed) == 1
    assert shed[0].retry_after_s > 0


def test_closed_client_retries_a_shed_query_after_its_hint():
    flood = TenantClass(name="flood", slo_s=0.01, seed=3,
                        arrival=ArrivalSpec(kind="poisson",
                                            rate=20000.0),
                        templates={"count_hot": 1.0})
    server = make_server(config=ServeConfig(max_concurrency=1,
                                            max_queue=1),
                         tenants=[_closed("c"), flood])
    _serve_clients(server, [_closed("c"), flood],
                   {"c": 5, "flood": 60})
    mine = [r for r in server.records if r.tenant == "c"]
    assert sum(r.completed for r in mine) == 5
    retried = [(shed, after) for shed, after in zip(mine, mine[1:])
               if not shed.admitted]
    assert retried
    for shed, after in retried:
        assert after.arrival == shed.arrival + shed.retry_after_s
    assert server.accounting_violations() == []


# ---------------------------------------------------------------------------
# Scenarios: end-to-end serving runs
# ---------------------------------------------------------------------------

def test_scenario_two_tenant_bursty_end_to_end():
    record = run_scenario("two_tenant_bursty", queries=60)
    assert record["queries"] >= 60
    assert record["completed"] + record["shed"] == record["queries"]
    assert record["accounting_violations"] == []
    assert record["verification"]["mismatches"] == 0
    latency = record["latency"]
    assert 0 < latency["p50_s"] <= latency["p99_s"] <= latency["p999_s"]
    assert record["goodput_qps"] > 0
    assert record["plan_cache"]["hits"] > 0


def test_scenario_three_tenant_classes():
    record = run_scenario("three_tenant_mix", queries=90)
    assert record["requested_queries"] == 90
    assert record["queries"] >= 90  # ceiling splits never undershoot
    assert record["verification"]["queries_checked"] \
        == record["completed"]
    assert len(record["tenants"]) == 3
    for tenant in record["tenants"].values():
        assert tenant["completed"] > 0  # nobody starved


def test_scenario_overload_sheds_and_protects_steady_tenant():
    record = run_scenario("overload_shed", queries=120)
    assert record["shed"] > 0
    tenants = record["tenants"]
    flood, steady = tenants["flood"], tenants["steady"]
    assert flood.get("shed", 0) > 0
    # The weighted fair queue + admission keep the steady tenant's
    # completion rate far above the flooding tenant's.
    steady_rate = steady["completed"] / steady["submitted"]
    flood_rate = flood["completed"] / flood["submitted"]
    assert steady_rate > flood_rate


def test_scenario_is_deterministic():
    first = run_scenario("two_tenant_bursty", queries=40,
                         verify=False)
    second = run_scenario("two_tenant_bursty", queries=40,
                          verify=False)
    assert first == second


def test_scenario_unknown_name():
    with pytest.raises(ValueError, match="unknown serve scenario"):
        run_scenario("nope")


# ---------------------------------------------------------------------------
# Bench integration: v3 schema + compare gating
# ---------------------------------------------------------------------------

def test_v3_report_with_serving_validates():
    serving = run_suite("serving", ["two_tenant_bursty"], queries=40)
    report = make_report("t", smoke=[], serving=serving)
    assert report["schema"] == "repro.bench/v3"
    validate_report(report)


def test_v3_report_missing_serving_section_fails():
    report = make_report("t", smoke=[])
    del report["serving"]
    with pytest.raises(ValueError, match="serving"):
        validate_report(report)


def test_serving_record_schema_violations_detected():
    serving = run_suite("serving", ["two_tenant_bursty"], queries=40)
    report = make_report("t", smoke=[], serving=serving)
    report["serving"][0]["slo_violations"] = \
        report["serving"][0]["completed"] + 1
    with pytest.raises(ValueError,
                       match="more SLO violations than completions"):
        validate_report(report)


def test_compare_gates_serving_metrics():
    serving = run_suite("serving", ["two_tenant_bursty"], queries=40)
    baseline = make_report("base", smoke=[], serving=serving)

    fresh = [dict(serving[0])]
    assert compare_reports(baseline, {"serving": fresh}) == []

    # Checksums and counts gate exactly.
    broken = [dict(serving[0])]
    broken[0]["checksum"] = "0" * 64
    violations = compare_reports(baseline, {"serving": broken})
    assert any("checksum" in v for v in violations)

    drifted = [dict(serving[0])]
    drifted[0]["shed"] = serving[0]["shed"] + 1
    violations = compare_reports(baseline, {"serving": drifted})
    assert any("shed" in v for v in violations)

    # Percentiles gate within tolerance.
    slow = [dict(serving[0])]
    slow[0]["latency"] = dict(serving[0]["latency"])
    slow[0]["latency"]["p99_s"] = serving[0]["latency"]["p99_s"] * 2
    violations = compare_reports(baseline, {"serving": slow})
    assert any("latency.p99_s" in v for v in violations)
    assert compare_reports(baseline, {"serving": slow},
                           tolerance=2.0) == []

    missing = compare_reports(baseline, {"serving": []})
    assert any("missing from fresh run" in v for v in missing)


def test_serving_rerun_reproduces_baseline():
    """The full regression-gate loop: re-running a serving scenario
    with the baseline's (rows, requested_queries) reproduces every
    gated metric bit for bit."""
    first = run_suite("serving", ["two_tenant_bursty"], queries=40)
    baseline = make_report("base", smoke=[], serving=first)
    again = run_suite(
        "serving", ["two_tenant_bursty"],
        rows=first[0]["rows"],
        queries=first[0]["requested_queries"])
    assert compare_reports(baseline, {"serving": again}) == []


def test_counter_handles_do_not_grow_with_served_queries():
    # A channel's or stage's counter names carry its query's graph name
    # and never recur; only names a later construction binds again
    # (links, devices, shared totals) are interned on the trace.
    from repro.serve import serve_scenario
    from repro.serve.scenarios import serve_scenario_server
    config = dataclasses.replace(serve_scenario("three_tenant_mix").config,
                                 telemetry=False, observatory=False)
    handles = [len(serve_scenario_server(
        "three_tenant_mix", queries=n, config=config).fabric.trace._handles)
        for n in (300, 600)]
    assert handles[0] == handles[1] < 100


# ---------------------------------------------------------------------------
# Result checksums: one render per distinct answer
# ---------------------------------------------------------------------------

def _answer(columns: dict):
    """A stand-in result: the two things a checksum reads of a table."""
    return SimpleNamespace(schema=SimpleNamespace(names=list(columns)),
                           column=columns.__getitem__)


def test_server_renders_each_distinct_answer_once(monkeypatch):
    from repro.obs import table_checksum
    from repro.serve import serve_scenario, server as served
    from repro.serve.scenarios import serve_scenario_server
    renders = []
    render = served.columns_checksum
    monkeypatch.setattr(served, "columns_checksum",
                        lambda names, columns: renders.append(names)
                        or render(names, columns))
    config = dataclasses.replace(serve_scenario("three_tenant_mix").config,
                                 telemetry=False, observatory=False)
    server = serve_scenario_server("three_tenant_mix", queries=300,
                                   config=config)
    done = [r for r in server.records if r.completed]
    assert len(done) == 300
    for record in done:
        assert record.checksum == table_checksum(record.table)
    answers = {tuple((name, record.table.column(name).dtype.str,
                      tuple(record.table.column(name).tolist()))
                     for name in record.table.schema.names)
               for record in done}
    assert len(renders) == len(answers) == 5

    # Anything but the same names, dtypes and bytes renders afresh.
    base = np.arange(6, dtype=np.int64)
    changed = base.copy()
    changed[3] = 7
    tables = [
        _answer({"k": base}),
        _answer({"k": changed}),                    # one value differs
        _answer({"j": base}),                       # another column name
        _answer({"k": base.view(np.float64)}),      # another dtype
        _answer({"k": base.astype(object)}),        # no key: always renders
        _answer({"k": base.astype(object)}),
    ]
    renders.clear()
    checksums = [server._checksum(table) for table in tables]
    assert len(renders) == len(tables)
    assert checksums == [table_checksum(table) for table in tables]
    assert server._checksum(_answer({"k": base.copy()})) == checksums[0]
    assert len(renders) == len(tables)


def test_served_queries_are_freed_by_reference_counting():
    # A stage holds its graph's simulator, trace and flow switch, not the
    # graph: a back-reference made every served query's stage graph
    # cyclic garbage (about 23 000 objects per 300 queries) that lived
    # until a full collection.
    import gc

    from repro.serve.scenarios import serve_scenario_server
    gc.collect()
    gc.disable()
    try:
        server = serve_scenario_server("three_tenant_mix", queries=300)
        assert sum(r.completed for r in server.records) >= 300
        assert gc.collect() < 1000
    finally:
        gc.enable()


def test_a_served_query_adds_few_trace_counters():
    # Per-query trace records that nothing read (per-channel bytes and
    # messages, per-stage row counts, serve.*/sched.*/engine.* copies
    # of the serving record) made each served query add about 20
    # counter keys; what is left is each stage's chunks_in and the
    # stall counters of the channels and stages that stalled.
    from repro.serve.scenarios import serve_scenario_server

    def census(queries):
        server = serve_scenario_server("three_tenant_mix", queries=queries)
        served = sum(r.completed for r in server.records)
        return len(server.fabric.trace.counters), served

    keys_small, served_small = census(100)
    keys_large, served_large = census(200)
    assert served_large > served_small
    per_query = (keys_large - keys_small) / (served_large - served_small)
    assert per_query <= 4.0, per_query


def test_finished_queries_leave_no_cyclic_garbage():
    # A span pointed back at the trace that lists it, so every finished
    # fabric's trace was cyclic garbage: five F6 queries at 4 000 rows
    # left 1 135 objects on the dataflow engine and 780 on Volcano.
    import gc

    from repro.analysis.scenarios import QUERIES
    from repro.engine import DataflowEngine, VolcanoEngine
    from repro.hardware import build_fabric, dataflow_spec
    from repro.relational import standard_catalog
    catalog = standard_catalog(4000)
    for engine in (DataflowEngine, VolcanoEngine):
        gc.collect()
        gc.disable()
        try:
            for _ in range(5):
                result = engine(build_fabric(dataflow_spec()),
                                catalog).execute(QUERIES["f6"]())
                assert result.rows > 0
            assert gc.collect() == 0, engine.__name__
        finally:
            gc.enable()
