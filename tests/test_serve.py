"""End-to-end tests for the multi-tenant serving stack."""

import asyncio
import dataclasses
import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.observatory import Observatory
from repro.bench import compare_reports, run_suite
from repro.obs import make_report, validate_report
from repro.serve import (
    AdmissionController,
    ArrivalSpec,
    AsyncFrontEnd,
    QueryServer,
    ServeConfig,
    ShedResponse,
    TenantClass,
    open_arrivals,
    run_scenario,
    schedule_for,
    serve_templates,
)
from repro.serve.telemetry import ServeTelemetry
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
        "tenants", "trace", "window_s", "link_bandwidth"]


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_admission_sheds_when_queue_full():
    ctrl = AdmissionController(max_queue=2, max_concurrency=2)
    assert ctrl.decide(queued=1, running=2, backlog_cost_s=0.1).admitted
    verdict = ctrl.decide(queued=2, running=2, backlog_cost_s=0.1)
    assert not verdict.admitted
    assert verdict.retry_after_s == pytest.approx(0.05)
    assert "queue full" in verdict.reason
    assert ctrl.counters() == {"admitted": 1, "shed": 1}


def test_admission_retry_after_has_floor():
    ctrl = AdmissionController(max_queue=0, max_concurrency=4)
    verdict = ctrl.decide(queued=0, running=4, backlog_cost_s=0.0)
    assert not verdict.admitted
    assert verdict.retry_after_s >= 1e-3


def test_admission_rejects_bad_config():
    with pytest.raises(ValueError):
        AdmissionController(max_queue=-1, max_concurrency=1)
    with pytest.raises(ValueError):
        AdmissionController(max_queue=1, max_concurrency=0)


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
# QueryServer (batch mode, no asyncio)
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
    counters = server.plan_cache.counters()
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
# Async front-end
# ---------------------------------------------------------------------------

def test_frontend_closed_loop_client():
    server = make_server()
    front = AsyncFrontEnd(server)
    latencies = []

    async def client():
        for _ in range(5):
            record = await front.submit("a", "count_hot")
            latencies.append(record.latency)
            await front.sleep_until(front.now + 0.001)

    front.serve([client()])
    assert len(latencies) == 5
    assert all(lat > 0 for lat in latencies)
    assert server.idle


def test_frontend_open_loop_submissions():
    server = make_server()
    front = AsyncFrontEnd(server)

    async def replay():
        futures = [front.submit("a", "count_hot", at=i * 0.001)
                   for i in range(10)]
        await asyncio.gather(*futures)

    front.serve([replay()])
    assert len(server.records) == 10
    arrivals = [r.arrival for r in server.records]
    assert arrivals == pytest.approx([i * 0.001 for i in range(10)])


def test_frontend_rejects_past_scheduling():
    server = make_server()
    front = AsyncFrontEnd(server)

    async def client():
        await front.sleep_until(0.01)
        front.submit("a", "count_hot", at=0.001)  # in the past

    with pytest.raises(ValueError, match="cannot schedule"):
        front.serve([client()])


def test_frontend_detects_deadlocked_population():
    server = make_server()
    front = AsyncFrontEnd(server)

    async def deadlocked():
        # Waits on a future nothing will ever resolve.
        await asyncio.get_running_loop().create_future()

    with pytest.raises(RuntimeError, match="stalled"):
        front.serve([deadlocked()])


def test_frontend_shed_response_to_closed_client():
    config = ServeConfig(max_concurrency=1, max_queue=1)
    server = make_server(config=config)
    front = AsyncFrontEnd(server)
    responses = []

    async def eager():
        # Three concurrent submits at t=0: one runs, one queues, and
        # the third finds the waiting room full and is shed.
        futures = [front.submit("a", "count_hot") for _ in range(3)]
        responses.extend(await asyncio.gather(*futures))

    front.serve([eager()])
    kinds = [type(r).__name__ for r in responses]
    assert kinds.count("ShedResponse") == 1
    shed = next(r for r in responses if isinstance(r, ShedResponse))
    assert shed.retry_after_s > 0


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
    assert validate_report(report) == ""


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
    reason = validate_report(report, strict=False)
    assert "more SLO violations than completions" in reason


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
