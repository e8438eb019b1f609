"""Serving telemetry: sketches, windows, burn rates, exemplars.

Pins the PR-7 contracts: the quantile sketch is bit-equal to the
server's nearest-rank percentiles while uncompressed and within its
self-documented rank-error bound when compressed; burn-rate alert
edge cases (exactly-at-threshold, empty windows, zero-completion
tenants); the alert stream is reconstructible from the windowed
series; telemetry is a pure observer (bit-identical checksums and
completion order with telemetry on and off); and the telemetry
payload digest is bit-reproducible.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.slo import (
    BurnRateMonitor,
    SLOPolicy,
    alert_mismatches,
    burn_rate,
    replay_alerts,
)
from repro.serve import SERVE_SCENARIOS, run_scenario
from repro.serve.server import latency_percentile
from repro.serve.telemetry import QuantileSketch, nearest_rank

latencies_lists = st.lists(
    st.floats(min_value=1e-9, max_value=10.0, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=200)


# -- quantile sketch -------------------------------------------------------

@given(latencies_lists, st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.0]))
@settings(max_examples=50, deadline=None)
def test_sketch_bit_equal_to_latency_percentile_uncompressed(
        values, q):
    sketch = QuantileSketch(capacity=256)
    for value in values:
        sketch.add(value)
    if len(values) <= 256:
        assert sketch.exact
        assert sketch.quantile(q) == latency_percentile(values, q)


@given(latencies_lists, latencies_lists)
@settings(max_examples=50, deadline=None)
def test_sketch_merge_equals_bulk_build_in_exact_regime(a, b):
    left = QuantileSketch(capacity=1024)
    right = QuantileSketch(capacity=1024)
    for value in a:
        left.add(value)
    for value in b:
        right.add(value)
    left.merge(right)
    assert left.exact
    for q in (0.5, 0.99):
        assert left.quantile(q) == latency_percentile(a + b, q)


@given(latencies_lists, latencies_lists, latencies_lists)
@settings(max_examples=30, deadline=None)
def test_sketch_merge_associative_in_exact_regime(a, b, c):
    def build(values):
        sketch = QuantileSketch(capacity=2048)
        for value in values:
            sketch.add(value)
        return sketch

    left = build(a).merge(build(b)).merge(build(c))
    right = build(a).merge(build(b).merge(build(c)))
    assert left.to_dict() == right.to_dict()


@given(st.lists(st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False), min_size=50,
                max_size=2000),
       st.integers(min_value=4, max_value=64))
@settings(max_examples=30, deadline=None)
def test_sketch_rank_error_within_documented_bound(values, capacity):
    sketch = QuantileSketch(capacity=capacity)
    for value in values:
        sketch.add(value)
    ordered = sorted(values)
    for q in (0.5, 0.9, 0.99):
        got = sketch.quantile(q)
        rank = nearest_rank(len(ordered), q)
        bound = sketch.rank_error_bound
        lo = max(0, rank - 1 - bound)
        hi = min(len(ordered) - 1, rank - 1 + bound)
        assert ordered[lo] <= got <= ordered[hi]


def test_sketch_adversarial_distributions():
    """Heavy ties, sorted ramps and bimodal spikes stay in bound."""
    adversarial = [
        [0.001] * 500 + [1.0] * 3,                   # near-constant
        [i / 1000 for i in range(1000)],             # sorted ramp
        [1.0 - i / 1000 for i in range(1000)],       # reverse ramp
        [0.0001] * 400 + [5.0] * 400,                # bimodal
        [2.0 ** -i for i in range(1, 300)],          # geometric tail
    ]
    for values in adversarial:
        sketch = QuantileSketch(capacity=32)
        for value in values:
            sketch.add(value)
        ordered = sorted(values)
        for q in (0.5, 0.99):
            got = sketch.quantile(q)
            rank = nearest_rank(len(ordered), q)
            bound = sketch.rank_error_bound
            lo = max(0, rank - 1 - bound)
            hi = min(len(ordered) - 1, rank - 1 + bound)
            assert ordered[lo] <= got <= ordered[hi]


def test_sketch_deterministic_and_serializable():
    values = [((i * 2654435761) % 1000) / 1000 + 1e-6
              for i in range(5000)]
    a = QuantileSketch(capacity=64)
    b = QuantileSketch(capacity=64)
    for value in values:
        a.add(value)
        b.add(value)
    assert a.to_dict() == b.to_dict()
    assert json.loads(json.dumps(a.to_dict())) == a.to_dict()


def test_sketch_counts_weights_not_points():
    sketch = QuantileSketch(capacity=4)
    for _ in range(100):
        sketch.add(0.5)
    assert sketch.count == 100
    # 100 equal values coalesce to one point: no compression needed.
    assert sketch.exact
    assert sketch.quantile(0.99) == 0.5


# -- burn-rate edge cases --------------------------------------------------

def test_burn_exactly_at_threshold_fires():
    # target .75 -> budget .25 (exact in binary); 1 violation per 4
    # completions is a burn of exactly 1.0, and >= semantics means
    # it FIRES.
    policy = SLOPolicy(target=0.75, threshold=1.0, fast_windows=1,
                       slow_windows=1)
    monitor = BurnRateMonitor(policy)
    alert = monitor.observe(0, completions=4, violations=1, at=1.0)
    assert alert is not None and alert["kind"] == "fired"
    assert alert["fast_burn"] == 1.0


def test_burn_empty_windows_are_silence_and_resolve():
    policy = SLOPolicy(target=0.9, threshold=1.0, fast_windows=1,
                       slow_windows=1)
    monitor = BurnRateMonitor(policy)
    assert monitor.observe(0, 0, 0, at=1.0) is None  # idle: no 0/0
    fired = monitor.observe(1, 10, 10, at=2.0)
    assert fired is not None and fired["kind"] == "fired"
    resolved = monitor.observe(2, 0, 0, at=3.0)
    assert resolved is not None and resolved["kind"] == "resolved"


def test_burn_zero_completion_tenant_never_alerts():
    policy = SLOPolicy(target=0.99, threshold=1.0, fast_windows=2,
                       slow_windows=4)
    monitor = BurnRateMonitor(policy)
    for index in range(20):
        assert monitor.observe(index, 0, 0, at=float(index)) is None
    assert not monitor.burning


def test_burn_zero_budget_any_violation_is_infinite():
    assert burn_rate(1, 100, budget=0.0) == float("inf")
    assert burn_rate(0, 100, budget=0.0) == 0.0
    policy = SLOPolicy(target=1.0, threshold=1.0, fast_windows=1,
                       slow_windows=1)
    monitor = BurnRateMonitor(policy)
    alert = monitor.observe(0, completions=5, violations=1, at=1.0)
    assert alert is not None and alert["kind"] == "fired"


def test_burn_slow_window_suppresses_one_bad_window():
    # One terrible window out of many good ones must not page when
    # the slow span still has budget.
    policy = SLOPolicy(target=0.9, threshold=1.0, fast_windows=1,
                       slow_windows=10)
    monitor = BurnRateMonitor(policy)
    for index in range(9):
        assert monitor.observe(index, 100, 0,
                               at=float(index)) is None
    # fast burn = 10.0, slow burn = 10/910/0.1 ≈ 0.11 -> no alert.
    assert monitor.observe(9, 10, 10, at=9.0) is None


def test_monitor_rejects_sparse_windows():
    monitor = BurnRateMonitor(SLOPolicy())
    monitor.observe(0, 1, 0, at=1.0)
    with pytest.raises(ValueError, match="densely"):
        monitor.observe(2, 1, 0, at=3.0)


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                min_size=1, max_size=60),
       st.floats(min_value=0.5, max_value=0.999))
@settings(max_examples=50, deadline=None)
def test_alert_stream_reconstructible_from_series(pairs, target):
    policy = SLOPolicy(target=target, threshold=1.0, fast_windows=2,
                       slow_windows=6)
    monitor = BurnRateMonitor(policy)
    series, live = [], []
    for index, (completions, extra) in enumerate(pairs):
        violations = min(extra, completions)
        alert = monitor.observe(index, completions, violations,
                                at=(index + 1) * 0.005)
        if alert is not None:
            live.append({"tenant": "t", **alert})
        series.append({"window": index, "completions": completions,
                       "violations": violations})
    assert replay_alerts(series, policy, 0.005) == [
        {k: v for k, v in alert.items() if k != "tenant"}
        for alert in live]
    assert alert_mismatches({"t": series}, {"t": policy}, live,
                            0.005) == []


def test_alert_mismatch_detected():
    policy = SLOPolicy(target=0.9, threshold=1.0, fast_windows=1,
                       slow_windows=1)
    series = [{"window": 0, "completions": 10, "violations": 10}]
    forged = []  # the live stream "lost" the fired alert
    errors = alert_mismatches({"t": series}, {"t": policy}, forged,
                              0.005)
    assert errors and "not reconstructible" in errors[0]


# -- end-to-end serving telemetry ------------------------------------------

def _small_run(scenario="two_tenant_bursty", queries=60, **overrides):
    config = SERVE_SCENARIOS[scenario].config
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return run_scenario(scenario, queries=queries, config=config)


def test_telemetry_payload_shape_and_violations():
    record = _small_run()
    telemetry = record["telemetry"]
    assert telemetry["schema"] == "repro.serve-telemetry/v1"
    assert record["telemetry_violations"] == []
    assert record["accounting_violations"] == []
    windows = telemetry["windows"]
    for tenant, data in telemetry["tenants"].items():
        series = data["series"]
        assert len(series) == windows  # dense: every window present
        assert [entry["window"] for entry in series] == \
            list(range(windows))
        assert sum(e["completions"] for e in series) == \
            record["tenants"][tenant]["completed"]
        assert sum(e["sheds"] for e in series) == \
            record["tenants"][tenant]["shed"]


def test_telemetry_digest_reproducible():
    first = _small_run()
    second = _small_run()
    assert first["telemetry_digest"] == second["telemetry_digest"]
    assert first["telemetry"] == second["telemetry"]


def test_telemetry_zero_observer_effect():
    on = _small_run()
    off = _small_run(telemetry=False)
    assert "telemetry" not in off
    assert off["checksum"] == on["checksum"]
    assert off["completion_order"] == on["completion_order"]
    assert off["slo_violations"] == on["slo_violations"]
    assert off["latency"] == on["latency"]


def test_exemplars_attributed_exactly():
    record = _small_run()
    exemplars = record["telemetry"]["exemplars"]
    assert exemplars, "a completed run must produce tail exemplars"
    for exemplar in exemplars:
        attribution = exemplar["attribution"]
        assert attribution["exact"] is True  # tolerance 0
        assert attribution["finished_at"] - attribution["started_at"] \
            == exemplar["latency_s"]
        assert exemplar["slice_complete"] is True
        assert exemplar["events"], "exemplar kept no event slice"
        qid = exemplar["qid"]
        assert all(e.get("qid") == qid for e in exemplar["events"])


def test_alerts_fire_and_reconcile_on_bursty_scenario():
    record = run_scenario("two_tenant_bursty")  # full-size: violations
    telemetry = record["telemetry"]
    assert record["slo_violations"] > 0
    assert any(a["kind"] == "fired" for a in telemetry["alerts"])
    assert record["telemetry_violations"] == []
    # Alert events made it into the trace-facing payload ordering:
    # alerts arrive window-ordered, tenants sorted within a window.
    keys = [(a["window"], a["tenant"]) for a in telemetry["alerts"]]
    assert keys == sorted(keys)
    # Independent replay from the *serialized* payload alone: policies
    # rebuilt from their JSON form, the alert stream from the series.
    stored = json.loads(json.dumps(telemetry))
    policies = {tenant: SLOPolicy(**data["policy"])
                for tenant, data in stored["tenants"].items()}
    series = {tenant: data["series"]
              for tenant, data in stored["tenants"].items()}
    assert alert_mismatches(series, policies, stored["alerts"],
                            stored["window_s"]) == []


def test_serve_record_carries_qid_per_query():
    record = _small_run(queries=40)
    qids = [r["qid"] for r in record["records"]]
    assert all(qid > 0 for qid in qids)
    assert len(set(qids)) == len(qids)  # one trace context per query


# -- report validation (obs) ----------------------------------------------

def _wrap_report(record):
    return {"schema": "repro.report/v1", "run": {"seed": 0},
            "results": [], "serving": [record]}


def test_obs_rejects_empty_records_list():
    from repro.obs import report_violations

    record = _small_run(queries=20)
    good = _wrap_report(record)
    assert [v for v in report_violations(good)
            if v.startswith("serving")] == []

    empty = dict(record)
    empty["records"] = []
    violations = report_violations(_wrap_report(empty))
    assert any("'records' list is empty" in v for v in violations)

    # A record with *no* records key (bench strips it) stays valid.
    stripped = {k: v for k, v in record.items() if k != "records"}
    assert [v for v in report_violations(_wrap_report(stripped))
            if "records" in v] == []


def test_obs_validates_telemetry_section():
    from repro.obs import report_violations

    record = _small_run(queries=20)
    broken = dict(record)
    telemetry = {k: (v if k != "schema" else "bogus/v0")
                 for k, v in record["telemetry"].items()}
    broken["telemetry"] = telemetry
    violations = report_violations(_wrap_report(broken))
    assert any("telemetry schema" in v for v in violations)

    sparse = dict(record)
    tenants = {
        name: {**data,
               "series": data["series"][:-1]}  # drop last window
        for name, data in record["telemetry"]["tenants"].items()}
    sparse["telemetry"] = {**record["telemetry"], "tenants": tenants}
    violations = report_violations(_wrap_report(sparse))
    assert any("dense" in v or "series" in v for v in violations)


# -- perfetto tenants track (satellite 1) ----------------------------------

def test_chrome_trace_tenant_lanes_and_no_dangling_flows():
    from repro.serve import serve_scenario_server
    from repro.sim.chrometrace import chrome_trace

    server = serve_scenario_server("two_tenant_bursty", queries=40)
    trace = server.fabric.trace
    trace.close_open_spans()
    payload = chrome_trace(trace)
    events = payload["traceEvents"]

    lanes = {e["args"]["name"] for e in events
             if e.get("ph") == "M" and e["name"] == "thread_name"
             and e["pid"] == 7}
    assert {"tenant:gold", "tenant:bronze"} <= lanes

    slices = [e for e in events
              if e.get("pid") == 7 and e.get("ph") == "X"]
    assert len(slices) == 40  # every completed query, exactly once
    assert all("qid" in s["args"] for s in slices)

    starts = [e["id"] for e in events if e.get("ph") == "s"]
    finishes = [e["id"] for e in events if e.get("ph") == "f"]
    assert sorted(starts) == sorted(finishes)  # no dangling arrows

    # Scheduled-query spans belong on the queries track, not "other".
    sched = [e for e in events if e.get("cat") == "span"
             and e["name"].startswith("sched.")]
    assert sched and all(e["pid"] == 1 for e in sched)
