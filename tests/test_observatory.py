"""The runtime saturation observatory: series, bound, regret, gates.

The expensive serving run is shared module-wide; every test reads the
same server/record.  Exactness claims are all tolerance 0 — the
observatory is exact integer-tick arithmetic end to end.
"""

import collections
import copy
import dataclasses
import functools
import gc
import json
import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.analysis import (
    Observatory,
    OBSERVATORY_SCHEMA,
    WinnerTimeline,
    attribute,
    attribute_windows,
    bound_class,
    effective_cost,
    raw_intervals,
    render_top,
)
from repro.obs import report_violations, make_report
from repro.serve import SERVE_SCENARIOS, run_scenario
from repro.serve.dashboard import render_dashboard, write_dashboard
from repro.serve.scenarios import serve_scenario_server
from repro.sim import EventKind, EventRing, Trace

QUERIES = 60


@pytest.fixture(scope="module")
def server():
    return serve_scenario_server("two_tenant_bursty",
                                 queries=QUERIES)


@pytest.fixture(scope="module")
def record(server):
    return server.report("two_tenant_bursty")


# ---------------------------------------------------------------------------
# Tentpole: the series reconcile exactly, every invariant recomputed
# ---------------------------------------------------------------------------

def test_observatory_violations_empty(server):
    assert server.observatory_violations() == []


def test_window_sums_telescope_to_whole_horizon(server):
    obs = server.observatory
    trace = server.fabric.trace
    whole = attribute(trace, 0.0, obs._horizon)
    totals = {}
    for window in obs._windows:
        for name, value in window.buckets.items():
            totals[name] = totals.get(name, Fraction(0)) + value
    assert totals == whole.buckets  # Fraction-exact, tolerance 0


def test_every_window_tiles_exactly(server):
    obs = server.observatory
    for i, window in enumerate(obs._windows):
        width = (Fraction(obs._edges[i + 1])
                 - Fraction(obs._edges[i]))
        assert sum(window.buckets.values(), Fraction(0)) == width
        assert window.exact


def test_per_query_attribution_equals_window_clipped_sums(server):
    obs = server.observatory
    trace = server.fabric.trace
    timeline = WinnerTimeline(trace)
    for rec in [r for r in server.records if r.completed][:10]:
        # The reference sweep of the query's own window ...
        whole = attribute(trace, rec.arrival, rec.finished,
                          intervals=timeline.intervals)
        pieces = {}
        for i in range(len(obs._edges) - 1):
            q0 = max(rec.arrival, obs._edges[i])
            q1 = min(rec.finished, obs._edges[i + 1])
            if q1 <= q0:
                continue
            # ... equals its window-clipped timeline slices, summed.
            part = timeline.attribute(q0, q1)
            for name, value in part.buckets.items():
                pieces[name] = pieces.get(name, Fraction(0)) + value
        assert pieces == whole.buckets
        assert timeline.attribute(rec.arrival,
                                  rec.finished).buckets == whole.buckets


def test_window_of_agrees_with_the_edges_it_slices_on():
    window_s = 0.001
    # One ulp below the edges 9 * window_s and 13 * window_s, where
    # ``int(ts / window_s)`` rounds up into the next window.
    below_9 = math.nextafter(9 * window_s, 0.0)
    below_13 = math.nextafter(13 * window_s, 0.0)
    assert int(below_9 / window_s) == 9
    assert int(below_13 / window_s) == 13
    trace = Trace()
    trace.close_span(trace.open_span("device.cpu", 0.0085), 0.0095)
    trace.close_span(trace.open_span("link.bus", below_9), 0.0095)
    obs = Observatory(["t"], trace, window_s=window_s,
                      link_bandwidth={"bus": 1e9})
    records = [
        SimpleNamespace(name="a", tenant="t", arrival=below_9,
                        started=below_9, finished=0.0105,
                        completed=True, variant_name="v"),
        SimpleNamespace(name="b", tenant="t", arrival=0.0101,
                        started=0.0101, finished=below_13,
                        completed=True, variant_name="v")]
    for record in records:
        obs.on_complete(record)
    obs.finalize(0.02)
    assert obs._windows_of([below_9, 9 * window_s]) == [8, 9]
    # Query "a"'s first piece, [below_9, edge 9), is one ulp wide.
    assert obs.observatory_violations(records) == []
    payload = obs.payload()
    assert "bus" in payload["series"][8]["link_bytes"]
    assert [entry["window"] for entry in payload["bound"]["queries"]] \
        == [10, 12]


# ---------------------------------------------------------------------------
# Observer budget, by count: one sweep per run, one reference pass per
# verification whatever the number of queries or samples
# ---------------------------------------------------------------------------

@pytest.fixture
def calls(monkeypatch):
    """Count raw-interval passes, timeline builds, reference passes
    and scalar regret scores."""
    from repro.analysis import critical_path
    counts = collections.Counter()

    def counted(name, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(critical_path, "raw_intervals", counted(
        "raw_intervals", critical_path.raw_intervals))
    monkeypatch.setattr(WinnerTimeline, "__init__", counted(
        "timeline_builds", WinnerTimeline.__init__))
    for function, name in ((attribute, "one_window_references"),
                           (attribute_windows, "reference_passes"),
                           (effective_cost, "scalar_regret_scores")):
        wrapper = counted(name, function)
        for module in list(sys.modules.values()):
            if getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, wrapper)
    return counts


def test_observers_share_one_sweep_and_verify_cost_ignores_queries(calls):
    for queries in (30, 90):
        server = serve_scenario_server("two_tenant_bursty",
                                       queries=queries)
        calls.clear()
        server.report("budget")  # both observers' finalize
        assert server.telemetry.timeline is server.observatory.timeline
        assert server.telemetry.exemplars
        # The regret score is the vectorised pass: no scalar
        # ``effective_cost`` call inside finalize.
        assert dict(calls) == {"raw_intervals": 1, "timeline_builds": 1}

        obs = server.observatory
        variants = sum(len(v) for _r, v, _d in obs._completed)
        assert variants > 2 * len(obs._regret) > 0
        for sample in (5, 25):
            calls.clear()
            assert obs.observatory_violations(
                server.records, query_sample=sample) == []
            assert len(obs._completed) > sample
            # Every tumbling window, the whole horizon and each sampled
            # query in one pass — whatever the number of queries — and
            # the scalar reference once per variant per scored query.
            assert dict(calls) == {"reference_passes": 1,
                                   "scalar_regret_scores": variants}


def test_finalize_builds_no_fraction_outside_the_window_buckets(
        monkeypatch):
    server = serve_scenario_server("two_tenant_bursty", queries=90)
    obs = server.observatory
    obs.timeline = WinnerTimeline(server.fabric.trace)
    built = collections.Counter()

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built["fractions"] += 1
            return super().__new__(cls, *args, **kwargs)

    analysis = [module for name, module in list(sys.modules.items())
                if name.startswith("repro.analysis")
                and getattr(module, "Fraction", None) is Fraction]
    assert analysis
    for module in analysis:
        monkeypatch.setattr(module, "Fraction", Counted)
    obs.finalize(server.fabric.sim.now)
    assert len(obs._bound) > 80 and len(obs._regret) > 80
    # The 1 000-odd slices, shares, dominants and regret scores of 90
    # queries are integer work.
    assert built["fractions"] <= sum(len(w.ticks) for w in obs._windows)


def test_timeline_build_allocates_per_run_not_per_edge():
    # Per-edge ``(point, key, step)`` tuples held for the sort would
    # force a gen-0 collection per 350 intervals; the per-key numpy
    # pass keeps about one container per run alive.
    server = serve_scenario_server("two_tenant_bursty", queries=90)
    intervals = raw_intervals(server.fabric.trace)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    threshold = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.callbacks.append(count)
    try:
        timeline = WinnerTimeline(server.fabric.trace, intervals)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
    runs = len(timeline._starts)
    assert len(intervals) > 4 * runs > 2000
    assert len(collections) <= runs // 700 + 1 < 2 * len(intervals) // 700


def test_payload_is_built_once_and_handed_out_as_copies(server, record):
    obs = server.observatory
    first = obs.payload()
    assert first == record["observatory"] and first is not obs.payload()
    first["series"].clear()
    first["bound"]["queries"][0]["bucket"] = "tampered"
    assert obs.payload() == record["observatory"]
    assert obs.digest() == record["observatory_digest"]


def test_payload_structure(record):
    obs = record["observatory"]
    assert obs["schema"] == OBSERVATORY_SCHEMA
    assert obs["windows"] == len(obs["series"])
    assert obs["pools"] == sorted(obs["pools"])
    assert not obs["partial"] and obs["partial_reason"] == ""
    for i, entry in enumerate(obs["series"]):
        assert entry["window"] == i
        assert entry["end"] > entry["start"]
        for key in ("pools", "saturation", "link_bytes"):
            assert key in entry
    # Saturation is share-of-window: each window's shares sum to 1.
    for entry in obs["series"]:
        assert sum(entry["saturation"].values()) == \
            pytest.approx(1.0, abs=1e-9)


def test_link_bytes_positive_and_per_link(record):
    obs = record["observatory"]
    moved = {}
    for entry in obs["series"]:
        for link, nbytes in entry["link_bytes"].items():
            assert nbytes > 0
            moved[link] = moved.get(link, 0.0) + nbytes
    assert moved, "no link moved any bytes in a serving run?"
    assert all(not link.startswith("link:") for link in moved)


def test_bound_classifier_counts_and_classes(server, record):
    obs = record["observatory"]
    completed = sum(1 for r in server.records if r.completed)
    tagged = obs["bound"]["queries"]
    assert len(tagged) == completed == record["completed"]
    for entry in tagged:
        assert entry["class"] == bound_class(entry["bucket"])
        assert 0.0 <= entry["share"] <= 1.0
    by_tenant = obs["bound"]["by_tenant"]
    assert sum(c for cell in by_tenant.values()
               for c in cell.values()) == completed
    windowed = sum(c for entry in obs["bound"]["series"]
                   for cell in entry["tenants"].values()
                   for c in cell.values())
    assert windowed == completed


def test_bound_class_collapses_pools():
    assert bound_class("device:compute0.cpu") == "device"
    assert bound_class("storage:storage.media") == "storage"
    assert bound_class("nic:compute0.nic.dma") == "nic"
    assert bound_class("link:net.storage") == "link"
    assert bound_class("wait:other") == "wait:other"
    assert bound_class("wait:credit") == "wait:credit"


def test_regret_entries_scored_for_every_completion(server, record):
    obs = record["observatory"]
    regret = obs["regret"]
    assert len(regret["queries"]) == record["completed"]
    for entry in regret["queries"]:
        assert entry["regret_s"] >= 0.0
        assert entry["best_eff_s"] <= entry["chosen_eff_s"]
        if entry["chosen"] == entry["best"]:
            assert entry["regret_s"] == 0.0
    leaders = regret["leaders"]
    values = [e["regret_s"] for e in leaders]
    assert values == sorted(values, reverse=True)
    assert len(leaders) <= 10


def test_payload_regret_equals_the_scalar_reference_bit_for_bit(
        server, record):
    obs = server.observatory
    payload = {e["name"]: e for e in record["observatory"]["regret"][
        "queries"]}
    scored = 0
    for rec, variants, decision in obs._completed:
        if not variants:
            assert rec.name not in payload
            continue
        fresh = obs._regret_entry(rec, obs._windows_of([rec.finished])[0],
                                  variants, decision)
        scored += 1
        entry = payload[rec.name]
        assert entry == fresh
        for key in ("chosen_eff_s", "best_eff_s", "regret_s",
                    "regret_ratio"):
            assert entry[key].hex() == fresh[key].hex()
    assert scored == len(payload) == record["completed"]


def _variant(name, device=None, link=None, latency=0.0):
    return SimpleNamespace(
        placement=SimpleNamespace(name=name),
        cost=SimpleNamespace(device_time=device or {},
                             link_time=link or {}, latency=latency))


def _query(name, started, finished, chosen=None):
    return SimpleNamespace(name=name, tenant="t", arrival=started,
                           started=started, finished=finished,
                           completed=True, variant_name=chosen or "")


def test_hand_built_regret_ties_empty_lists_and_zero_costs():
    trace = Trace()
    trace.close_span(trace.open_span("device.cpu", 0.0), 0.003)
    trace.close_span(trace.open_span("link.bus", 0.002), 0.006)
    obs = Observatory(["t"], trace, window_s=0.004,
                      link_bandwidth={"bus": 1e9})
    twins = [_variant("zeta", {"cpu": 1e-3}, {"bus": 2e-4}, 1e-5),
             _variant("alpha", {"cpu": 1e-3}, {"bus": 2e-4}, 1e-5),
             _variant("mid", {"cpu": 2e-3})]
    free = [_variant("b"), _variant("a")]
    cases = [
        (_query("tie", 0.0, 0.005), twins,
         SimpleNamespace(chosen="zeta")),
        (_query("unlisted", 0.001, 0.004, chosen="gone"), twins, None),
        (_query("none", 0.0, 0.002), [], None),
        (_query("free", 0.002, 0.006, chosen="b"), free, None),
        (_query("instant", 0.003, 0.003, chosen="a"), free, None)]
    for rec, variants, decision in cases:
        obs.on_complete(rec, variants, decision)
    obs.finalize(0.006)
    assert obs.observatory_violations([rec for rec, _v, _d in cases]) == []
    entries = {e["name"]: e for e in obs.payload()["regret"]["queries"]}
    assert sorted(entries) == ["free", "instant", "tie", "unlisted"]
    for rec, variants, decision in cases:
        if variants:
            assert entries[rec.name] == obs._regret_entry(
                rec, obs._windows_of([rec.finished])[0], variants, decision)
    # Equal effective cost: ``min((eff, name))`` picks the smaller name.
    tie = entries["tie"]
    assert (tie["chosen"], tie["best"]) == ("zeta", "alpha")
    assert tie["regret_s"] == 0.0 and tie["best_eff_s"] > 0
    # A chosen name no variant carries is scored as the first variant.
    assert entries["unlisted"]["chosen_eff_s"] == \
        entries["unlisted"]["best_eff_s"]
    # No cost at all: best_eff 0, and the ratio is 0, not a division.
    for name in ("free", "instant"):
        assert entries[name]["best_eff_s"] == 0.0
        assert entries[name]["regret_ratio"] == 0.0
        assert entries[name]["best"] == "a"


@pytest.fixture
def fresh_server():
    server = serve_scenario_server("two_tenant_bursty", queries=30)
    server.report("fresh")
    assert server.observatory_violations() == []
    return server


def test_one_ulp_on_one_regret_entry_is_named(fresh_server):
    obs = fresh_server.observatory
    entry = obs._regret[3]
    entry["regret_s"] = math.nextafter(entry["regret_s"], math.inf)
    assert fresh_server.observatory_violations() == [
        f"{entry['name']}: regret entry is not reproduced by "
        "recomputation"]


def test_one_byte_on_one_link_byte_cell_is_named(fresh_server):
    obs = fresh_server.observatory
    i, cell = next((i, cell) for i, cell in enumerate(obs._link_bytes)
                   if cell)
    link = sorted(cell)[-1]
    cell[link] += 1.0
    assert fresh_server.observatory_violations() == [
        f"window {i}: link bytes on {link} not reproduced"]


def test_one_tick_on_one_window_is_named(fresh_server):
    obs = fresh_server.observatory
    window = obs._windows[1]
    window.ticks[window.dominant()] += 1
    errors = fresh_server.observatory_violations()
    assert errors[:2] == [
        "window 1: timeline slice diverges from the reference",
        "window 1: buckets do not tile the window exactly"]
    assert all("window 1" in e or "telescope" in e for e in errors)


def test_partial_flag_is_read_from_state_not_the_payload(
        fresh_server, monkeypatch):
    obs = fresh_server.observatory

    def unparsed():
        raise AssertionError("observatory_violations parsed the payload")

    monkeypatch.setattr(obs, "payload", unparsed)
    assert obs.observatory_violations(fresh_server.records) == []
    obs._dropped = 1
    assert obs.observatory_violations(fresh_server.records) == [
        "partial flag disagrees with the ring's drop counter"]


def test_effective_cost_reduces_to_bottleneck_when_idle(server):
    variants = server.executor.plan_variants(
        server.templates["count_hot"]())
    for variant in variants:
        assert effective_cost(variant.cost, {}) == pytest.approx(
            variant.cost.bottleneck_time)
        # Full saturation inflates but stays finite (rho capped).
        shares = {f"device:{k}": 1.0
                  for k in variant.cost.device_time}
        shares.update({f"link:{k}": 1.0
                       for k in variant.cost.link_time})
        inflated = effective_cost(variant.cost, shares)
        assert inflated >= variant.cost.bottleneck_time
        assert inflated < variant.cost.bottleneck_time * 21


def test_scheduler_records_variant_decisions(server):
    # The server pops each decision at completion, so the executor's
    # dict is empty after a drained run — the decisions landed in the
    # observatory instead.
    assert server.executor.decisions == {}
    considered = [
        decision for _r, _v, decision in server.observatory._completed]
    assert all(d is not None for d in considered)
    for decision in considered[:5]:
        names = [name for name, _b, _s in decision.considered]
        assert decision.chosen in names


def test_digest_deterministic_across_identical_runs():
    a = run_scenario("two_tenant_bursty", queries=25, verify=False)
    b = run_scenario("two_tenant_bursty", queries=25, verify=False)
    assert a["observatory_digest"] == b["observatory_digest"]
    assert a["observatory"] == b["observatory"]


# ---------------------------------------------------------------------------
# Observer effect: bit-identical with the observatory off
# ---------------------------------------------------------------------------

def test_observatory_has_zero_observer_effect():
    config = SERVE_SCENARIOS["two_tenant_bursty"].config
    on = serve_scenario_server("two_tenant_bursty", queries=40,
                               config=config)
    off = serve_scenario_server(
        "two_tenant_bursty", queries=40,
        config=dataclasses.replace(config, observatory=False))
    assert off.observatory is None
    assert on.completion_order == off.completion_order
    assert [r.checksum for r in on.records] == \
        [r.checksum for r in off.records]
    assert [r.to_dict() for r in on.records] == \
        [r.to_dict() for r in off.records]
    # The event rings are bit-identical: the observatory never emits.
    on_events = [e.to_dict() for e in on.fabric.trace.events]
    off_events = [e.to_dict() for e in off.fabric.trace.events]
    assert on_events == off_events
    assert on.fabric.trace.events.dropped == \
        off.fabric.trace.events.dropped


# ---------------------------------------------------------------------------
# Satellite 1: bounded-ring overflow marks attributions partial
# ---------------------------------------------------------------------------

def _overflowed_trace():
    trace = Trace(events=EventRing(4))
    span = trace.open_span("device.cpu", 0.0)
    trace.close_span(span, 1.0)
    for i in range(10):
        trace.emit(float(i) / 10, EventKind.CHUNK_EMIT, "chan",
                   nbytes=64, flow_id=i + 1)
    assert trace.events.dropped > 0
    return trace


def test_attribute_marks_partial_on_overflowed_ring():
    trace = _overflowed_trace()
    att = attribute(trace, 0.0, 1.0)
    assert att.partial
    assert "dropped" in att.partial_reason
    assert att.exact  # arithmetic still reconciles; inputs are short
    doc = att.to_dict()
    assert doc["partial"] and doc["partial_reason"]


def test_attribute_not_partial_on_complete_ring():
    trace = Trace()
    span = trace.open_span("device.cpu", 0.0)
    trace.close_span(span, 1.0)
    att = attribute(trace, 0.0, 1.0)
    assert not att.partial and att.partial_reason == ""


def test_observatory_marks_partial_on_overflowed_ring():
    trace = _overflowed_trace()
    obs = Observatory([], trace, window_s=0.5)
    obs.finalize(1.0)
    payload = obs.payload()
    assert payload["partial"]
    assert payload["events_dropped"] == trace.events.dropped
    assert "dropped" in payload["partial_reason"]
    assert obs.observatory_violations([]) == []
    text = render_top(payload)
    assert "PARTIAL" in text


def test_validate_report_rejects_partial_without_reason(record):
    serving = copy.deepcopy(
        {k: v for k, v in record.items()
         if k not in ("records", "completion_order")})
    report = make_report("t", [], [], serving=[serving])
    assert report_violations(report) == []
    broken = copy.deepcopy(report)
    broken["serving"][0]["observatory"]["partial"] = True
    errors = report_violations(broken)
    assert any("partial" in e for e in errors)


def test_validate_report_rejects_sparse_series(record):
    serving = copy.deepcopy(
        {k: v for k, v in record.items()
         if k not in ("records", "completion_order")})
    report = make_report("t", [], [], serving=[serving])
    broken = copy.deepcopy(report)
    del broken["serving"][0]["observatory"]["series"][0]
    errors = report_violations(broken)
    assert any("dense" in e for e in errors)


def test_validate_report_rejects_partial_exemplar_without_reason(
        record):
    serving = copy.deepcopy(
        {k: v for k, v in record.items()
         if k not in ("records", "completion_order")})
    report = make_report("t", [], [], serving=[serving])
    exemplars = report["serving"][0]["telemetry"]["exemplars"]
    assert exemplars, "fixture run produced no exemplars"
    exemplars[0]["attribution"]["partial"] = True
    exemplars[0]["attribution"]["partial_reason"] = ""
    errors = report_violations(report)
    assert any("partial" in e for e in errors)


# ---------------------------------------------------------------------------
# Rendering: repro top and the dashboard panel, payload-only
# ---------------------------------------------------------------------------

def test_render_top_from_payload_alone(record):
    payload = json.loads(json.dumps(record["observatory"]))
    text = render_top(payload, name="two_tenant_bursty")
    assert "two_tenant_bursty" in text
    assert OBSERVATORY_SCHEMA in text
    assert "ring complete" in text
    assert "placement-regret leaders" in text
    for tenant in ("gold", "bronze"):
        assert tenant in text
    followed = render_top(payload, follow=True)
    assert "bytes moved" in followed
    assert len(followed.splitlines()) > len(text.splitlines())


def test_dashboard_renders_observatory_panel(record):
    html = render_dashboard(record)
    assert "saturation observatory" in html
    assert "placement-regret leaders" in html
    assert "bound queries by tenant" in html
    assert OBSERVATORY_SCHEMA in html
    assert "http" not in html.split("</style>")[1]  # zero fetches


def test_dashboard_json_twin_carries_observatory(record, tmp_path):
    html_path, json_path = write_dashboard(
        str(tmp_path / "dash.html"), record)
    with open(json_path) as handle:
        twin = json.load(handle)
    assert twin["observatory"]["schema"] == OBSERVATORY_SCHEMA
    assert twin["observatory_digest"] == record["observatory_digest"]


# ---------------------------------------------------------------------------
# run_scenario / bench integration
# ---------------------------------------------------------------------------

def test_run_scenario_gates_observatory():
    rec = run_scenario("two_tenant_bursty", queries=25)
    assert rec["observatory_violations"] == []
    assert rec["observatory"]["schema"] == OBSERVATORY_SCHEMA
    assert len(rec["observatory_digest"]) == 64


def test_bench_record_keeps_digest_drops_payload():
    from repro.bench import run_suite
    rec = run_suite("serving", ["two_tenant_bursty"], queries=25)[0]
    assert "observatory" not in rec
    assert len(rec["observatory_digest"]) == 64
    assert rec["observatory_windows"] > 0
    assert rec["observatory_partial"] is False
