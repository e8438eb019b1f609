"""The bench regression gate: --compare against a baseline report."""

import copy
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench
from repro.cli import main as cli_main
from repro.obs import make_report, report_violations, validate_report

ROWS = 2500

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..",
                             "benchmarks", "BENCH_pr10.json")


@pytest.fixture(scope="module")
def record():
    return bench.run_suite("smoke", ["filter_project"], rows=ROWS)[0]


@pytest.fixture(scope="module")
def checked_in():
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def baseline_for(record):
    return make_report("base", [copy.deepcopy(record)],
                       created="2026-08-06")


def test_compare_identical_records_passes(record):
    assert bench.compare_reports(baseline_for(record),
                                 {"smoke": [record]}) == []


def test_compare_flags_checksum_and_rows_exactly(record):
    baseline = baseline_for(record)
    baseline["smoke"][0]["checksum"] = "0" * 64
    violations = bench.compare_reports(baseline, {"smoke": [record]})
    assert any("checksum" in v for v in violations)

    baseline = baseline_for(record)
    baseline["smoke"][0]["rows"] = record["rows"] + 1
    assert bench.compare_reports(baseline, {"smoke": [record]})


def test_compare_tolerance_on_sim_time(record):
    fresh = {"smoke": [record]}
    baseline = baseline_for(record)
    # 0.5% drift: inside the default 1% tolerance.
    baseline["smoke"][0]["sim_time_s"] = record["sim_time_s"] * 1.005
    assert bench.compare_reports(baseline, fresh) == []
    # 5% drift: a regression at the default tolerance...
    baseline["smoke"][0]["sim_time_s"] = record["sim_time_s"] * 1.05
    violations = bench.compare_reports(baseline, fresh)
    assert any("sim_time_s" in v for v in violations)
    # ...but acceptable when the caller widens the window.
    assert bench.compare_reports(baseline, fresh, tolerance=0.10) == []


def test_compare_flags_link_bytes_and_missing_scenarios(record):
    baseline = baseline_for(record)
    link = next(iter(baseline["smoke"][0]["links"]))
    baseline["smoke"][0]["links"][link]["bytes"] *= 2.0
    violations = bench.compare_reports(baseline, {"smoke": [record]})
    assert any(link in v for v in violations)

    baseline = baseline_for(record)
    assert any("missing" in v.lower()
               for v in bench.compare_reports(baseline, {}))


def test_compare_ignores_keys_only_the_fresh_record_has(record):
    baseline = baseline_for(record)
    del baseline["smoke"][0]["attribution"]
    del baseline["smoke"][0]["links"][next(iter(record["links"]))]
    assert bench.compare_reports(baseline, {"smoke": [record]}) == []


# One nested leaf each that no hand-written key list ever read: the
# diff walks whatever the baseline carries and names the path.
TAMPERS = [
    ("smoke", "join_agg", ("ledger", 3, "bytes"),
     "smoke[join_agg].ledger[3].bytes"),
    ("scale", "scale_f6_pipeline_1m",
     ("stalls", "df1.filter5", "credit_starved_s"),
     "scale[scale_f6_pipeline_1m].stalls.df1.filter5.credit_starved_s"),
    ("smoke", "join_agg",
     ("attribution", "buckets", "device:storage.cu"),
     "smoke[join_agg].attribution.buckets.device:storage.cu"),
    ("smoke", "group_by_sum", ("utilization", "device:compute0.cpu"),
     "smoke[group_by_sum].utilization.device:compute0.cpu"),
    ("smoke", "scheduler_mix", ("critical_path", 0, "count"),
     "smoke[scheduler_mix].critical_path[0].count"),
    ("serving", "two_tenant_bursty", ("plan_cache", "hits"),
     "serving[two_tenant_bursty].plan_cache.hits"),
    ("serving", "three_tenant_mix", ("tenants", "gold", "p99_s"),
     "serving[three_tenant_mix].tenants.gold.p99_s"),
]


def _parent_of(report, section, name, keys):
    node = next(r for r in report[section] if r["name"] == name)
    for key in keys[:-1]:
        node = node[key]
    return node


@pytest.mark.parametrize("section,name,keys,path", TAMPERS,
                         ids=[t[3] for t in TAMPERS])
def test_compare_names_the_one_tampered_leaf(checked_in, section, name,
                                             keys, path):
    changed = copy.deepcopy(checked_in)
    _parent_of(changed, section, name, keys)[keys[-1]] += 1
    violations = bench.compare_reports(changed, checked_in,
                                       tolerance=0.0)
    assert len(violations) == 1, violations
    assert violations[0].startswith(path + ": ")

    dropped = copy.deepcopy(checked_in)
    del _parent_of(dropped, section, name, keys)[keys[-1]]
    assert bench.compare_reports(checked_in, dropped, tolerance=0.0) \
        == [f"{path}: missing from fresh run"]


def test_checked_in_trajectory_reproduces(checked_in):
    """Tier-1 re-runs the recorded smoke + serving records (the 15 s
    scale tier is CI's) from the baseline's own parameters."""
    validate_report(checked_in)
    tasks = [(section, rec["name"],
              bench.SUITES[section].from_record(rec))
             for section in ("smoke", "serving")
             for rec in checked_in[section]]
    assert len(tasks) == 9
    fresh = bench.run_tasks(tasks)
    recorded = {**checked_in, "scale": []}
    assert bench.compare_reports(recorded, fresh, tolerance=0.0) == []


def test_run_compare_passes_then_catches_regression(record, tmp_path):
    """End to end: a doctored baseline flips the exit code."""
    path = tmp_path / "BENCH_base.json"
    path.write_text(json.dumps(baseline_for(record)))
    assert bench.run_compare(str(path)) == 0

    doctored = baseline_for(record)
    doctored["smoke"][0]["sim_time_s"] *= 1.5
    path.write_text(json.dumps(doctored))
    assert bench.run_compare(str(path)) == 1


def test_run_compare_reports_a_retired_scenario(record, tmp_path,
                                                capsys):
    baseline = baseline_for(record)
    baseline["smoke"][0]["name"] = "retired_scenario"
    path = tmp_path / "BENCH_base.json"
    path.write_text(json.dumps(baseline))
    assert bench.run_compare(str(path)) == 1
    assert "smoke[retired_scenario]: scenario missing" \
        in capsys.readouterr().err


def test_cli_compare_exit_codes(record, tmp_path, capsys):
    path = tmp_path / "BENCH_base.json"
    path.write_text(json.dumps(baseline_for(record)))
    assert cli_main(["bench", "--compare", str(path)]) == 0
    capsys.readouterr()

    doctored = baseline_for(record)
    doctored["smoke"][0]["checksum"] = "f" * 64
    path.write_text(json.dumps(doctored))
    assert cli_main(["bench", "--compare", str(path)]) == 1
    assert "REGRESSION" in capsys.readouterr().err


def _with_sim_time(record, value):
    baseline = baseline_for(record)
    baseline["smoke"][0]["sim_time_s"] = value
    return json.dumps(baseline)


@pytest.mark.parametrize("content,reason", [
    (None, "No such file"),
    ("not json", "Expecting value"),
    ("[1, 2]", "report is not a JSON object"),
    (lambda record: _with_sim_time(record, "fast"),
     "smoke[filter_project]: 'sim_time_s' is 'fast'"),
], ids=["missing", "not-json", "json-list", "wrong-type"])
def test_cli_compare_hostile_baseline_is_one_error_line(
        record, tmp_path, capsys, content, reason):
    path = tmp_path / "BENCH_hostile.json"
    if callable(content):
        content = content(record)
    if content is not None:
        path.write_text(content)
    assert cli_main(["bench", "--compare", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: ")
    assert reason in lines[0]


def test_schema_requires_event_stats(record):
    report = make_report("unit", [copy.deepcopy(record)])
    assert report["schema"] == "repro.bench/v3"
    validate_report(report)

    broken = copy.deepcopy(report)
    del broken["smoke"][0]["events"]["truncated"]
    with pytest.raises(ValueError, match="events"):
        validate_report(broken)

    broken = copy.deepcopy(report)
    broken["smoke"][0]["events_truncated"] = "no"
    with pytest.raises(ValueError, match="events_truncated"):
        validate_report(broken)


def test_only_the_current_schema_is_accepted(record):
    report = make_report("unit", [copy.deepcopy(record)])
    for schema in ("repro.bench/v1", "repro.bench/v2", None):
        report["schema"] = schema
        with pytest.raises(ValueError, match="schema"):
            validate_report(report)


# -- report_violations is total: any JSON value in, list[str] out ----------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from(["schema", "smoke", "scale", "serving",
                         "experiments", "name", "telemetry",
                         "observatory", "tenants", "series", "links",
                         "utilization", "events", "latency", "x"]),
        children, max_size=5),
    max_leaves=20)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_report_violations_never_raises_on_arbitrary_json(document):
    violations = report_violations(document)
    assert violations and all(isinstance(v, str) for v in violations)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaf_paths(value, path + (index,))
    else:
        yield path


@pytest.fixture(scope="module")
def valid_reports(checked_in):
    """(report, its leaf paths): the bench-shaped baseline and a
    report whose serving record carries the full observer payloads."""
    from repro.serve import run_scenario
    full = make_report("full", serving=[
        run_scenario("two_tenant_bursty", queries=30)])
    assert report_violations(checked_in) == []
    assert report_violations(full) == []
    return [(report, list(_leaf_paths(report)))
            for report in (checked_in, full)]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_report_violations_never_raises_on_one_replaced_leaf(
        valid_reports, data):
    report, paths = data.draw(st.sampled_from(valid_reports))
    report = copy.deepcopy(report)
    # Any node, not only scalars: prefixes of a leaf path replace
    # whole sub-objects (a ledger row, a section, the tenants map).
    path = data.draw(st.sampled_from(paths))
    path = path[:data.draw(st.integers(1, len(path)))]
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(json_values)
    assert all(isinstance(v, str) for v in report_violations(report))
