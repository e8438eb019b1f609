"""The benchmark harness: smoke scenarios, report schema, CLI."""

import copy
import json
import os

import pytest

from repro import bench, obs
from repro.cli import main as cli_main
from repro.obs import (
    REPORT_SCHEMA,
    combine_checksums,
    make_report,
    table_checksum,
    validate_report,
)
from repro.relational import make_uniform_table

ROWS = 3000


@pytest.fixture(scope="module")
def smoke_record():
    return bench.run_smoke(rows=ROWS, only=["filter_project"])[0]


def test_smoke_record_is_complete_and_sane(smoke_record):
    record = smoke_record
    assert record["name"] == "filter_project"
    assert record["agree"] is True
    assert record["sim_time_s"] > 0
    assert record["wall_time_s"] > 0
    # Nonzero per-link byte counters on the data path.
    assert record["links"]
    assert sum(entry["bytes"]
               for entry in record["links"].values()) > 0
    assert all(entry["chunks"] > 0
               for entry in record["links"].values())
    # Utilization within [0, 1] for every device and link.
    assert record["utilization"]
    assert all(0.0 <= v <= 1.0
               for v in record["utilization"].values())
    assert record["movement_bytes"].get("storage.bytes", 0) > 0
    assert record["critical_path"]
    assert len(record["checksum"]) == 64


def test_smoke_runs_are_deterministic():
    """Two identical runs: identical byte counters and checksums."""
    first = bench.run_smoke(rows=ROWS, only=["group_by_sum"])[0]
    second = bench.run_smoke(rows=ROWS, only=["group_by_sum"])[0]
    for key in ("checksum", "sim_time_s", "movement_bytes", "links",
                "utilization", "rows", "agree"):
        assert first[key] == second[key], key


def test_run_smoke_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown smoke"):
        bench.run_smoke(rows=ROWS, only=["no_such_scenario"])


def test_table_checksum_order_insensitive_and_content_sensitive():
    table_a = make_uniform_table(500, columns=2, distinct=10,
                                 chunk_rows=100)
    table_b = make_uniform_table(500, columns=2, distinct=10,
                                 chunk_rows=250)  # same rows, rechunked
    table_c = make_uniform_table(500, columns=2, distinct=11,
                                 chunk_rows=100)  # different content
    assert table_checksum(table_a) == table_checksum(table_b)
    assert table_checksum(table_a) != table_checksum(table_c)


def test_combine_checksums_is_order_insensitive():
    sums = {"a": "1" * 64, "b": "2" * 64}
    swapped = {"b": "2" * 64, "a": "1" * 64}
    assert combine_checksums(sums) == combine_checksums(swapped)
    assert combine_checksums(sums) != combine_checksums(
        {"a": "2" * 64, "b": "1" * 64})


def test_report_round_trip_and_validation(smoke_record, tmp_path):
    report = make_report("unit", [smoke_record], created="2026-08-06")
    assert report["schema"] == REPORT_SCHEMA
    assert validate_report(report) == ""
    path = bench.write_report(report, str(tmp_path))
    assert os.path.basename(path) == "BENCH_unit.json"
    with open(path) as handle:
        assert validate_report(json.load(handle)) == ""


def test_validation_rejects_bad_reports(smoke_record):
    report = make_report("unit", [smoke_record])

    broken = copy.deepcopy(report)
    broken["schema"] = "repro.bench/v0"
    with pytest.raises(ValueError, match="schema"):
        validate_report(broken)

    broken = copy.deepcopy(report)
    broken["smoke"][0]["utilization"]["device:x"] = 1.5
    with pytest.raises(ValueError, match="outside"):
        validate_report(broken)

    broken = copy.deepcopy(report)
    broken["smoke"][0]["checksum"] = "nope"
    with pytest.raises(ValueError, match="sha256"):
        validate_report(broken)

    broken = copy.deepcopy(report)
    del broken["smoke"][0]["links"]
    with pytest.raises(ValueError, match="links"):
        validate_report(broken)

    broken = copy.deepcopy(report)
    for link in broken["smoke"][0]["links"].values():
        link["bytes"] = 0.0
    with pytest.raises(ValueError, match="zero"):
        validate_report(broken)

    broken = copy.deepcopy(report)
    del broken["smoke"][0]["checksum"]
    with pytest.raises(ValueError, match="checksum missing"):
        validate_report(broken)


def test_validation_reason_string_without_raising(smoke_record):
    report = make_report("unit", [smoke_record])
    assert validate_report(report, strict=False) == ""

    broken = copy.deepcopy(report)
    del broken["smoke"][0]["checksum"]
    broken["smoke"][0]["sim_time_s"] = 0.0
    reason = validate_report(broken, strict=False)
    assert "checksum missing" in reason
    assert "sim_time_s" in reason
    violations = obs.report_violations(broken)
    assert len(violations) == 2


def test_experiment_index_points_at_real_scripts():
    index = bench.experiment_index()
    assert len(index) == 20
    for exp_id, path in index.items():
        assert os.path.isfile(path), exp_id


def test_cli_smoke_writes_valid_report(tmp_path, capsys):
    code = cli_main(["bench", "--smoke", "--rows", "2500",
                     "--tag", "clitest", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "BENCH_clitest.json" in out
    path = tmp_path / "BENCH_clitest.json"
    report = json.loads(path.read_text())
    assert validate_report(report) == ""
    assert report["tag"] == "clitest"
    names = {record["name"] for record in report["smoke"]}
    assert names == set(bench.SMOKE_SCENARIOS)
    assert all(record["agree"] for record in report["smoke"])
    assert report["totals"]["benchmarks"] == len(names)


def test_cli_bench_list(capsys):
    assert cli_main(["bench", "--list"]) == 0
    out = capsys.readouterr().out
    assert "filter_project" in out
    assert "f1" in out and "e6" in out
