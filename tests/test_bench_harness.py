"""The benchmark harness: smoke scenarios, report schema, CLI."""

import copy
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import bench, obs
from repro.cli import build_parser
from repro.cli import main as cli_main
from repro.obs import (
    REPORT_SCHEMA,
    combine_checksums,
    make_report,
    table_checksum,
    validate_report,
)
from repro.relational import (
    Chunk,
    DataType,
    Schema,
    Table,
    make_uniform_table,
)

ROWS = 3000


HOST_TIME_KEYS = {"wall_time_s", "harness_wall_s", "scale_wall_s",
                  "profile", "jobs"}


def _keys(node):
    """Every dict key anywhere inside a JSON value."""
    if isinstance(node, dict):
        yield from node
        for value in node.values():
            yield from _keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from _keys(value)


def _below_header(path):
    report = json.loads(path.read_text())
    for key in ("tag", "created", "python"):
        del report[key]
    return report


@pytest.fixture(scope="module")
def smoke_record():
    return bench.run_suite("smoke", ["filter_project"], rows=ROWS)[0]


def test_smoke_record_is_complete_and_sane(smoke_record):
    record = smoke_record
    assert record["name"] == "filter_project"
    assert record["agree"] is True
    assert record["sim_time_s"] > 0
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
    """A record is a pure function: two runs are ``==``, whole."""
    assert bench.run_suite("smoke", rows=ROWS) \
        == bench.run_suite("smoke", rows=ROWS)


def test_experiment_record_is_deterministic():
    first = bench.run_suite("experiments", ["c8"])
    assert first == bench.run_suite("experiments", ["c8"])
    assert first[0]["name"] == "c8" and first[0]["rows"]
    assert validate_report(make_report("unit", experiments=first)) == ""


def test_run_smoke_rejects_unknown_scenario():
    with pytest.raises(ValueError, match="unknown smoke"):
        bench.run_suite("smoke", ["no_such_scenario"], rows=ROWS)


@pytest.mark.parametrize("section", list(bench.SUITES))
def test_unknown_scenario_message_is_the_same_everywhere(section):
    have = sorted(bench.SUITES[section].names())
    with pytest.raises(ValueError) as raised:
        bench.suite_tasks(section, [have[0], "nope"])
    assert str(raised.value) == (
        f"unknown {section} scenario ['nope'] (have {have})")


def test_table_checksum_order_insensitive_and_content_sensitive():
    table_a = make_uniform_table(500, columns=2, distinct=10,
                                 chunk_rows=100)
    table_b = make_uniform_table(500, columns=2, distinct=10,
                                 chunk_rows=250)  # same rows, rechunked
    table_c = make_uniform_table(500, columns=2, distinct=11,
                                 chunk_rows=100)  # different content
    assert table_checksum(table_a) == table_checksum(table_b)
    assert table_checksum(table_a) != table_checksum(table_c)


def _strings(**columns):
    schema = Schema.of(*[(name, DataType.STRING) for name in columns])
    arrays = {name: np.array(values, dtype="<U8")
              for name, values in columns.items()}
    return Table(schema, [Chunk(schema, arrays)])


def test_table_checksum_tells_separators_and_empty_cells_apart():
    pairs = [
        (_strings(a=["a\x1eb"]), _strings(a=["a", "b"])),
        (_strings(a=["p\x1fq"], b=["r"]), _strings(a=["p"], b=["q\x1fr"])),
        (_strings(a=[]), _strings(a=[""])),
    ]
    for one, other in pairs:
        assert table_checksum(one) != table_checksum(other)
    # A cell without a separator renders as it always has: joined by
    # cell and row separators, rows sorted, names first.
    legacy = hashlib.sha256(b"a\x1fb" + b"x\x1fy\x1ez\x1f").hexdigest()
    assert table_checksum(_strings(a=["z", "x"], b=["", "y"])) == legacy


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


def test_cli_report_is_the_same_at_any_job_count(tmp_path):
    """Below the tag/created/python header the file depends on the
    code and the arguments only — not on --jobs, not on the clock."""
    for tag, jobs in (("one", "1"), ("two", "2")):
        assert cli_main(["bench", "--smoke", "--rows", "2500",
                         "--jobs", jobs, "--tag", tag, "--quiet",
                         "--out", str(tmp_path)]) == 0
    one = _below_header(tmp_path / "BENCH_one.json")
    assert one == _below_header(tmp_path / "BENCH_two.json")
    assert not HOST_TIME_KEYS & set(_keys(one))


def test_checked_in_baseline_has_no_host_time():
    path = Path(__file__).parent.parent / "benchmarks" / "BENCH_pr10.json"
    assert not HOST_TIME_KEYS & set(_keys(json.loads(path.read_text())))


@pytest.mark.parametrize("argv,sections", [
    ([], {"smoke": 6}),
    (["--exp", "F1, c3"], {"experiments": 2}),
    (["--exp", "all"], {"experiments": 20}),
    (["--smoke", "--exp", "all", "--serve", "--scale"],
     {"smoke": 6, "serving": 3, "experiments": 20, "scale": 3}),
], ids=["default", "exp-only", "exp-all", "everything"])
def test_cli_selects_sections(argv, sections):
    tasks = bench.cli_tasks(build_parser().parse_args(["bench", *argv]))
    counted = {}
    for section, _name, _params in tasks:
        counted[section] = counted.get(section, 0) + 1
    assert counted == sections


def test_cli_unknown_experiment_is_one_error_line(tmp_path, capsys):
    assert cli_main(["bench", "--exp", "f1,zz", "--out",
                     str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: unknown experiments scenario ['zz'] (have ['c1', ")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_cli_bench_list(capsys):
    assert cli_main(["bench", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    listed = {section: sorted(suite.names())
              for section, suite in bench.SUITES.items()}
    assert list(listed) == ["smoke", "serving", "experiments", "scale"]
    expected = []
    for section, names in listed.items():
        expected.append(f"{section}:")
        expected.extend(f"  {name}" for name in names)
    assert out == expected
    assert "  filter_project" in out and "  scale_f4_join_300k" in out
    assert "  f1" in out and "  e6" in out
