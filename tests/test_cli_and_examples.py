"""Smoke tests: the CLI and every example run end to end."""

import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import shlex

import pytest

import repro
from repro.cli import build_parser, main

from . import reach

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples")
CI_YML = os.path.join(os.path.dirname(__file__), os.pardir,
                      ".github", "workflows", "ci.yml")


def run_example(name: str, capsys) -> str:
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, f"{name}.py"))
    spec = importlib.util.spec_from_file_location(f"example_{name}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_demo(capsys):
    assert main(["demo", "--rows", "5000"]) == 0
    out = capsys.readouterr().out
    assert "volcano" in out and "dataflow" in out
    assert "optimizer-chosen sites" in out


def test_cli_sites(capsys):
    assert main(["sites"]) == 0
    out = capsys.readouterr().out
    assert "storage.cu" in out
    assert "compute0.nearmem" in out


def test_cli_sites_conventional(capsys):
    assert main(["sites", "--spec", "conventional"]) == 0
    out = capsys.readouterr().out
    assert "storage.cu" not in out
    assert "compute0.cpu" in out


@pytest.mark.parametrize("placement", ["optimize", "pushdown", "cpu"])
def test_cli_query(capsys, placement):
    assert main(["query", "--rows", "5000", "--selectivity", "0.1",
                 "--placement", placement]) == 0
    out = capsys.readouterr().out
    assert "rows out" in out
    assert "network" in out


def test_cli_query_with_zonemaps(capsys):
    assert main(["query", "--rows", "5000", "--zonemaps"]) == 0


def test_cli_experiments(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for exp in ("F1", "F6", "C8", "E5"):
        assert exp in out


def test_cli_unknown_spec_rejected():
    with pytest.raises(SystemExit):
        main(["sites", "--spec", "quantum"])


# ---------------------------------------------------------------------------
# Report-output routing: defaults land under benchmarks/results/
# ---------------------------------------------------------------------------

RESULTS = os.path.join("benchmarks", "results")


def test_cli_trace_default_routes_to_results(capsys, tmp_path,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--rows", "2000"]) == 0
    expected = os.path.join(RESULTS, "trace_dataflow.json")
    assert os.path.exists(expected)
    assert expected in capsys.readouterr().out


def test_cli_trace_explicit_path_honored(capsys, tmp_path,
                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = os.path.join("elsewhere", "t.json")
    assert main(["trace", "--rows", "2000", "-o", out]) == 0
    assert os.path.exists(out)
    assert not os.path.exists(RESULTS)


def test_cli_whatif_bare_flag_routes_to_results(capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["whatif", "--query", "f2", "--rows", "800",
                 "--vary", "nic.bw=2x", "-o"]) == 0
    assert os.path.exists(os.path.join(RESULTS, "WHATIF_f2.json"))


def test_cli_whatif_without_flag_writes_nothing(capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["whatif", "--query", "f2", "--rows", "800",
                 "--vary", "nic.bw=2x"]) == 0
    assert not os.path.exists(RESULTS)


def test_cli_report_default_routes_to_results(capsys, tmp_path,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--queries", "f2", "--rows", "800"]) == 0
    assert os.path.exists(os.path.join(RESULTS, "attribution.html"))
    assert os.path.exists(os.path.join(RESULTS, "attribution.json"))


def test_cli_top_json_routes_to_results(capsys, tmp_path,
                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["top", "--queries", "30", "--json"]) == 0
    out = capsys.readouterr().out
    assert "placement-regret leaders" in out
    expected = os.path.join(RESULTS, "TOP_two_tenant_bursty.json")
    assert os.path.exists(expected)
    # The artifact renders standalone through --from.
    assert main(["top", "--from", expected, "--follow"]) == 0
    followed = capsys.readouterr().out
    assert "bytes moved" in followed


def test_html_pages_are_byte_stable(tmp_path, capsys):
    # Both pages share one skeleton (head, CSS, JSON twin); the bytes
    # were recorded before they did.
    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    report = tmp_path / "attribution.html"
    assert main(["report", "-o", str(report), "--queries", "f2",
                 "--rows", "2000"]) == 0
    assert sha256(report) == (
        "681544ecdcbd56c0a4801df223c2a0edb5cec1a2c2981f72c75b9e7e3dc4b0e1")
    dashboard = tmp_path / "dashboard.html"
    assert main(["serve", "--queries", "60", "--no-verify",
                 "--report", str(dashboard)]) == 0
    assert sha256(dashboard) == (
        "d119a10325574207d73996205e980454c3ad41ec5b92ead51378d7a2f1119aee")
    assert sha256(dashboard.with_suffix(".json")) == (
        "5d5145f73d3a57b848898ba673946b0714e5aaf0bc782aa9be647ac28bd1cfda")


HOSTILE = {
    "sql-garbage": (["sql", "garbage"], "expected SELECT"),
    "sql-unknown-column": (["sql", "select nope from lineitem",
                            "--rows", "400"], "no column 'nope' (have:"),
    # Every clause binds its names before anything runs (each was a
    # bare KeyError from inside a column mapping, mid-simulation).
    "sql-unknown-where": (["sql", "select l_orderkey from lineitem "
                           "where nope > 3", "--rows", "400"],
                          "no column 'nope' (have: ['l_orderkey', "),
    "sql-unknown-order-by": (["sql", "select l_orderkey from lineitem "
                              "order by nope limit 3", "--rows", "400"],
                             "no column 'nope' (have: ['l_orderkey'])"),
    "sql-unknown-agg-arg": (["sql", "select l_returnflag, sum(nope) as s "
                             "from lineitem group by l_returnflag",
                             "--rows", "400"],
                            "no column 'nope' (have: ['l_orderkey', "),
    "sql-unknown-left-key": (["sql", "select o_priority, count(*) as n "
                              "from lineitem join orders on nope = "
                              "o_orderkey group by o_priority",
                              "--rows", "400"],
                             "no column 'nope' (have: ['l_orderkey', "),
    "sql-unknown-right-key": (["sql", "select o_priority, count(*) as n "
                               "from lineitem join orders on l_orderkey "
                               "= nope group by o_priority",
                               "--rows", "400"],
                              "no column 'nope' (have: ['o_orderkey', "),
    "bench-rows": (["bench", "--smoke", "--rows", "-5"],
                   "invalid positive_int value: '-5'"),
    "whatif-query": (["whatif", "--query", "nope"], "'f1', 'f2'"),
    "optimize-query": (["optimize", "--query", "nope"], "'f1', 'f2'"),
    "report-queries": (["report", "--queries", "nope"],
                       "unknown query 'nope' (have: ['f1', 'f2'"),
    "serve-scenario": (["serve", "--scenario", "nope"],
                       "'two_tenant_bursty'"),
    "top-scenario": (["top", "--scenario", "nope"],
                     "'two_tenant_bursty'"),
    "loadgen-scenario": (["loadgen", "--scenario", "nope"],
                         "'two_tenant_bursty'"),
    "trace-scenario": (["trace", "--serve", "--scenario", "nope"],
                       "'two_tenant_bursty'"),
    "whatif-vary-resource": (["whatif", "--query", "f2", "--rows", "800",
                              "--vary", "bogus=2x"],
                             "unknown or absent resource 'bogus' "
                             "(this fabric has: ['cache.bw'"),
    "whatif-factors": (["whatif", "--query", "f2", "--factors", "abc"],
                       "could not convert string to float: 'abc'"),
    "query-rows": (["query", "--rows", "-5"],
                   "invalid positive_int value: '-5'"),
    "top-from-missing": (["top", "--from", "{tmp}/missing.json"],
                         "No such file"),
    "top-from-not-json": (["top", "--from", "{tmp}/bad.json"],
                          "bad.json: Expecting value"),
    "top-from-a-list": (["top", "--from", "{tmp}/list.json"],
                        "list.json carries no repro.observatory/v1"),
    # A section that is there but malformed or incomplete (a traceback,
    # or an empty-looking dashboard, before the payload was validated).
    "top-from-section-not-object": (
        ["top", "--from", "{tmp}/section-list.json"],
        "section-list.json: observatory section is not an object"),
    "top-from-section-incomplete": (
        ["top", "--from", "{tmp}/section-sparse.json"],
        "section-sparse.json: observatory: missing 'schema'"),
    "top-from-section-wrong-type": (
        ["top", "--from", "{tmp}/section-typed.json"],
        "section-typed.json: observatory: 'totals' is 7, expected dict"),
    "top-from-bare-incomplete": (
        ["top", "--from", "{tmp}/bare.json"],
        "bare.json: observatory: missing 'window_s'"),
}

_OBSERVATORY = {
    "schema": "repro.observatory/v1", "window_s": 0.005, "windows": 0,
    "horizon_s": 0.0, "events_dropped": 0, "partial": False,
    "partial_reason": "", "pools": [], "totals": {}, "series": [],
    "bound": {}, "regret": {}}

HOSTILE_FILES = {
    "bad.json": "not json",
    "list.json": "[1,2]",
    "section-list.json": json.dumps({"observatory": [1]}),
    "section-sparse.json": json.dumps({"observatory": {"windows": 3}}),
    "section-typed.json": json.dumps(
        {"observatory": {**_OBSERVATORY, "totals": 7}}),
    "bare.json": json.dumps({"schema": "repro.observatory/v1",
                             "series": [{"window": 0}]}),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_cli_hostile_input_is_one_error_line_and_exit_2(case, capsys,
                                                        tmp_path):
    # Each of these was a Python traceback and exit 1.
    for name, text in HOSTILE_FILES.items():
        (tmp_path / name).write_text(text)
    argv, message = HOSTILE[case]
    try:
        code = main([arg.format(tmp=tmp_path) for arg in argv])
    except SystemExit as exc:        # argparse's own rejections
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = [ln for ln in err.splitlines() if "error: " in ln]
    assert message in line           # the library's message survives


def _ci_command_lines():
    """(``ci.yml:<line>``, argv) of every ``python -m repro ...`` step.

    Env prefixes sit before the marker; the argv ends at the first
    redirection or shell operator.
    """
    commands = []
    with open(CI_YML) as handle:
        for number, line in enumerate(handle, 1):
            _, found, tail = line.partition("python -m repro ")
            if not found:
                continue
            argv = []
            for token in shlex.split(tail, comments=True):
                if re.match(r"\d*[<>|]|&&$|;$", token):
                    break
                argv.append(token)
            commands.append((f"ci.yml:{number}", argv))
    return commands


def test_every_ci_command_line_still_parses(capsys):
    # A flag or name dropped from the CLI must not survive in CI (or
    # be found there only when the workflow next runs).
    commands = _ci_command_lines()
    assert len(commands) >= 10
    parser = build_parser()
    rejected = []
    for where, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(
                f"{where}: {capsys.readouterr().err.splitlines()[-1]}")
    assert rejected == []


# ---------------------------------------------------------------------------
# The surface: what may stay unreached, and what the packages export
# ---------------------------------------------------------------------------

def test_reach_allowed_list_names_one_def_each_with_a_reason():
    # The drive itself is ``python tests/reach.py`` (CI); its list must
    # not rot between drives.
    defined = [d.name for d in reach.defined_functions()]
    for name, reason in reach.ALLOWED.items():
        assert defined.count(name) == 1, name
        assert reason.strip(), name


def _repro_modules():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":      # runs the CLI on import
            yield info.name


def test_every_dunder_all_name_resolves():
    # A deleted function must leave its export lists with it.
    checked = 0
    for module_name in _repro_modules():
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.{name}"
            checked += 1
    assert checked > 400



def test_example_quickstart(capsys):
    out = run_example("quickstart", capsys)
    assert "all three engines agree" in out


def test_example_cloud_analytics(capsys):
    out = run_example("cloud_analytics", capsys)
    assert "same answer, same scan bill" in out


def test_example_distributed_join(capsys):
    out = run_example("distributed_join", capsys)
    assert "NICs did all the partitioning" in out


def test_example_nic_telemetry(capsys):
    out = run_example("nic_telemetry", capsys)
    assert "the host CPU never saw the stream" in out


def test_example_near_memory_htap(capsys):
    out = run_example("near_memory_htap", capsys)
    assert "a fraction of the memory traffic" in out


def test_example_rack_scale(capsys):
    out = run_example("rack_scale", capsys)
    assert "compute nodes are stateless" in out


def test_cli_sql(capsys):
    assert main(["sql", "SELECT COUNT(*) AS n FROM lineitem "
                 "WHERE l_quantity > 25", "--rows", "4000"]) == 0
    out = capsys.readouterr().out
    assert "placement" in out and "n" in out


def test_cli_sql_join(capsys):
    assert main(["sql",
                 "SELECT o_priority, COUNT(*) AS n FROM lineitem "
                 "JOIN orders ON l_orderkey = o_orderkey "
                 "GROUP BY o_priority",
                 "--rows", "4000", "--placement", "pushdown"]) == 0
    out = capsys.readouterr().out
    assert "o_priority" in out
