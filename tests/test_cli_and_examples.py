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


def test_cli_loadgen_output_routes_and_creates_its_directory(
        capsys, tmp_path, monkeypatch):
    # An explicit path into a missing directory was a
    # FileNotFoundError traceback; bare -o now routes like the rest.
    monkeypatch.chdir(tmp_path)
    nested = os.path.join("missing", "dir", "x.json")
    assert main(["loadgen", "--queries", "20", "-o", nested]) == 0
    assert main(["loadgen", "--queries", "20", "-o"]) == 0
    routed = os.path.join(RESULTS, "loadgen_two_tenant_bursty.json")
    with open(nested) as one, open(routed) as other:
        schedule = json.load(one)
        assert schedule == json.load(other)
    assert schedule["scenario"] == "two_tenant_bursty"
    assert routed in capsys.readouterr().out


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


#: ``tests/reach.py`` command lines too slow to pin in tier-1 (the
#: full bench run; ``repro bench --compare`` gates its records).
_UNPINNED = {"bench --serve --scale --exp all --tag reach --out {tmp} --quiet"}

#: sha256 of each command's stdout (scratch directory written as
#: ``{tmp}``), then of every JSON/HTML file it wrote, by name.
CLI_PINS = {
    'demo --rows 20000': (
        '4c7751e67be1b98dca497f99cce843e19ece06012922259f4a4081f15d2035e5',
        {}),
    'sites': (
        '5931e38c000edb32cd995f490b7ada9242cc861e3e0af7e0141fa086bbb40b5b',
        {}),
    'sites --spec conventional': (
        'c14f663939fbce426627638d62d9d0a3872501db2b7383dd85505a73053473ff',
        {}),
    'query --rows 20000': (
        'f5e41c7c7e3fe76f77646987383d7a66f9525f864311328b8f98b782d758171a',
        {}),
    'query --rows 20000 --placement pushdown --zonemaps --explain-stalls --ledger': (
        '17ac67ed6dab175ce0a0cec77c6f3fb0efff72a2909dcbba77ad0f7b3ee80684',
        {}),
    'query --rows 20000 --placement cpu --spec conventional --explain-stalls': (
        '86cc516fb0174cf1473bd0d9c575441a8f0144afbea99b3f8436bb1d3567a577',
        {}),
    'query --rows 20000 --plan': (
        '06f2967abbdbb820d56609418dfd35f0beca4c00f318c15d4bc976930c6fa8e2',
        {}),
    'trace --rows 20000 --engine both -o {tmp}/trace.json': (
        '91a8fb9becce42ad978170a235c9517d0ba40c4c3b95f0f3d72eacdfd5958ffa',
        {'trace.json': 'd9406d45460056cb0fd4fb5b92c1f4dfc10e9ded0221634d46e9a4f91096a404'}),
    'trace --serve --queries 60 -o {tmp}/trace_serve.json': (
        '32b45f135ed633e3e5095d22b4f0a339aea1883cda75c906becdef1fceb7628b',
        {'trace_serve.json': 'd40103fcc008308c5d553ff1583e4ed2a6ae3d443d61e530d5632466847edaec'}),
    'sql {sql0} --rows 8000': (
        '9cff1d32db24abc11af540ad47661d5684944e84bbbc1177af85d2f921e59ddb',
        {}),
    'sql {sql1} --rows 8000': (
        '964b9835179abcb4cbc9c9ce421a3c988041c96d530027bea58d02975e7ed9d4',
        {}),
    'sql {sql2} --rows 8000 --placement pushdown': (
        '24aa042080469e79d0614e17c79f47a5cf28697ddc50b7e17ed0084dab2ed70c',
        {}),
    'sql {sql3} --rows 8000 --placement cpu --max-rows 2': (
        '099ac986f386d655dd51503b9e197ad2f8096adb04ccb52b6b086252dbe11308',
        {}),
    'sql {sql4} --rows 8000': (
        '2fcb57288945801d070b5a36ae76c9175242ae0dbf5d10713b57af259c15ce88',
        {}),
    'sql {sql5} --rows 8000': (
        'bce87dc23aaf9df45ba2aca3de83e23f7bd5dde1e9091cca8f58eeb534d9acfd',
        {}),
    'sql {sql6} --rows 8000 --placement pushdown': (
        'cb18e1d0d62e19364c67a7161b2f58fc92a380e4f3d550d3a869766e459398d7',
        {}),
    'whatif --query f6 --rows 2000 -o {tmp}/whatif.json': (
        'd2bad32f8d1c3b2a1ab71d22c6dce22013b7b7bfcb9a295d2715cf9271b489fd',
        {'whatif.json': '9d86048ea6322afeff7bc433be18b7265e697a84d22cdd1e238a502066448913'}),
    'whatif --query f2 --rows 2000 --engine volcano --factors 2 --resources net.bw,ssd.bw': (
        'f063ac82defad883ac305f80f2e06ae174a20204195717f009bdd9be514da0b7',
        {}),
    'whatif --query f4 --rows 2000 --vary nic.bw=2x,cxl.lat=0.5x': (
        '49f42735a2e779f7df92348ca7d064e08f0a166f0234e01052710f8294a76f69',
        {}),
    'report --rows 2000 -o {tmp}/attribution.html': (
        '294bdae63cf9b0e45a7eca6e08a67b27870144f250c1e1c88b74e3077c7759a3',
        {'attribution.html': 'd53809cc0ccb4dc4537024d57a7bb82687a51eecba65b6741a6d0bc3d71c3559', 'attribution.json': 'e74d8cae8692b9e30acab83f753e2a621555257aa11d3cfe28590839804f1ef4'}),
    'optimize --query f4 --rows 3000': (
        '258c8fb70f8f6e9515a689d0fcd86edf68690632178cade5ce6e5671281b9bf7',
        {}),
    'optimize --query f6 --rows 3000 --validate-whatif -k 4': (
        'b46747a23750dc42489fd43aefa693b6b3d37c61f02578e5968a690080994880',
        {}),
    'experiments': (
        'da5cd7fd5f6fad25bace605ae85a98a2ee80fe0f2142ea28f603d4c192644e4e',
        {}),
    'bench --list': (
        '4be908f366bfe37be461cb4362068e989d3709fb4a04cd5610f1579487abd95c',
        {}),
    'bench --smoke --tag smoke --out {tmp} --quiet': (
        'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
        {'BENCH_smoke.json': 'b846a048368be2920578e9e558804af908842af810183a7b8cb1dd15e78d8e85'}),
    'serve --scenario two_tenant_bursty -o {tmp}/serve.json --report {tmp}/serve.html': (
        'edbe6cfccc16add3d37bb70b52fe32925c2560ebd7b23e89514485e8e16be4c1',
        {'serve.html': '8932ec40289b9ee96ddbbaf8d610fe4db910b5d0965e6e963270a0594d74cc7a', 'serve.json': 'f18b1484f47f4d00fa4915132fabfbec802d06827fc0578742bed563ffdc2289'}),
    'serve --scenario three_tenant_mix --queries 300 --no-verify': (
        '8f11e6d12e8d03a659352663aa855eb044ed86151eb6913dc004d6d12c09d41c',
        {}),
    'serve --scenario overload_shed --queries 200': (
        '5d603669d336ab749f447564f5ef544598f110206dc028f3589c91ab59cb0b4a',
        {}),
    'top --scenario two_tenant_bursty --queries 120 --json {tmp}/top.json': (
        'd1eeb5b52e448c3c501bea573db2843bc2c5f1229391c7bbaa1ad0dc0203f003',
        {'top.json': '9b14a76a708a86a3f5d630d17cd99e0c9d8609309afc65931f313b4c3995bc97'}),
    'top --from {tmp}/top.json --follow': (
        '332f32c0e16cc2d68c364491db0581594c4c0c0ecc5859a360770f27a3176414',
        {}),
    'top --from {tmp}/serve.json': (
        'f4522104f737cf19123055d14383f7c4d81a8d4b2467fa71b5fe7fcd1ce4dcdb',
        {}),
    'loadgen --queries 50': (
        'a7d755d5032e363077170a1d089b587821ba01ffe74d677fe87e189bcf757b86',
        {}),
    'loadgen --scenario three_tenant_mix --queries 50 -o {tmp}/arrivals.json': (
        'f2ad4cb0f5a6cdcb3d6ce015c3534e94d2ee7ef3581fca3a7b0e5acf5c873218',
        {'arrivals.json': '7559e232584a55ac0f126c2b5e6bb7ad842da317b94b4a0a104da4a9ffc7ef4e'}),
}


def cli_digests(lines, tmp, capsys):
    """``{line: (stdout sha256, {artifact: sha256})}`` for ``lines``.

    Runs in order (``top --from`` reads what an earlier line wrote).
    A bench report's ``created`` stamp is the one host-dependent byte
    run; it is blanked before hashing.
    """
    def sha256(data: str) -> str:
        return hashlib.sha256(data.encode()).hexdigest()

    fill = {"tmp": tmp, **{f"sql{n}": shlex.quote(statement)
                           for n, statement in
                           enumerate(reach.SQL_STATEMENTS)}}
    digests = {}
    for line in lines:
        written = {p: p.stat().st_mtime_ns for p in tmp.iterdir()}
        capsys.readouterr()
        assert main(shlex.split(line.format(**fill))) == 0, line
        out = capsys.readouterr().out.replace(str(tmp), "{tmp}")
        artifacts = {}
        for path in sorted(tmp.iterdir()):
            if written.get(path) == path.stat().st_mtime_ns:
                continue
            text = path.read_text().replace(str(tmp), "{tmp}")
            artifacts[path.name] = sha256(re.sub(
                r'"created": "[^"]*"', '"created": ""', text))
        digests[line] = (sha256(out), artifacts)
    return digests


def test_cli_stdout_and_artifacts_are_byte_stable(tmp_path, capsys):
    # Every fast ``tests/reach.py`` line prints and writes the bytes it
    # did when the pins were recorded.
    lines = [line for line in reach.COMMANDS.strip().splitlines()
             if line not in _UNPINNED]
    assert sorted(CLI_PINS) == sorted(lines)
    digests = cli_digests(lines, tmp_path, capsys)
    assert {line: digests[line] for line in lines
            if digests[line] != CLI_PINS[line]} == {}


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
    # An output name given twice, or one that shadows an input column
    # (each was a ValueError traceback from the schema or the binder).
    "sql-repeated-alias": (["sql", "SELECT COUNT(*) AS n, SUM(l_quantity) "
                            "AS n FROM lineitem", "--rows", "400"],
                           "duplicate column names in ['n', 'n']"),
    "sql-alias-repeats-group-key": (
        ["sql", "SELECT l_returnflag, COUNT(*) AS l_returnflag FROM "
         "lineitem GROUP BY l_returnflag", "--rows", "400"],
        "duplicate column names in ['l_returnflag', 'l_returnflag']"),
    "sql-repeated-column": (["sql", "SELECT l_quantity, l_quantity FROM "
                             "lineitem LIMIT 2", "--rows", "400"],
                            "duplicate column names in ['l_quantity', "),
    "sql-shadowing-alias": (["sql", "SELECT l_quantity + 1 AS l_quantity "
                             "FROM lineitem LIMIT 2", "--rows", "400"],
                            "computed column 'l_quantity' shadows an "
                            "input column"),
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
    # A NaN factor passed every sign test and printed a speedup (or an
    # infinite time), exit 0.
    "whatif-vary-nan": (["whatif", "--query", "f2", "--rows", "500",
                         "--vary", "net.bw=nanx"],
                        "--vary factor for 'net.bw' must be a finite "
                        "positive number, got 'nan'"),
    "whatif-vary-inf": (["whatif", "--query", "f2", "--rows", "500",
                         "--vary", "net.lat=infx"],
                        "--vary factor for 'net.lat' must be a finite "
                        "positive number, got 'inf'"),
    "whatif-factors-nan": (["whatif", "--query", "f2", "--rows", "500",
                            "--factors", "nan"],
                           "--factors must be finite positive numbers, "
                           "got nan"),
    "whatif-factors-inf": (["whatif", "--query", "f2", "--rows", "500",
                            "--factors", "inf"],
                           "--factors must be finite positive numbers, "
                           "got inf"),
    # A repeated experiment ran twice and wrote two records of one
    # name, which a comparison pairs with one twin.
    "bench-exp-repeated": (["bench", "--exp", "F1,f1"],
                           "repeated experiments scenario ['f1']"),
    "query-rows": (["query", "--rows", "-5"],
                   "invalid positive_int value: '-5'"),
    # Float flags: a NaN tolerance passed any drift (``d > nan * x`` is
    # never true); a NaN or infinite selectivity was a traceback, and a
    # negative one ran silently as cutoff 1.
    "bench-tolerance-nan": (["bench", "--compare", "x.json",
                             "--tolerance", "nan"],
                            "expected a finite number >= 0, got 'nan'"),
    "bench-tolerance-inf": (["bench", "--compare", "x.json",
                             "--tolerance", "inf"],
                            "expected a finite number >= 0, got 'inf'"),
    "query-selectivity-nan": (["query", "--selectivity", "nan"],
                              "expected a finite number in [0, 1], "
                              "got 'nan'"),
    "query-selectivity-negative": (["query", "--selectivity", "-3"],
                                   "expected a finite number in [0, 1], "
                                   "got '-3'"),
    # Count flags: a negative --max-rows printed all rows but the last,
    # -k 0 an empty "top-0" ranking.
    "sql-max-rows": (["sql", "select l_orderkey from lineitem",
                      "--max-rows", "-1"],
                     "invalid non_negative_int value: '-1'"),
    "optimize-top-k": (["optimize", "-k", "0"],
                       "invalid positive_int value: '0'"),
    "bench-serve-queries": (["bench", "--serve", "--serve-queries", "0"],
                            "invalid positive_int value: '0'"),
    "bench-jobs": (["bench", "--jobs", "-2"],
                   "invalid positive_int value: '-2'"),
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


def test_reach_every_unset_knob_is_listed_with_a_reason():
    # A defaulted parameter no call in src/ or perfbench/ passes is a
    # setting with one value: it becomes a constant, or KNOBS_ALLOWED
    # says why it stays.  A listed one that is now passed or gone is
    # struck off.
    defaulted = {knob.name for knob in reach.defaulted_parameters()}
    unset = set(reach.unset_knobs())
    listed = set(reach.KNOBS_ALLOWED)
    assert sorted(unset - listed) == [], "unset and not listed"
    assert sorted(listed - defaulted) == [], "listed but gone"
    assert sorted(listed & defaulted - unset) == [], "listed but passed"
    assert all(reach.KNOBS_ALLOWED.values())


def test_reach_every_overridden_default_is_listed_with_a_reason():
    # A default that every call in src/ or perfbench/ overrides is read
    # by no product run: it becomes a required parameter, or
    # OVERRIDES_ALLOWED says why it stays.  A listed one that some call
    # now omits, or that is gone, is struck off.
    defaulted = {knob.name for knob in reach.defaulted_parameters()}
    overridden = set(reach.overridden_defaults())
    listed = set(reach.OVERRIDES_ALLOWED)
    assert sorted(overridden - listed) == [], "overridden and not listed"
    assert sorted(listed - defaulted) == [], "listed but gone"
    assert sorted(listed & defaulted - overridden) == [], \
        "listed but some call omits it"
    assert all(reach.OVERRIDES_ALLOWED.values())


def test_reach_never_run_table_names_files_with_counts():
    # One positive count per file, in file order, and never more than
    # the statements the file's function bodies hold.
    statements = reach.body_statements()
    assert list(reach.NEVER_RUN) == sorted(reach.NEVER_RUN)
    for key, count in reach.NEVER_RUN.items():
        assert type(count) is int and 0 < count <= len(statements[key]), key


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
