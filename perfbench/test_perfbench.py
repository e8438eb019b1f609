"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests``); it runs one
``--quick`` run set, which takes about two minutes.
"""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import compare
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run(*args, env=None):
    return subprocess.run(RUN + list(args), cwd=ROOT, text=True,
                          capture_output=True, timeout=600,
                          env=env or dict(os.environ))


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def run_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    done = run("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out / "perfbench.json") as handle:
        return out, json.load(handle)


def test_benchmark_json_meets_the_contract():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] \
        + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    # The timing bounds are the contract's widest, not ISSUE 12's 0.10:
    # see "End-to-end metrics" in README.md for the measured spreads.
    assert {m["name"]: m["bound"] for m in SPEC["end_to_end"]} == {
        "setup_s": 0.25, "window_ms_p50": 0.25, "queries_per_s": 0.25,
        "rows_per_s": 0.25, "peak_rss_mb": 0.05, "passed_share": 0.001}
    assert all(m["better"] in ("lower", "higher")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert len(WORKLOADS) == 5 and 1 <= SPEC["run_seconds"] <= 60
    # 4 + 22 runs per workload, each with its set-ups, inside the cap.
    assert (4 + 22 * len(WORKLOADS)) * (SPEC["run_seconds"] + 12) < 3420


def test_run_set_has_every_metric_and_no_failure(run_set):
    _out, result = run_set
    assert result["schema"] == "perfbench/v1"
    assert set(result["host"]) == {"python", "numpy", "nproc", "flags"}
    assert sorted(result["workloads"]) == sorted(WORKLOADS)
    for name, entry in result["workloads"].items():
        assert entry["attempted"] > 0 and entry["failed"] == 0, name
        assert min(entry["calib_spin_ms"]) > 0, name
        for kind in ("end_to_end", "per_layer"):
            assert sorted(entry[kind]) == sorted(
                m["name"] for m in SPEC[kind]), (name, kind)
        assert all(value > 0 for values in entry["end_to_end"].values()
                   for value in values), name
        assert entry["end_to_end"]["passed_share"] == [1.0], name


def test_layer_shares_sum_to_one(run_set):
    _out, result = run_set
    for name, entry in result["workloads"].items():
        shares = [values[0] for metric, values in entry["per_layer"].items()
                  if metric.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) < 0.01, name


def test_dominant_layers(run_set):
    _out, result = run_set
    share = {name: {metric[:-len(".self_share")]: values[0]
                    for metric, values in entry["per_layer"].items()
                    if metric.endswith(".self_share")}
             for name, entry in result["workloads"].items()}
    assert share["figs_dataflow"]["optimizer"] == max(
        s["optimizer"] for s in share.values())
    assert share["serve_bare"]["optimizer"] < 0.02
    assert share["figs_volcano"]["flow"] == 0
    assert share["figs_volcano"]["optimizer"] == 0
    assert share["scale_scan_join"]["numpy"] == max(
        s["numpy"] for s in share.values())
    observed = share["serve_observed"]
    assert observed["analysis"] + observed["fractions"] > 0.3
    assert share["serve_bare"]["analysis"] == 0
    assert share["serve_bare"]["fractions"] == 0


def test_span_self_times_sum_to_the_window(run_set):
    out, _result = run_set
    for name in WORKLOADS:
        with open(out / f"{name}.spans.json") as handle:
            spans = json.load(handle)["spans"]
        roots = [s for s in spans if s["parent"] is None]
        assert roots and all(s["name"] == "window" for s in roots)
        for root in roots:
            inside = [s for s in spans if s["window"] == root["window"]]
            total = sum(s["self"] for s in inside)
            assert abs(total - (root["end"] - root["start"])) \
                <= 0.02 * (root["end"] - root["start"]), name
            assert all(s["self"] >= -1e-9 for s in inside), name


def test_exact_counts_repeat(run_set):
    _out, result = run_set
    for name in WORKLOADS:
        done = run("--workload", name, "--seed", "0", "--trace", "1",
                   "--seconds", "1")
        assert done.returncode == 0, done.stdout + done.stderr
        again = last_json(done)
        assert again["correct"] and again["failed"] == 0
        for metric in compare.EXACT:
            assert again["metrics"][metric]["value"] == \
                result["workloads"][name]["per_layer"][metric][0], \
                (name, metric)


def test_contract_output_and_other_seed():
    done = run("--workload", "figs_volcano", "--seed", "5", "--trace", "0",
               "--seconds", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        cell = result["metrics"][metric["name"]]
        assert cell["unit"] == metric["unit"] and cell["value"] > 0


def test_corrupted_reference_fails(tmp_path):
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)
    reference["figs_volcano"]["f3"][0] = "0" * 64
    corrupt = tmp_path / "reference.json"
    corrupt.write_text(json.dumps(reference))
    done = run("--workload", "figs_volcano", "--seed", "0", "--trace", "0",
               "--seconds", "0.5", "--reference", str(corrupt))
    assert done.returncode != 0
    result = last_json(done)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_fast_path_flags():
    env = dict(os.environ, REPRO_SLOW_KERNEL="1")
    done = run("--workload", "figs_volcano", "--seconds", "0.5", env=env)
    assert done.returncode == 2 and "REPRO_SLOW_KERNEL" in done.stderr
    assert not done.stdout.strip()


def _run_set(p50, events=100):
    cell = {"end_to_end": {m["name"]: [1.0, 1.0, 1.0]
                           for m in SPEC["end_to_end"]},
            "per_layer": {name: [events] for name in compare.EXACT},
            "attempted": 10, "failed": 0}
    cell["end_to_end"]["window_ms_p50"] = p50
    return {"seed": 0, "workloads": {"figs_volcano": cell}}


def test_compare_verdicts():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}[
        "window_ms_p50"]
    base = _run_set([10.0, 10.1, 10.2])

    def verdict(a, b):
        rows, failures = compare.compare(a, b, SPEC)
        return {row[1]: row[-1] for row in rows}["window_ms_p50"], failures

    near = 10.1 * (1 + bound / 2)
    far = 10.1 * (1 + bound * 1.5)
    assert verdict(base, _run_set([near] * 3)) == ("ok", [])
    assert verdict(base, _run_set([far] * 3)) == ("worse", [])
    assert verdict(base, _run_set([5.0] * 3)) == ("ok", [])
    noisy = _run_set([10.0 * (1 - bound), 10.0, 10.0 * (1 + bound)])
    assert verdict(noisy, _run_set([far] * 3)) == ("unresolved", [])
    _verdict, failures = verdict(base, _run_set([10.1] * 3, events=101))
    assert len(failures) == len(compare.EXACT)


def test_oracle_catches_a_wrong_answer():
    shape = oracle.Shape("t", ("a", "gt", 1), group=("g",),
                         aggs=(("sum", "x", "s"), ("count", "", "n")))
    tables = {"t": {"a": np.array([0, 2, 3, 4]),
                    "g": np.array(["u", "v", "u", "v"]),
                    "x": np.array([1.0, 2.0, 3.0, 4.0])}}
    expected = oracle.evaluate(shape, tables)
    assert expected["g"].tolist() == ["u", "v"]
    assert expected["s"].tolist() == [3.0, 6.0]
    assert expected["n"].tolist() == [1, 2]
    shuffled = {name: values[::-1] for name, values in expected.items()}
    assert oracle.mismatch(shuffled, expected) == ""
    wrong = dict(expected, s=np.array([3.0, 6.5]))
    assert "differs" in oracle.mismatch(wrong, expected)
    assert oracle.mismatch({"g": expected["g"]}, expected)
