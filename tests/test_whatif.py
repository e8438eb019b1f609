"""The causal what-if engine: perturbations, sensitivity, reports."""

import json
import math

import pytest

from repro.analysis import (
    WHATIF_SCHEMA,
    optimizer_crosscheck,
    parse_vary,
    render_report,
    run_scenario,
    run_whatif,
    whatif_violations,
    write_report,
)
from repro.cli import main as cli_main
from repro.hardware import build_fabric, dataflow_spec

ROWS = 800


# ---------------------------------------------------------------------------
# Perturbation registry
# ---------------------------------------------------------------------------

def test_perturbable_resources_reflect_the_fabric():
    plain = build_fabric(dataflow_spec())
    assert "gpu.speed" not in plain.perturbable_resources()
    with_gpu = build_fabric(dataflow_spec(gpu="host"))
    resources = with_gpu.perturbable_resources()
    for expected in ("net.bw", "net.lat", "cxl.bw", "ssd.bw",
                     "cpu.speed", "nic.speed", "storage_cu.speed",
                     "nearmem.speed", "gpu.speed"):
        assert expected in resources, expected


def test_apply_perturbation_scales_hardware():
    fabric = build_fabric(dataflow_spec())
    link = fabric.route("storage.node", "switch")[0]
    before_bw = link.bandwidth
    before_line = fabric.compute[0].nic.line_rate
    fabric.apply_perturbation("net.bw", 2.0)
    assert link.bandwidth == before_bw * 2.0
    # net.bw also raises the NIC DMA line rate (wire speed).
    assert fabric.compute[0].nic.line_rate == before_line * 2.0

    cpu_rate = dict(fabric.compute[0].cpu.rates)
    fabric.apply_perturbation("cpu.speed", 4.0)
    for kind, rate in fabric.compute[0].cpu.rates.items():
        assert rate == cpu_rate[kind] * 4.0


def test_apply_perturbation_rejects_unknown_and_absent():
    fabric = build_fabric(dataflow_spec())
    with pytest.raises(ValueError, match="unknown or absent"):
        fabric.apply_perturbation("gpu.speed", 2.0)   # no GPU here
    with pytest.raises(ValueError, match="unknown or absent"):
        fabric.apply_perturbation("quantum.bw", 2.0)
    with pytest.raises(ValueError, match="positive"):
        fabric.apply_perturbation("net.bw", 0.0)
    # NaN passes every hook's sign test; the fabric refuses it first.
    for factor in (math.nan, math.inf):
        with pytest.raises(ValueError, match="must be finite"):
            fabric.apply_perturbation("net.lat", factor)


def test_alias_resolution():
    fabric = build_fabric(dataflow_spec())
    assert fabric.canonical_resource("nic.bw") == "net.bw"
    link = fabric.route("storage.node", "switch")[0]
    before = link.bandwidth
    fabric.apply_perturbation("nic.bw", 2.0)
    assert link.bandwidth == before * 2.0


# ---------------------------------------------------------------------------
# --vary parsing
# ---------------------------------------------------------------------------

def test_parse_vary():
    assert parse_vary("nic.bw=2x,cxl.lat=0.5x") == [
        ("nic.bw", 2.0), ("cxl.lat", 0.5)]
    assert parse_vary(" net.bw = 4 ") == [("net.bw", 4.0)]
    with pytest.raises(ValueError, match="expected"):
        parse_vary("nic.bw")
    with pytest.raises(ValueError, match="factor"):
        parse_vary("nic.bw=fast")
    with pytest.raises(ValueError, match="positive"):
        parse_vary("nic.bw=-1x")
    for text in ("nic.bw=nanx", "nic.bw=inf", "cxl.lat=-infx"):
        with pytest.raises(ValueError, match="finite positive"):
            parse_vary(text)


# ---------------------------------------------------------------------------
# The sweep itself
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def f6_payload():
    return run_whatif("f6", rows=ROWS)


def test_f6_baseline_is_bit_identical(f6_payload):
    baseline = f6_payload["baseline"]
    assert baseline["verified_identical"] is True
    assert baseline["checksums_stable"] is True
    assert len(baseline["digest"]) == 64


def test_f6_attribution_is_exact(f6_payload):
    attribution = f6_payload["baseline"]["attribution"]
    assert attribution["exact"] is True
    assert attribution["elapsed_s"] == pytest.approx(
        f6_payload["baseline"]["sim_time_s"])


def test_f6_gpu_is_off_path_and_storage_on_path(f6_payload):
    assert "gpu.speed" in f6_payload["off_path"]
    by_resource = {row["resource"]: row
                   for row in f6_payload["sensitivity"]}
    assert not by_resource["gpu.speed"]["on_path"]
    # The idle GPU gains nothing at any factor.
    assert by_resource["gpu.speed"]["max_speedup"] == pytest.approx(
        1.0)
    # The scan's media is the real bottleneck.
    assert by_resource["ssd.bw"]["on_path"]
    assert by_resource["ssd.bw"]["max_speedup"] > 1.1


def test_f6_speedups_monotone_in_factor(f6_payload):
    for row in f6_payload["sensitivity"]:
        speedups = [row["speedups"][f"{f:g}"]
                    for f in f6_payload["factors"]]
        # Improving a resource never slows the query down (within
        # exact simulation, monotone up to tiny FP jitter).
        for earlier, later in zip(speedups, speedups[1:]):
            assert later >= earlier - 1e-9


def test_f6_payload_passes_validation(f6_payload):
    assert whatif_violations(f6_payload) == []


def test_whatif_validation_catches_breakage(f6_payload):
    broken = json.loads(json.dumps(f6_payload))
    broken["schema"] = "repro.whatif/v0"
    broken["baseline"]["verified_identical"] = False
    broken["baseline"]["attribution"]["exact"] = False
    errors = whatif_violations(broken)
    assert any("schema" in e for e in errors)
    assert any("bit-identical" in e for e in errors)
    assert any("reconcile" in e for e in errors)


def test_vary_runs_are_reported():
    payload = run_whatif("f2", rows=ROWS, resources=[],
                         vary=[("nic.bw", 2.0), ("ssd.bw", 2.0)])
    assert payload["sensitivity"] == []
    assert [row["resource"] for row in payload["vary"]] == [
        "net.bw", "ssd.bw"]
    for row in payload["vary"]:
        assert row["checksum_match"] is True
        assert row["speedup"] > 0
    # Doubling the scan medium beats doubling an underused wire.
    assert payload["vary"][1]["speedup"] > payload["vary"][0][
        "speedup"]


def test_unknown_query_and_resource_raise():
    with pytest.raises(KeyError, match="unknown query"):
        run_whatif("f9", rows=ROWS)
    with pytest.raises(ValueError, match="absent"):
        run_whatif("f2", rows=ROWS, resources=["gpu.speed"])


def test_perturbation_changes_timing_not_answer():
    base = run_scenario("f3", rows=ROWS)
    fast = run_scenario("f3", rows=ROWS,
                        perturbations=(("ssd.bw", 4.0),))
    assert fast.result.elapsed < base.result.elapsed
    assert fast.result.checksum() == base.result.checksum()
    assert fast.digest() != base.digest()


# ---------------------------------------------------------------------------
# Optimizer cross-check
# ---------------------------------------------------------------------------

def test_optimizer_crosscheck_shape():
    check = optimizer_crosscheck("f2", rows=ROWS, k=3)
    assert check["k"] >= 1
    assert len(check["plans"]) == check["k"]
    for plan in check["plans"]:
        assert plan["predicted_s"] > 0
        assert plan["simulated_s"] > 0
        assert plan["attribution_exact"] is True
    assert isinstance(check["disagreements"], list)
    assert check["agreement"] == (not check["disagreements"])


# ---------------------------------------------------------------------------
# HTML report + JSON artifact
# ---------------------------------------------------------------------------

def test_report_is_self_contained_html(f6_payload, tmp_path):
    html_text = render_report([f6_payload])
    assert html_text.startswith("<!DOCTYPE html>")
    assert "gpu.speed" in html_text
    assert "off-path" in html_text
    assert "critical-path attribution" in html_text
    # Self-contained: no external fetches of any kind.
    for marker in ("http://", "https://", "<script", "src=",
                   "@import", "<link"):
        assert marker not in html_text, marker

    html_path, json_path = write_report(
        str(tmp_path / "report.html"), [f6_payload])
    assert (tmp_path / "report.html").read_text().startswith(
        "<!DOCTYPE html>")
    artifact = json.loads((tmp_path / "report.json").read_text())
    assert artifact["schema"] == WHATIF_SCHEMA
    assert artifact["queries"][0]["query"] == "f6"
    assert whatif_violations(artifact["queries"][0]) == []


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_whatif_writes_valid_payload(tmp_path, capsys):
    out = tmp_path / "WHATIF_f2.json"
    code = cli_main(["whatif", "--query", "f2", "--rows", str(ROWS),
                     "--resources", "ssd.bw",
                     "--factors", "2,4", "-o", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "per-resource sensitivity" in printed
    payload = json.loads(out.read_text())
    assert payload["schema"] == WHATIF_SCHEMA
    assert whatif_violations(payload) == []
    assert [row["resource"] for row in payload["sensitivity"]] == [
        "ssd.bw"]


def test_cli_report_writes_html_and_json(tmp_path, capsys):
    out = tmp_path / "attr.html"
    code = cli_main(["report", "-o", str(out), "--queries", "f2",
                     "--rows", str(ROWS)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert out.read_text().startswith("<!DOCTYPE html>")
    artifact = json.loads((tmp_path / "attr.json").read_text())
    assert len(artifact["queries"]) == 1


def test_cli_optimize_validate_whatif(capsys):
    code = cli_main(["optimize", "--query", "f2", "--rows",
                     str(ROWS), "-k", "2", "--validate-whatif"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "optimizer cross-check" in printed
    assert ("agrees with simulation" in printed
            or "DISAGREEMENTS" in printed)
