"""The exact-output harness (``repro bench``).

A report is a pure function of the code and the arguments: checksums,
simulated times, bytes per link, ledgers, attributions and digests —
model outputs that repeat bit for bit on any host, at any ``--jobs``
count and under either reference switch.  Host time is not recorded
here; ``perfbench/`` measures it.

Four sections, one row each in :data:`SUITES`, all run by
:func:`run_tasks` and gated by :func:`compare_reports`:

* **smoke** — small, fully instrumented queries executed on *both*
  engines; the harness fails loudly if the Volcano and data-flow
  answers disagree or a simulator does not drain.
* **scale** — F2/F4/F6-shaped queries at 100k–1M rows (``--scale``).
* **serving** — the multi-tenant serving scenarios (``--serve``),
  each verified against standalone oracle runs.
* **experiments** — the paper's figures and claims, one module each
  in :mod:`repro.experiments` (``--exp f1,c3`` or ``--exp all``); a
  record carries the rows and the verdict of every check, and a
  failed check exits 1.

They land in one JSON report (``BENCH_<tag>.json``, schema
:data:`repro.obs.REPORT_SCHEMA`).  ``--compare BASELINE`` re-runs
every record of a baseline report from the parameters the record
carries and diffs the two, leaf by leaf.

Every scenario owns its :class:`~repro.sim.Simulator` and builds its
fabric fresh, so scenarios are independent and ``--jobs N`` fans them
out across worker processes without changing a byte of the report.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone
from typing import Callable, Collection, Iterator, NamedTuple, Optional

from .analysis import attribute_query
from .analysis.scenarios import QUERIES, assert_drained, oracle_checksum
from .engine import DataflowEngine, VolcanoEngine, place
from .experiments import EXPERIMENTS, run_experiment
from .hardware import build_fabric, conventional_spec, dataflow_spec
from .obs import (
    combine_checksums,
    fabric_snapshot,
    make_report,
    table_checksum,
    validate_report,
)
from .relational import standard_catalog
from .scheduler import Scheduler
from .serve import SERVE_SCENARIOS, run_scenario

__all__ = ["SMOKE_SCENARIOS", "SCALE_CHUNK", "SUITES",
           "suite_tasks", "cli_tasks", "run_tasks", "run_suite",
           "write_report", "compare_reports", "run_compare", "run_cli"]

DEFAULT_ROWS = 6000
_CHUNK = 1000

SCALE_CHUNK = 16_384
"""Chunk rows for the scale tier (``repro bench --scale``).

Large chunks keep the simulator's event count (which scales with
*chunks*, not rows) modest while the relational kernels chew through
100k–1M rows.
"""

DEFAULT_TOLERANCE = 0.01
"""Relative tolerance for float leaves in ``--compare``.

The simulator is bit-deterministic, so the tolerance only absorbs
deliberate model refinements small enough to be non-regressions;
everything that is not a float must always match exactly.
"""


def _quiet(_line: str) -> None:
    """The default ``echo``: print nothing."""


# ---------------------------------------------------------------------------
# Smoke scenarios
# ---------------------------------------------------------------------------

SMOKE_QUERIES = {"filter_project": "f2", "group_by_sum": "f3",
                 "join_agg": "join_agg", "sort_limit": "f5"}
"""Smoke scenario -> its :data:`~repro.analysis.scenarios.QUERIES`
shape; each runs on both engines through :func:`_run_query_scenario`."""


def _engine_summary(result) -> dict:
    return {
        "elapsed_sim_s": result.elapsed,
        "rows": result.rows,
        "total_moved_bytes": result.total_bytes_moved,
        "utilization": result.utilization,
    }


def _run_query_scenario(name: str, shape: str, rows: int,
                        chunk: int = _CHUNK,
                        volcano_spec: Callable = dataflow_spec,
                        placement: str = "pushdown",
                        headline: str = "dataflow") -> dict:
    """Run the ``QUERIES[shape]`` query on both engines; compare.

    Each engine gets a fresh fabric; the data-flow one runs the
    ``placement`` policy.  The ``headline`` engine's fabric is the
    architecture under study: its snapshot, simulated time and exact
    critical-path attribution (every simulated nanosecond in a device
    | link | wait bucket) are the record's top-level
    movement/utilization figures.
    """
    catalog = standard_catalog(rows, chunk)
    query = QUERIES[shape]()

    fabric_v = build_fabric(volcano_spec())
    res_v = VolcanoEngine(fabric_v, catalog).execute(query)

    fabric_d = build_fabric(dataflow_spec())
    res_d = DataflowEngine(fabric_d, catalog).execute(
        query, placement=place(placement, query, fabric_d, catalog))
    assert_drained(fabric_v.sim, name)
    assert_drained(fabric_d.sim, name)

    sum_v, sum_d = res_v.checksum(), res_d.checksum()
    if sum_v != sum_d:
        raise AssertionError(
            f"scenario {name!r}: engine results disagree "
            f"(volcano {sum_v[:12]}..., dataflow {sum_d[:12]}...)")
    fabric, result = {"volcano": (fabric_v, res_v),
                      "dataflow": (fabric_d, res_d)}[headline]
    record = {
        "name": name,
        "rows": rows,
        "chunk_rows": chunk,
        "sim_time_s": result.elapsed,
        "checksum": sum_d,
        "agree": True,
        "engines": {"volcano": _engine_summary(res_v),
                    "dataflow": _engine_summary(res_d)},
    }
    record.update(fabric_snapshot(fabric))
    record["attribution"] = attribute_query(fabric.trace,
                                            result).to_dict()
    return record


def _conventional_scan(rows: int) -> dict:
    """Volcano on the conventional fabric vs dataflow (cpu placement).

    Exercises the conventional preset (no smart devices) and the
    cpu_only placement path; the two answers must still agree, and
    the Volcano fabric is the headline.
    """
    record = _run_query_scenario(
        "conventional_scan", "f1", rows,
        volcano_spec=conventional_spec, placement="cpu",
        headline="volcano")
    # This record has never pinned its chunking, and the checked-in
    # baseline is exactly what a fresh run writes.
    del record["chunk_rows"]
    return record


def _run_scheduler_mix(rows: int) -> dict:
    """Concurrent queries through the scheduler, checked per query."""
    catalog = standard_catalog(rows, _CHUNK)
    queries = {name: QUERIES[name]()
               for name in ("q_agg", "q_filter", "q_sort")}
    fabric = build_fabric(dataflow_spec())
    scheduler = Scheduler(fabric, catalog)
    for i, (name, query) in enumerate(queries.items()):
        scheduler.submit(name, query, arrival=i * 1e-4)
    records = scheduler.run()
    assert_drained(fabric.sim, "scheduler_mix")

    checksums = {rec.name: table_checksum(rec.table) for rec in records}
    agree = all(oracle_checksum(queries[name], catalog, "scheduler_mix")
                == checksum for name, checksum in checksums.items())
    if not agree:
        raise AssertionError(
            "smoke scenario 'scheduler_mix': a scheduled query's "
            "result disagrees with the Volcano oracle")
    record = {
        "name": "scheduler_mix",
        "rows": rows,
        "sim_time_s": scheduler.makespan(),
        "checksum": combine_checksums(checksums),
        "agree": agree,
        "queries": {rec.name: {"latency_s": rec.latency,
                               "variant": rec.variant_name}
                    for rec in records},
    }
    record.update(fabric_snapshot(fabric))
    return record


SMOKE_SCENARIOS: dict[str, Callable[[int], dict]] = {
    **{name: functools.partial(_run_query_scenario, name, shape)
       for name, shape in SMOKE_QUERIES.items()},
    "conventional_scan": _conventional_scan,
    "scheduler_mix": _run_scheduler_mix,
}


# ---------------------------------------------------------------------------
# Scale tier (the ``scale`` section; ``repro bench --scale``)
# ---------------------------------------------------------------------------

SCALE_QUERIES: dict[str, tuple[str, int]] = {
    "scale_f2_pushdown_100k": ("f2_narrow", 100_000),
    "scale_f4_join_300k": ("join_agg", 300_000),
    "scale_f6_pipeline_1m": ("f6", 1_000_000),
}
"""Scale scenario -> (``QUERIES`` shape, base rows).

F2/F4/F6-shaped queries (pushdown filter+project, scatter join, full
filter+join+aggregate pipeline) at 100k–1M rows with
:data:`SCALE_CHUNK`-row chunks.  Each runs through
:func:`_run_query_scenario`, so both engines execute it, the checksums
must agree, and the simulator must drain; the record pins
``chunk_rows`` for compare.
"""


def _run_scale(name: str) -> dict:
    shape, rows = SCALE_QUERIES[name]
    return _run_query_scenario(name, shape, rows, chunk=SCALE_CHUNK)


# ---------------------------------------------------------------------------
# Serving scenarios (the ``serving`` section)
# ---------------------------------------------------------------------------

SERVE_BENCH_QUERIES = 200
"""Queries per serving scenario in bench runs.

Small enough for CI, large enough that the latency percentiles are
stable — the simulator is deterministic, so the same request count
reproduces the same p50/p99/p999 bit for bit.
"""


def _run_serving(name: str, rows: Optional[int] = None,
                 queries: Optional[int] = SERVE_BENCH_QUERIES) -> dict:
    """One serving run, verified, reduced to its bench record.

    ``run_scenario`` verifies itself (zero accounting, telemetry and
    observatory violations, checksums bit-identical to standalone
    oracle runs).  The per-query record dicts, completion order and
    full observer payloads are bulky and fully re-derivable from a
    ``repro serve`` run; the bench report keeps the aggregates, the
    checksum, and the payload *digests* (bit-reproducible, so
    ``--compare`` gates on them without carrying the payloads).
    """
    record = run_scenario(name, rows=rows, queries=queries)
    record.pop("records", None)
    record.pop("completion_order", None)
    telemetry = record.pop("telemetry", None)
    if telemetry is not None:
        record["telemetry_windows"] = telemetry["windows"]
        record["telemetry_alerts"] = len(telemetry["alerts"])
        record["telemetry_exemplars"] = len(telemetry["exemplars"])
    observatory = record.pop("observatory", None)
    if observatory is not None:
        record["observatory_windows"] = observatory["windows"]
        record["observatory_partial"] = observatory["partial"]
    return record


# ---------------------------------------------------------------------------
# The suite table and its one runner
# ---------------------------------------------------------------------------

class Suite(NamedTuple):
    """One report section: how to list, parameterise, run, print it."""

    names: Callable[[], Collection[str]]
    """Every scenario name the section knows."""
    run: Callable[..., dict]
    """``run(name, **params) -> record``."""
    line: Callable[[dict], str]
    """The progress line for one record."""
    from_args: Callable[[argparse.Namespace], dict] = lambda args: {}
    """``run`` keyword arguments for a CLI invocation..."""
    from_record: Callable[[dict], dict] = lambda record: {}
    """...or the ones that reproduce a (validated) baseline record."""


def _query_line(record: dict) -> str:
    return (f"{record['name']:24} rows {record['rows']:>9,}  "
            f"sim {record['sim_time_s']:.6f}s  "
            f"checksum {record['checksum'][:12]}")


def _serving_line(record: dict) -> str:
    return (f"{record['name']:18} q {record['queries']:5d}  "
            f"p50 {record['latency']['p50_s']:.6f}s  "
            f"p99 {record['latency']['p99_s']:.6f}s  "
            f"goodput {record['goodput_qps']:8.1f}/s  "
            f"shed {record['shed']:4d}  "
            f"alerts {record.get('telemetry_alerts', 0):3d}  "
            f"checksum {record['checksum'][:12]}")


def _experiment_line(record: dict) -> str:
    passed = sum(check["passed"] for check in record["checks"])
    return f"{record['name']:6} {passed}/{len(record['checks'])} checks pass"


SUITES: dict[str, Suite] = {
    "smoke": Suite(
        names=lambda: SMOKE_SCENARIOS,
        from_args=lambda args: {"rows": args.rows},
        from_record=lambda record: {"rows": record["rows"]},
        run=lambda name, rows=DEFAULT_ROWS: SMOKE_SCENARIOS[name](rows),
        line=_query_line),
    "serving": Suite(
        names=lambda: SERVE_SCENARIOS,
        from_args=lambda args: {"queries": args.serve_queries},
        from_record=lambda record: {
            "rows": record.get("rows"),
            "queries": record.get("requested_queries")},
        run=_run_serving, line=_serving_line),
    "experiments": Suite(
        names=lambda: EXPERIMENTS,
        run=run_experiment, line=_experiment_line),
    "scale": Suite(
        names=lambda: SCALE_QUERIES,
        run=_run_scale, line=_query_line),
}
"""Report section -> its row, in the order sections run."""

Task = tuple[str, str, dict]
"""(section, scenario name, ``run`` keyword arguments) — plain data."""


def suite_tasks(section: str, only: Optional[list[str]] = None,
                **params) -> list[Task]:
    """Tasks for ``only`` (default: every scenario) of one section."""
    have = SUITES[section].names()
    names = sorted(have) if only is None else only
    unknown = [name for name in names if name not in have]
    if unknown:
        raise ValueError(f"unknown {section} scenario {unknown} "
                         f"(have {sorted(have)})")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        # Records are compared by name, so a repeat has no twin.
        raise ValueError(f"repeated {section} scenario {repeated}")
    return [(section, name, params) for name in names]


def _run_task(task: Task) -> dict:
    section, name, params = task
    return SUITES[section].run(name, **params)


def run_tasks(tasks: list[Task],
              echo: Callable[[str], None] = _quiet,
              jobs: int = 1) -> dict[str, list[dict]]:
    """Run ``tasks``; records grouped by section, in task order.

    ``jobs`` > 1 fans the tasks out across worker processes.  Each
    scenario owns its simulator and fabric, so the records are
    identical at any job count.
    """
    if jobs <= 1 or len(tasks) <= 1:
        records = [_run_task(task) for task in tasks]
    else:
        import multiprocessing
        with multiprocessing.get_context().Pool(
                processes=min(jobs, len(tasks))) as pool:
            records = pool.map(_run_task, tasks)
    by_section: dict[str, list[dict]] = {s: [] for s in SUITES}
    for (section, _name, _params), record in zip(tasks, records):
        echo(f"  {section:11} {SUITES[section].line(record)}")
        by_section[section].append(record)
    return by_section


def run_suite(section: str, only: Optional[list[str]] = None,
              **params) -> list[dict]:
    """Run one section (``only``: a subset) in this process, quietly;
    one record per scenario."""
    return run_tasks(suite_tasks(section, only, **params))[section]


# ---------------------------------------------------------------------------
# Baseline comparison (the regression gate)
# ---------------------------------------------------------------------------

def _diff(base, fresh, tolerance: float, path: str) -> Iterator[str]:
    """Every leaf of ``base`` that ``fresh`` does not reproduce."""
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key, value in base.items():
            if key not in fresh:
                yield f"{path}.{key}: missing from fresh run"
            else:
                yield from _diff(value, fresh[key], tolerance,
                                 f"{path}.{key}")
    elif isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            yield f"{path}: {len(base)} entries -> {len(fresh)}"
        for index, (b, f) in enumerate(zip(base, fresh)):
            yield from _diff(b, f, tolerance, f"{path}[{index}]")
    elif isinstance(base, float) and isinstance(fresh, float):
        if base != fresh and abs(fresh - base) > tolerance * max(
                abs(base), abs(fresh)):
            yield (f"{path}: {base!r} -> {fresh!r} "
                   f"(tolerance {tolerance:.1%})")
    elif base != fresh:
        yield f"{path}: {base!r} -> {fresh!r}"


def compare_reports(baseline: dict, fresh: dict[str, list[dict]],
                    tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Diff every baseline record against its fresh twin.

    ``fresh`` maps section -> records (a report, or what
    :func:`run_tasks` returns).  Every key a baseline record carries
    must be present in the fresh record of the same section and name;
    floats must be within ``tolerance`` (relative), everything else
    equal.  Keys only the fresh record has are ignored.  Returns one
    line per violation, each naming the JSON path that moved
    (``smoke[join_agg].ledger[3].bytes``); empty = pass.
    """
    violations: list[str] = []
    for section in SUITES:
        twins = {rec["name"]: rec for rec in fresh.get(section, [])}
        for base in baseline.get(section, []):
            where = f"{section}[{base['name']}]"
            if base["name"] not in twins:
                violations.append(
                    f"{where}: scenario missing from fresh run")
            else:
                violations.extend(_diff(base, twins[base["name"]],
                                        tolerance, where))
    return violations


def run_compare(baseline_path: str,
                tolerance: float = DEFAULT_TOLERANCE,
                echo: Callable[[str], None] = _quiet,
                jobs: int = 1) -> int:
    """Re-run a baseline's records and diff them.

    Returns 0 when every record is reproduced, 1 on a regression (one
    ``REGRESSION:`` line per violation on stderr), 2 when the baseline
    cannot be read or is not a valid report.
    """
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        validate_report(baseline)
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"error: {baseline_path}: {reason}", file=sys.stderr)
        return 2
    echo(f"comparing against {baseline_path} "
         f"(tolerance {tolerance:.1%}):")
    # A scenario this code no longer knows is left out here and
    # reported as missing by compare_reports.
    tasks: list[Task] = []
    for section, suite in SUITES.items():
        known = suite.names()
        tasks += [(section, record["name"], suite.from_record(record))
                  for record in baseline.get(section, [])
                  if record["name"] in known]
    violations = compare_reports(baseline,
                                 run_tasks(tasks, echo, jobs),
                                 tolerance)
    for line in violations:
        print(f"REGRESSION: {line}", file=sys.stderr)
    if violations:
        return 1
    echo("baseline comparison passed ("
         + " + ".join(f"{len(baseline.get(section, []))} {section}"
                      for section in SUITES) + ")")
    return 0


# ---------------------------------------------------------------------------
# Report + CLI
# ---------------------------------------------------------------------------

def write_report(report: dict, out_dir: str) -> str:
    """Validate and write ``BENCH_<tag>.json``; returns the path."""
    validate_report(report)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{report['tag']}.json")
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def cli_tasks(args: argparse.Namespace) -> list[Task]:
    """The tasks a (non-compare) CLI invocation asks for."""
    exp_ids = [e.strip().lower() for e in args.exp.split(",")
               if e.strip()]
    selected = {  # None = every scenario of the section
        "smoke": None if args.smoke or not exp_ids else [],
        "serving": None if args.serve else [],
        "experiments": None if exp_ids == ["all"] else exp_ids,
        "scale": None if args.scale else [],
    }
    return [task for section, only in selected.items()
            for task in suite_tasks(section, only,
                                    **SUITES[section].from_args(args))]


def run_cli(args) -> int:
    """Run the benchmark harness -> BENCH_<tag>.json.

    Exits 1 when an experiment check fails (one ``FAILED CHECK:``
    line per failure on stderr; the report is still written).
    """
    echo = _quiet if args.quiet else print
    jobs = args.jobs
    if args.compare:
        return run_compare(args.compare, tolerance=args.tolerance,
                           echo=echo, jobs=jobs)
    if args.list:
        for section, suite in SUITES.items():
            print(f"{section}:")
            for name in sorted(suite.names()):
                print(f"  {name}")
        return 0

    try:
        tasks = cli_tasks(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    echo(f"running {len(tasks)} benchmarks"
         + (f" (jobs={jobs})" if jobs > 1 else "") + ":")
    report = make_report(
        args.tag,
        created=datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        **run_tasks(tasks, echo, jobs))
    path = write_report(report, args.out)
    echo(f"report: {path}  "
         f"({report['totals']['benchmarks']} benchmarks)")
    failed = [f"experiments[{record['name']}].{check['name']} "
              f"(value {check['value']!r})"
              for record in report["experiments"]
              for check in record["checks"] if not check["passed"]]
    for line in failed:
        print(f"FAILED CHECK: {line}", file=sys.stderr)
    return 1 if failed else 0
