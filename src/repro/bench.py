"""Machine-readable benchmark harness (``repro bench``).

Two layers:

* **Smoke scenarios** — small, fully instrumented query runs executed
  on *both* engines.  Each scenario reports wall time, simulated
  time, bytes moved per segment, per-link byte/chunk totals, device
  utilization, the critical-path summary, and a canonical result
  checksum; the harness fails loudly if the Volcano and data-flow
  answers disagree.  These are the always-on health probes CI runs on
  every push (``repro bench --smoke``).
* **Experiment scripts** — the ``benchmarks/bench_*.py`` studies
  (F1–F6, C1–C8, E1–E6).  The harness imports each script and calls
  its ``run_<id>()`` entry point, recording wall time and the result
  rows.  These are opt-in (``repro bench --exp f1,c3`` or ``--exp
  all``) because the full set takes minutes.

Both layers land in one schema-versioned JSON report
(``BENCH_<tag>.json``, schema :data:`repro.obs.REPORT_SCHEMA`) so
runs are diffable across commits and machines.

Parallelism: every scenario owns its :class:`~repro.sim.Simulator`
and builds its fabric fresh, so scenarios are independent and
``--jobs N`` fans them out across worker processes — determinism is
free, and per-scenario ``wall_time_s`` stays a single-process
measurement (it is clocked inside the worker).  The report's
``totals.wall_time_s`` therefore remains comparable across job
counts, while ``totals.harness_wall_s`` shows the parallel win.
``--profile`` wraps the in-process run in cProfile and embeds the
top functions (by cumulative time) in the report.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time
from typing import Callable, Optional

from .engine import (
    AggSpec,
    DataflowEngine,
    Query,
    VolcanoEngine,
    cpu_only,
)
from .hardware import build_fabric, conventional_spec, dataflow_spec
from .obs import (
    combine_checksums,
    fabric_snapshot,
    make_report,
    table_checksum,
    validate_report,
)
from .relational import (
    Catalog,
    col,
    make_lineitem,
    make_orders,
    make_uniform_table,
)

__all__ = ["SMOKE_SCENARIOS", "SCALE_CHUNK", "run_smoke",
           "run_serving", "run_scale", "run_experiments",
           "write_report", "compare_reports", "run_compare",
           "profile_call", "run_cli", "main"]

DEFAULT_ROWS = 6000
_CHUNK = 1000

SCALE_CHUNK = 16_384
"""Chunk rows for the scale tier (``repro bench --scale``).

Large chunks keep the simulator's event count (which scales with
*chunks*, not rows) modest while the relational kernels chew through
100k–1M rows — the point of the tier is that simulated wall time
stays flat-ish as data grows, because the hot path is per-chunk.
"""

DEFAULT_TOLERANCE = 0.01
"""Relative tolerance for time/byte comparisons in ``--compare``.

The simulator is bit-deterministic, so the tolerance only absorbs
deliberate model refinements small enough to be non-regressions;
checksums and row counts must always match exactly.
"""


# Catalogs are memoized per (row count, chunk size): the generators
# are seeded (the same rows come back bit for bit) and scenarios
# treat tables as immutable, so rebuilding the catalog per scenario
# only burned wall time.  Worker processes (--jobs) each fill their
# own cache.
_CATALOG_CACHE: dict[tuple[int, int], Catalog] = {}


def _make_catalog(rows: int, chunk: int = _CHUNK) -> Catalog:
    catalog = _CATALOG_CACHE.get((rows, chunk))
    if catalog is None:
        catalog = Catalog()
        catalog.register("lineitem", make_lineitem(rows,
                                                   orders=rows // 4,
                                                   chunk_rows=chunk))
        catalog.register("orders", make_orders(rows // 4,
                                               chunk_rows=chunk))
        catalog.register("uniform", make_uniform_table(rows, columns=3,
                                                       distinct=50,
                                                       chunk_rows=chunk))
        _CATALOG_CACHE[(rows, chunk)] = catalog
    return catalog


def _assert_drained(sim, scenario: str) -> None:
    """Fail loudly if a scenario's simulator did not drain.

    Every bench scenario owns its simulator; after the run completes
    there must be nothing left in the event queues — a pending event
    means a process, callback, or credit return leaked past the end
    of the workload, which the fast flow paths could otherwise hide.
    """
    pending = sim.pending_events
    if pending:
        raise AssertionError(
            f"scenario {scenario!r} leaked {pending} pending "
            "simulator event(s) after completion")


def _smoke_queries() -> dict[str, Query]:
    return {
        "filter_project": (
            Query.scan("lineitem")
            .filter(col("l_quantity") > 40)
            .project(["l_orderkey", "l_extendedprice"])),
        "group_by_sum": (
            Query.scan("lineitem")
            .filter(col("l_shipdate").between(8500, 10500))
            .aggregate(["l_returnflag"],
                       [AggSpec("sum", "l_extendedprice", "revenue"),
                        AggSpec("count", alias="n")])),
        "join_agg": (
            Query.scan("lineitem")
            .filter(col("l_quantity") > 10)
            .join(Query.scan("orders")
                  .filter(col("o_priority") <= 2),
                  "l_orderkey", "o_orderkey")
            .aggregate(["o_priority"],
                       [AggSpec("sum", "l_extendedprice", "rev")])),
        "sort_limit": (
            Query.scan("uniform")
            .filter(col("k0") < 25)
            .sort(["k0", "k1"])
            .limit(100)),
    }


def _engine_summary(result) -> dict:
    return {
        "elapsed_sim_s": result.elapsed,
        "rows": result.rows,
        "total_moved_bytes": result.total_bytes_moved,
        "utilization": result.utilization,
    }


def _run_query_scenario(name: str, query: Query, rows: int,
                        spec_factory: Callable = dataflow_spec,
                        placement_factory: Optional[Callable] = None,
                        chunk: int = _CHUNK) -> dict:
    """Run one query on both engines over fresh fabrics; compare."""
    started = time.perf_counter()
    catalog = _make_catalog(rows, chunk)

    fabric_v = build_fabric(spec_factory())
    res_v = VolcanoEngine(fabric_v, catalog).execute(query)

    fabric_d = build_fabric(spec_factory())
    placement = (placement_factory(query.plan, fabric_d)
                 if placement_factory else None)
    res_d = DataflowEngine(fabric_d, catalog).execute(
        query, placement=placement)
    _assert_drained(fabric_v.sim, name)
    _assert_drained(fabric_d.sim, name)

    sum_v, sum_d = res_v.checksum(), res_d.checksum()
    record = {
        "name": name,
        "rows": rows,
        "chunk_rows": chunk,
        "wall_time_s": time.perf_counter() - started,
        "sim_time_s": res_d.elapsed,
        "checksum": sum_d,
        "agree": sum_v == sum_d,
        "engines": {"volcano": _engine_summary(res_v),
                    "dataflow": _engine_summary(res_d)},
    }
    # The data-flow fabric is the architecture under study; its
    # snapshot is the scenario's headline movement/utilization.
    record.update({k: v for k, v in fabric_snapshot(fabric_d).items()
                   if k != "sim_time_s"})
    # Exact critical-path attribution of the data-flow run: every
    # simulated nanosecond in a (device | link | wait) bucket, with
    # the "exact" flag asserting reconciliation against elapsed.
    from .analysis import attribute_query
    record["attribution"] = attribute_query(fabric_d.trace,
                                            res_d).to_dict()
    if not record["agree"]:
        raise AssertionError(
            f"smoke scenario {name!r}: engine results disagree "
            f"(volcano {sum_v[:12]}..., dataflow {sum_d[:12]}...)")
    return record


def _run_conventional_scan(rows: int) -> dict:
    """Volcano on the conventional fabric vs dataflow (cpu placement).

    Exercises the conventional preset (no smart devices) and the
    cpu_only placement path; the two answers must still agree.
    """
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 30)
             .aggregate(["l_returnflag"],
                        [AggSpec("count", alias="n")]))
    started = time.perf_counter()
    catalog = _make_catalog(rows)

    fabric_v = build_fabric(conventional_spec())
    res_v = VolcanoEngine(fabric_v, catalog).execute(query)

    fabric_d = build_fabric(dataflow_spec())
    res_d = DataflowEngine(fabric_d, catalog).execute(
        query, placement=cpu_only(query.plan, fabric_d))
    _assert_drained(fabric_v.sim, "conventional_scan")
    _assert_drained(fabric_d.sim, "conventional_scan")

    sum_v, sum_d = res_v.checksum(), res_d.checksum()
    record = {
        "name": "conventional_scan",
        "rows": rows,
        "wall_time_s": time.perf_counter() - started,
        "sim_time_s": res_v.elapsed,
        "checksum": sum_v,
        "agree": sum_v == sum_d,
        "engines": {"volcano": _engine_summary(res_v),
                    "dataflow": _engine_summary(res_d)},
    }
    record.update({k: v for k, v in fabric_snapshot(fabric_v).items()
                   if k != "sim_time_s"})
    from .analysis import attribute_query
    record["attribution"] = attribute_query(fabric_v.trace,
                                            res_v).to_dict()
    if not record["agree"]:
        raise AssertionError(
            "smoke scenario 'conventional_scan': engine results "
            f"disagree (volcano {sum_v[:12]}..., dataflow "
            f"{sum_d[:12]}...)")
    return record


def _run_scheduler_mix(rows: int) -> dict:
    """Concurrent queries through the scheduler, checked per query."""
    from .scheduler import Scheduler

    started = time.perf_counter()
    catalog = _make_catalog(rows)
    queries = {
        "q_filter": (Query.scan("lineitem")
                     .filter(col("l_quantity") > 40)
                     .project(["l_orderkey"])),
        "q_agg": (Query.scan("lineitem")
                  .aggregate(["l_returnflag"],
                             [AggSpec("count", alias="n")])),
        "q_sort": (Query.scan("uniform")
                   .filter(col("k0") < 20)
                   .sort(["k0"])
                   .limit(50)),
    }
    fabric = build_fabric(dataflow_spec())
    scheduler = Scheduler(fabric, catalog,
                          policy="interference+ratelimit")
    for i, (name, query) in enumerate(sorted(queries.items())):
        scheduler.submit(name, query, arrival=i * 1e-4)
    records = scheduler.run()
    _assert_drained(fabric.sim, "scheduler_mix")

    checksums, agree = {}, True
    for rec in records:
        checksums[rec.name] = table_checksum(rec.table)
        oracle_fabric = build_fabric(dataflow_spec())
        oracle = VolcanoEngine(oracle_fabric, catalog).execute(
            queries[rec.name])
        _assert_drained(oracle_fabric.sim, "scheduler_mix")
        agree = agree and (table_checksum(oracle.table)
                           == checksums[rec.name])
    record = {
        "name": "scheduler_mix",
        "rows": rows,
        "wall_time_s": time.perf_counter() - started,
        "sim_time_s": scheduler.makespan(),
        "checksum": combine_checksums(checksums),
        "agree": agree,
        "queries": {rec.name: {"latency_s": rec.latency,
                               "variant": rec.variant_name}
                    for rec in records},
    }
    record.update({k: v for k, v in fabric_snapshot(fabric).items()
                   if k != "sim_time_s"})
    if not agree:
        raise AssertionError(
            "smoke scenario 'scheduler_mix': a scheduled query's "
            "result disagrees with the Volcano oracle")
    return record


SMOKE_SCENARIOS: dict[str, Callable[[int], dict]] = {}


def _register_smoke() -> None:
    for name, query in _smoke_queries().items():
        SMOKE_SCENARIOS[name] = (
            lambda rows, n=name, q=query:
            _run_query_scenario(n, q, rows))
    SMOKE_SCENARIOS["conventional_scan"] = _run_conventional_scan
    SMOKE_SCENARIOS["scheduler_mix"] = _run_scheduler_mix


_register_smoke()


def _run_smoke_task(task: tuple[str, int]) -> dict:
    """One (scenario name, rows) unit of work — picklable for --jobs."""
    name, rows = task
    return SMOKE_SCENARIOS[name](rows)


def _map_tasks(worker: Callable, tasks: list, jobs: int) -> list:
    """Map ``worker`` over ``tasks``, fanning out when ``jobs`` > 1.

    Each task runs in its own worker process; results come back in
    task order, so the merged report is independent of the job count.
    """
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    import multiprocessing
    with multiprocessing.get_context().Pool(
            processes=min(jobs, len(tasks))) as pool:
        return pool.map(worker, tasks)


def _warm_runtime() -> None:
    """Pay one-time lazy-initialisation costs outside the timed regions.

    ``np.unique`` imports ``numpy.ma`` on its first call,
    ``np.random`` loads on first attribute access, and the kernel
    compiler module loads on first use; each would otherwise land
    inside whichever scenario happens to run first and distort its
    wall clock.  Idempotent and ~free once warm.
    """
    import numpy as np
    np.unique(np.empty(0, dtype=np.int64))
    np.random.default_rng(0)
    from .engine import kernels  # noqa: F401
    # Query codegen: generating + exec-ing a throwaway kernel pays the
    # bytecode compiler and regex machinery once, without touching the
    # counters or the kernel cache.
    from .engine import codegen
    from .engine.operators import FilterOp, ProjectOp
    from .relational.expressions import col, lit
    from .relational.schema import DataType, Field, Schema
    schema = Schema([Field("w", DataType.INT64)])
    parts = [FilterOp(col("w") > lit(0)), ProjectOp(["w"])]
    codegen._exec_body("warmup", codegen.generate_source(parts, schema))


def _warm_catalogs(tasks: list[tuple[str, int]], jobs: int) -> None:
    """Fill the catalog cache in the parent before fanning out.

    Forked workers inherit the cache copy-on-write, so every job
    count pays the (dominant) table-generation cost exactly once and
    per-scenario ``wall_time_s`` stays comparable across ``--jobs``.
    On spawn platforms this is merely a no-op warm-up for the parent.
    """
    if jobs > 1:
        for rows in sorted({rows for _name, rows in tasks}):
            _make_catalog(rows)


def run_smoke(rows: int = DEFAULT_ROWS,
              only: Optional[list[str]] = None,
              echo: Callable[[str], None] = lambda _line: None,
              jobs: int = 1) -> list[dict]:
    """Run the smoke scenarios; returns one record per scenario.

    ``jobs`` > 1 fans scenarios out across worker processes.  Each
    scenario owns its simulator and fabric, so the records (simulated
    times, checksums, ledgers) are identical at any job count; only
    harness wall time changes.
    """
    names = only if only is not None else sorted(SMOKE_SCENARIOS)
    unknown = [n for n in names if n not in SMOKE_SCENARIOS]
    if unknown:
        raise ValueError(f"unknown smoke scenarios {unknown} "
                         f"(have {sorted(SMOKE_SCENARIOS)})")
    tasks = [(name, rows) for name in names]
    _warm_runtime()
    _warm_catalogs(tasks, jobs)
    records = _map_tasks(_run_smoke_task, tasks, jobs)
    for record in records:
        echo(f"  smoke {record['name']:18} "
             f"sim {record['sim_time_s']:.6f}s  "
             f"wall {record['wall_time_s']:.2f}s  "
             f"checksum {record['checksum'][:12]}")
    return records


# ---------------------------------------------------------------------------
# Scale tier (the ``scale`` section; ``repro bench --scale``)
# ---------------------------------------------------------------------------

def _scale_queries() -> dict[str, tuple[Query, int]]:
    """The scale-tier scenarios: name -> (query, base rows).

    F2/F4/F6-shaped queries (pushdown filter+project, scatter join,
    full filter+join+aggregate pipeline) at 100k–1M rows with
    :data:`SCALE_CHUNK`-row chunks.  Each runs through
    :func:`_run_query_scenario`, so both engines execute it, the
    checksums must agree, and the simulator must drain.
    """
    f2_pushdown = (
        Query.scan("lineitem")
        .filter(col("l_quantity") > 45)
        .project(["l_orderkey", "l_extendedprice"]))
    f4_join = (
        Query.scan("lineitem")
        .filter(col("l_quantity") > 10)
        .join(Query.scan("orders").filter(col("o_priority") <= 2),
              "l_orderkey", "o_orderkey")
        .aggregate(["o_priority"],
                   [AggSpec("sum", "l_extendedprice", "rev")]))
    f6_pipeline = (
        Query.scan("lineitem")
        .filter(col("l_shipdate").between(8500, 8800))
        .join(Query.scan("orders").filter(col("o_priority") <= 2),
              "l_orderkey", "o_orderkey")
        .aggregate(["o_priority"],
                   [AggSpec("sum", "l_extendedprice", "rev"),
                    AggSpec("count", alias="n")]))
    return {
        "scale_f2_pushdown_100k": (f2_pushdown, 100_000),
        "scale_f4_join_300k": (f4_join, 300_000),
        "scale_f6_pipeline_1m": (f6_pipeline, 1_000_000),
    }


def _run_scale_task(name: str) -> dict:
    """One scale scenario by name — picklable for --jobs."""
    query, rows = _scale_queries()[name]
    return _run_query_scenario(name, query, rows, chunk=SCALE_CHUNK)


def run_scale(only: Optional[list[str]] = None,
              echo: Callable[[str], None] = lambda _line: None,
              jobs: int = 1) -> list[dict]:
    """Run the scale tier; one smoke-shaped record per scenario.

    The records carry ``chunk_rows`` so ``--compare`` baselines pin
    the chunking; wall time per *simulated* second is the headline —
    the event count grows with chunks, not rows, so the 1M-row run
    should not cost 167x the 6k-row smoke scenarios.
    """
    scenarios = _scale_queries()
    names = only if only is not None else sorted(scenarios)
    unknown = [n for n in names if n not in scenarios]
    if unknown:
        raise ValueError(f"unknown scale scenarios {unknown} "
                         f"(have {sorted(scenarios)})")
    _warm_runtime()
    if jobs > 1:  # parent-side warm-up; workers inherit via COW fork
        for name in names:
            _make_catalog(scenarios[name][1], SCALE_CHUNK)
    records = _map_tasks(_run_scale_task, list(names), jobs)
    for record in records:
        echo(f"  scale {record['name']:24} "
             f"rows {record['rows']:>9,}  "
             f"sim {record['sim_time_s']:.6f}s  "
             f"wall {record['wall_time_s']:.2f}s  "
             f"checksum {record['checksum'][:12]}")
    return records


# ---------------------------------------------------------------------------
# Serving scenarios (the ``serving`` section of repro.bench/v3)
# ---------------------------------------------------------------------------

SERVE_BENCH_QUERIES = 200
"""Queries per serving scenario in bench runs.

Small enough for CI, large enough that the latency percentiles are
stable — the simulator is deterministic, so the same request count
reproduces the same p50/p99/p999 bit for bit.
"""


def _run_serve_task(task: tuple[str, Optional[int], Optional[int]]
                    ) -> dict:
    """One (scenario, rows, queries) serving run — picklable."""
    name, rows, queries = task
    from .serve import run_scenario
    record = run_scenario(name, rows=rows, queries=queries)
    # The per-query record dicts, completion order and full telemetry
    # payload are bulky and fully re-derivable from a `repro serve`
    # run; the bench report keeps the aggregates, the checksum, and
    # the telemetry *digest* (bit-reproducible, so `--compare` can
    # gate on it without carrying the whole payload).
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


def run_serving(names: Optional[list[str]] = None,
                rows: Optional[int] = None,
                queries: Optional[int] = SERVE_BENCH_QUERIES,
                echo: Callable[[str], None] = lambda _line: None,
                jobs: int = 1) -> list[dict]:
    """Run the named serving scenarios; one v3 record each.

    Every run verifies itself (zero accounting violations, zero
    telemetry violations — alert streams reconstructible, exemplar
    attributions exact — and checksums bit-identical to standalone
    oracle runs) before reporting.
    """
    from .serve import SERVE_SCENARIOS
    names = names if names is not None else sorted(SERVE_SCENARIOS)
    unknown = [n for n in names if n not in SERVE_SCENARIOS]
    if unknown:
        raise ValueError(f"unknown serve scenarios {unknown} "
                         f"(have {sorted(SERVE_SCENARIOS)})")
    tasks = [(name, rows, queries) for name in names]
    records = _map_tasks(_run_serve_task, tasks, jobs)
    for record in records:
        echo(f"  serve {record['name']:18} "
             f"q {record['queries']:5d}  "
             f"p50 {record['latency']['p50_s']:.6f}s  "
             f"p99 {record['latency']['p99_s']:.6f}s  "
             f"goodput {record['goodput_qps']:8.1f}/s  "
             f"shed {record['shed']:4d}  "
             f"alerts {record.get('telemetry_alerts', 0):3d}  "
             f"checksum {record['checksum'][:12]}")
    return records


# ---------------------------------------------------------------------------
# Experiment scripts (benchmarks/bench_*.py)
# ---------------------------------------------------------------------------

def default_bench_dir() -> str:
    """Locate the ``benchmarks/`` directory.

    Priority: ``$REPRO_BENCH_DIR``, then ``benchmarks/`` under the
    current directory, then ``benchmarks/`` next to the repo's
    ``src/`` parent (source checkouts).
    """
    env = os.environ.get("REPRO_BENCH_DIR")
    if env:
        return env
    cwd_dir = os.path.join(os.getcwd(), "benchmarks")
    if os.path.isdir(cwd_dir):
        return cwd_dir
    here = os.path.dirname(os.path.abspath(__file__))
    repo_dir = os.path.normpath(
        os.path.join(here, os.pardir, os.pardir, "benchmarks"))
    return repo_dir


def experiment_index(bench_dir: Optional[str] = None
                     ) -> dict[str, str]:
    """Map experiment id (lowercase) -> bench script path."""
    from .cli import EXPERIMENTS
    bench_dir = bench_dir or default_bench_dir()
    return {exp_id.lower(): os.path.join(bench_dir, script)
            for exp_id, _desc, script in EXPERIMENTS}


def _sanitize(value, depth: int = 0):
    """Coerce a run_<id>() return value to JSON-safe structures."""
    if depth > 6:
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _sanitize(v, depth + 1)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v, depth + 1) for v in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if value == value else None
    try:  # numpy scalars
        return _sanitize(value.item(), depth + 1)
    except AttributeError:
        return repr(value)


def run_experiment(exp_id: str, bench_dir: Optional[str] = None
                   ) -> dict:
    """Import one bench script and call its ``run_<id>()`` entry."""
    exp_id = exp_id.lower()
    index = experiment_index(bench_dir)
    if exp_id not in index:
        raise ValueError(f"unknown experiment {exp_id!r} "
                         f"(have {sorted(index)})")
    path = index[exp_id]
    bench_home = os.path.dirname(path)
    module_name = os.path.splitext(os.path.basename(path))[0]
    added = bench_home not in sys.path
    if added:  # bench scripts import their sibling ``common``
        sys.path.insert(0, bench_home)
    try:
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        entry = getattr(module, f"run_{exp_id}")
        started = time.perf_counter()
        rows = entry()
        wall = time.perf_counter() - started
    finally:
        if added:
            sys.path.remove(bench_home)
    return {
        "name": exp_id,
        "script": os.path.basename(path),
        "wall_time_s": wall,
        "rows": _sanitize(rows),
    }


def _run_experiment_task(task: tuple[str, Optional[str]]) -> dict:
    """One (experiment id, bench_dir) unit of work for --jobs."""
    exp_id, bench_dir = task
    return run_experiment(exp_id, bench_dir)


def run_experiments(exp_ids: list[str],
                    bench_dir: Optional[str] = None,
                    echo: Callable[[str], None] = lambda _line: None,
                    jobs: int = 1) -> list[dict]:
    records = _map_tasks(_run_experiment_task,
                         [(exp_id, bench_dir) for exp_id in exp_ids],
                         jobs)
    for record in records:
        echo(f"  exp {record['name']:6} ({record['script']})  "
             f"wall {record['wall_time_s']:.2f}s")
    return records


# ---------------------------------------------------------------------------
# Baseline comparison (the regression gate)
# ---------------------------------------------------------------------------

def _rel_close(baseline: float, fresh: float,
               tolerance: float) -> bool:
    if baseline == fresh:
        return True
    scale = max(abs(baseline), abs(fresh))
    return abs(fresh - baseline) <= tolerance * scale


def compare_reports(baseline: dict, fresh: list[dict],
                    tolerance: float = DEFAULT_TOLERANCE,
                    fresh_serving: Optional[list[dict]] = None,
                    fresh_scale: Optional[list[dict]] = None
                    ) -> list[str]:
    """Diff fresh smoke records against a baseline report.

    Checksums, row counts, and engine agreement must match exactly;
    ``sim_time_s``, per-segment ``movement_bytes``, and per-link byte
    totals must be within ``tolerance`` (relative).  Only quantities
    present in the baseline are compared, so a v1 baseline gates a v2
    run.  When the baseline carries a v3 ``serving`` section,
    ``fresh_serving`` is diffed too: checksums and the shed /
    SLO-violation / query counts must match exactly (the simulator is
    deterministic), latency percentiles and goodput within
    ``tolerance``.  A baseline ``scale`` section gates
    ``fresh_scale`` with the smoke rules (the records share their
    shape).  Returns human-readable violations (empty = pass).
    """
    violations: list[str] = []
    violations.extend(_compare_serving(baseline, fresh_serving or [],
                                       tolerance))
    violations.extend(_compare_query_records(
        baseline.get("smoke", []), fresh, tolerance, label=""))
    violations.extend(_compare_query_records(
        baseline.get("scale", []), fresh_scale or [], tolerance,
        label="scale"))
    return violations


def _compare_query_records(base_records: list[dict],
                           fresh: list[dict], tolerance: float,
                           label: str) -> list[str]:
    """Smoke-shaped record diff (shared by smoke and scale tiers)."""
    violations: list[str] = []
    by_name = {rec["name"]: rec for rec in fresh}
    for base in base_records:
        name = base["name"]
        if label:
            name = f"{label}[{base['name']}]"
        rec = by_name.get(base["name"])
        if rec is None:
            violations.append(f"{name}: scenario missing from fresh run")
            continue
        if base.get("checksum") != rec.get("checksum"):
            violations.append(
                f"{name}: checksum changed "
                f"({base.get('checksum', '')[:12]}... -> "
                f"{rec.get('checksum', '')[:12]}...)")
        if base.get("rows") != rec.get("rows"):
            violations.append(f"{name}: rows {base.get('rows')} -> "
                              f"{rec.get('rows')}")
        if base.get("chunk_rows") not in (None, rec.get("chunk_rows")):
            violations.append(
                f"{name}: chunk_rows {base['chunk_rows']} -> "
                f"{rec.get('chunk_rows')} (must match exactly)")
        if base.get("agree", True) and not rec.get("agree", False):
            violations.append(f"{name}: engines no longer agree")
        if "sim_time_s" in base and not _rel_close(
                base["sim_time_s"], rec.get("sim_time_s", 0.0),
                tolerance):
            violations.append(
                f"{name}: sim_time_s {base['sim_time_s']:.6g} -> "
                f"{rec.get('sim_time_s', 0.0):.6g} "
                f"(tolerance {tolerance:.1%})")
        for seg, nbytes in base.get("movement_bytes", {}).items():
            got = rec.get("movement_bytes", {}).get(seg, 0.0)
            if not _rel_close(nbytes, got, tolerance):
                violations.append(
                    f"{name}: movement_bytes[{seg}] {nbytes:.6g} -> "
                    f"{got:.6g} (tolerance {tolerance:.1%})")
        for link, entry in base.get("links", {}).items():
            got = rec.get("links", {}).get(link, {}).get("bytes", 0.0)
            if not _rel_close(entry.get("bytes", 0.0), got, tolerance):
                violations.append(
                    f"{name}: links[{link}].bytes "
                    f"{entry.get('bytes', 0.0):.6g} -> {got:.6g} "
                    f"(tolerance {tolerance:.1%})")
    return violations


# telemetry_digest / observatory_digest are the strongest of these:
# byte-identical derived payloads (windows, sketches, alerts,
# exemplars; saturation series, bound tags, regret scores) for the
# same seed, regardless of --jobs or host.  Keys absent from an older
# baseline are skipped, so adding one here stays backward-compatible.
_SERVE_EXACT_KEYS = ("queries", "completed", "shed",
                     "slo_violations", "telemetry_digest",
                     "telemetry_windows", "telemetry_alerts",
                     "telemetry_exemplars", "observatory_digest",
                     "observatory_windows", "observatory_partial")

_SERVE_TOLERANCE_KEYS = ("p50_s", "p99_s", "p999_s")


def _compare_serving(baseline: dict, fresh: list[dict],
                     tolerance: float) -> list[str]:
    """Serving-section violations (helper of :func:`compare_reports`)."""
    violations: list[str] = []
    by_name = {rec["name"]: rec for rec in fresh}
    for base in baseline.get("serving", []):
        name = base["name"]
        rec = by_name.get(name)
        if rec is None:
            violations.append(
                f"serving[{name}]: scenario missing from fresh run")
            continue
        if base.get("checksum") != rec.get("checksum"):
            violations.append(
                f"serving[{name}]: checksum changed "
                f"({base.get('checksum', '')[:12]}... -> "
                f"{rec.get('checksum', '')[:12]}...)")
        for key in _SERVE_EXACT_KEYS:
            if key in base and base[key] != rec.get(key):
                violations.append(
                    f"serving[{name}]: {key} {base[key]} -> "
                    f"{rec.get(key)} (must match exactly)")
        base_latency = base.get("latency", {})
        fresh_latency = rec.get("latency", {})
        for key in _SERVE_TOLERANCE_KEYS:
            if key in base_latency and not _rel_close(
                    base_latency[key], fresh_latency.get(key, 0.0),
                    tolerance):
                violations.append(
                    f"serving[{name}]: latency.{key} "
                    f"{base_latency[key]:.6g} -> "
                    f"{fresh_latency.get(key, 0.0):.6g} "
                    f"(tolerance {tolerance:.1%})")
        if "goodput_qps" in base and not _rel_close(
                base["goodput_qps"], rec.get("goodput_qps", 0.0),
                tolerance):
            violations.append(
                f"serving[{name}]: goodput_qps "
                f"{base['goodput_qps']:.6g} -> "
                f"{rec.get('goodput_qps', 0.0):.6g} "
                f"(tolerance {tolerance:.1%})")
    return violations


def run_compare(baseline_path: str,
                tolerance: float = DEFAULT_TOLERANCE,
                echo: Callable[[str], None] = lambda _line: None,
                jobs: int = 1) -> int:
    """Re-run the baseline's scenarios and diff; 0 = pass, 1 = fail.

    Besides the gating checks (checksums/rows exact, times and bytes
    within ``tolerance``), prints the wall-time delta against the
    baseline — informational only, since wall clocks differ across
    machines.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    validate_report(baseline)
    echo(f"comparing against {baseline_path} "
         f"(schema {baseline.get('schema')}, "
         f"tolerance {tolerance:.1%}):")
    tasks = [(base["name"], base.get("rows", DEFAULT_ROWS))
             for base in baseline.get("smoke", [])
             if base["name"] in SMOKE_SCENARIOS]
    # Scenarios not in SMOKE_SCENARIOS are reported as missing by
    # compare_reports.
    _warm_runtime()
    _warm_catalogs(tasks, jobs)
    fresh = _map_tasks(_run_smoke_task, tasks, jobs)
    for record in fresh:
        echo(f"  rerun {record['name']:18} "
             f"sim {record['sim_time_s']:.6f}s  "
             f"wall {record['wall_time_s']:.2f}s  "
             f"checksum {record['checksum'][:12]}")
    fresh_serving: list[dict] = []
    serve_base = baseline.get("serving", [])
    if serve_base:
        from .serve import SERVE_SCENARIOS
        serve_tasks = [
            (base["name"], base.get("rows"),
             base.get("requested_queries"))
            for base in serve_base
            if base["name"] in SERVE_SCENARIOS]
        fresh_serving = _map_tasks(_run_serve_task, serve_tasks, jobs)
        for record in fresh_serving:
            echo(f"  rerun serve {record['name']:18} "
                 f"p50 {record['latency']['p50_s']:.6f}s  "
                 f"p99 {record['latency']['p99_s']:.6f}s  "
                 f"checksum {record['checksum'][:12]}")
    fresh_scale: list[dict] = []
    scale_base = baseline.get("scale", [])
    if scale_base:
        scale_names = [base["name"] for base in scale_base
                       if base["name"] in _scale_queries()]
        fresh_scale = _map_tasks(_run_scale_task, scale_names, jobs)
        for record in fresh_scale:
            echo(f"  rerun scale {record['name']:24} "
                 f"sim {record['sim_time_s']:.6f}s  "
                 f"wall {record['wall_time_s']:.2f}s  "
                 f"checksum {record['checksum'][:12]}")
    _echo_wall_delta(baseline, fresh, echo)
    _echo_wall_trend(baseline_path, echo)
    violations = compare_reports(baseline, fresh, tolerance,
                                 fresh_serving=fresh_serving,
                                 fresh_scale=fresh_scale)
    if violations:
        for line in violations:
            print(f"REGRESSION: {line}", file=sys.stderr)
        return 1
    echo(f"baseline comparison passed "
         f"({len(baseline.get('smoke', []))} smoke + "
         f"{len(serve_base)} serving + "
         f"{len(scale_base)} scale scenarios)")
    return 0


def _echo_wall_delta(baseline: dict, fresh: list[dict],
                     echo: Callable[[str], None]) -> None:
    """Print the wall-time trajectory vs. the baseline (non-gating).

    Degrades explicitly instead of confusingly: a baseline without
    usable wall times (or an empty fresh run) gets a clear note, and
    pre-``harness_wall_s`` baselines are called out rather than
    silently compared as if the harness figures existed.
    """
    base_wall = sum(r.get("wall_time_s", 0.0)
                    for r in baseline.get("smoke", []))
    fresh_wall = sum(r.get("wall_time_s", 0.0) for r in fresh)
    if base_wall <= 0 or fresh_wall <= 0:
        echo("wall time (informational): baseline carries no "
             "per-scenario wall times; skipping the delta")
        return
    ratio = base_wall / fresh_wall
    direction = "speedup" if ratio >= 1.0 else "slowdown"
    echo(f"wall time (informational): baseline {base_wall:.3f}s -> "
         f"fresh {fresh_wall:.3f}s  ({ratio:.2f}x {direction})")
    if "harness_wall_s" not in baseline.get("totals", {}):
        echo("note: baseline predates totals.harness_wall_s "
             "(pre-parallel-harness report); the delta above sums "
             "per-scenario wall times only")


def _echo_wall_trend(baseline_path: str,
                     echo: Callable[[str], None]) -> None:
    """Wall-clock trajectory across every sibling ``BENCH_*.json``.

    Non-gating: wall clocks differ across machines, so this is a
    chronology (by each report's ``created`` stamp) of the
    checked-in baselines next to the one being compared against —
    enough to eyeball whether the harness has been getting faster or
    slower across PRs without opening each file.
    """
    import glob
    directory = os.path.dirname(os.path.abspath(baseline_path))
    entries = []
    for path in sorted(glob.glob(os.path.join(directory,
                                              "BENCH_*.json"))):
        try:
            with open(path) as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            continue  # unreadable sibling: not this trend's problem
        totals = report.get("totals", {})
        entries.append((report.get("created", ""),
                        report.get("tag", os.path.basename(path)),
                        totals.get("harness_wall_s"),
                        totals.get("wall_time_s"),
                        totals.get("jobs", 1)))
    if len(entries) < 2:
        return
    entries.sort()  # ISO-8601 'created' stamps sort chronologically
    echo(f"wall trend across {len(entries)} checked-in baselines "
         "(informational, machines differ):")
    for created, tag, harness, wall, jobs in entries:
        harness_s = (f"{harness:8.3f}s" if isinstance(harness,
                                                      (int, float))
                     else "       -")
        wall_s = (f"{wall:8.3f}s" if isinstance(wall, (int, float))
                  else "       -")
        echo(f"  {tag:10} {created or '<unstamped>':25} "
             f"harness {harness_s}  wall {wall_s}  jobs {jobs}")


# ---------------------------------------------------------------------------
# Profiling (--profile)
# ---------------------------------------------------------------------------

def profile_call(fn: Callable[[], object], top: int = 25
                 ) -> tuple[object, dict]:
    """Run ``fn`` under cProfile; return (result, profile section).

    The section lists the ``top`` functions by cumulative time plus
    the grand totals — enough to spot the hot path from the JSON
    artifact without shipping the raw .prof file.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler)
    entries = []
    for (filename, line, func), (cc, nc, tt, ct, _callers) in sorted(
            stats.stats.items(), key=lambda item: -item[1][3])[:top]:
        entries.append({
            "function": f"{os.path.basename(filename)}:{line}({func})",
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        })
    return result, {
        "top_by_cumtime": entries,
        "total_calls": stats.total_calls,
        "total_tt_s": round(stats.total_tt, 6),
    }


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


def run_cli(args) -> int:
    echo = (lambda _line: None) if args.quiet else print
    jobs = max(1, getattr(args, "jobs", 1) or 1)
    # Exempt interpreter/startup objects from cyclic GC for the life
    # of this (short-lived) process: otherwise a threshold-triggered
    # full collection lands inside an arbitrary scenario and smears
    # ~10ms of pause onto its wall clock.  CLI only — library callers
    # (tests import run_smoke directly) keep normal GC behaviour.
    import gc
    _warm_runtime()
    gc.collect()
    gc.freeze()
    if getattr(args, "compare", None):
        return run_compare(args.compare,
                           tolerance=getattr(args, "tolerance",
                                             DEFAULT_TOLERANCE),
                           echo=echo,
                           jobs=jobs)
    if args.list:
        print("smoke scenarios:")
        for name in sorted(SMOKE_SCENARIOS):
            print(f"  {name}")
        from .serve import SERVE_SCENARIOS
        print("serving scenarios (--serve):")
        for name in sorted(SERVE_SCENARIOS):
            print(f"  {name}")
        print("scale scenarios (--scale):")
        for name, (_query, rows) in sorted(_scale_queries().items()):
            print(f"  {name}  ({rows:,} rows, "
                  f"chunk {SCALE_CHUNK:,})")
        print("experiments:")
        for exp_id, path in sorted(experiment_index(args.bench_dir
                                                    ).items()):
            print(f"  {exp_id:6} {os.path.basename(path)}")
        return 0

    exp_ids: list[str] = []
    if args.exp:
        if args.exp.strip().lower() == "all":
            exp_ids = sorted(experiment_index(args.bench_dir))
        else:
            exp_ids = [e.strip().lower()
                       for e in args.exp.split(",") if e.strip()]
    run_smoke_set = args.smoke or not exp_ids

    profiling = getattr(args, "profile", False)
    if profiling and jobs > 1:
        echo("--profile runs in-process; ignoring --jobs")
        jobs = 1

    serve_set = getattr(args, "serve", False)

    def run_all() -> tuple[list[dict], list[dict], list[dict]]:
        smoke: list[dict] = []
        if run_smoke_set:
            echo(f"running smoke scenarios (rows={args.rows}"
                 + (f", jobs={jobs}" if jobs > 1 else "") + "):")
            smoke = run_smoke(rows=args.rows, echo=echo, jobs=jobs)
        serving: list[dict] = []
        if serve_set:
            echo(f"running serving scenarios "
                 f"(queries={args.serve_queries}):")
            serving = run_serving(queries=args.serve_queries,
                                  echo=echo, jobs=jobs)
        experiments: list[dict] = []
        if exp_ids:
            echo(f"running experiments: {', '.join(exp_ids)}")
            experiments = run_experiments(exp_ids, args.bench_dir,
                                          echo=echo, jobs=jobs)
        return smoke, serving, experiments

    harness_started = time.perf_counter()
    profile: Optional[dict] = None
    if profiling:
        (smoke, serving, experiments), profile = profile_call(
            run_all, top=getattr(args, "profile_top", 25))
        for entry in profile["top_by_cumtime"][:5]:
            echo(f"  profile {entry['cumtime_s']:8.3f}s cum  "
                 f"{entry['function']}")
    else:
        smoke, serving, experiments = run_all()
    harness_wall = time.perf_counter() - harness_started

    # The scale tier runs outside the harness window on purpose:
    # totals.harness_wall_s is the cross-commit smoke/serve figure,
    # and folding 1M-row runs into it would break comparability with
    # every baseline recorded before the tier existed.  It gets its
    # own totals.scale_wall_s instead.
    scale: list[dict] = []
    extra_totals = {"harness_wall_s": harness_wall, "jobs": jobs}
    if getattr(args, "scale", False):
        echo(f"running scale scenarios (chunk={SCALE_CHUNK}"
             + (f", jobs={jobs}" if jobs > 1 else "") + "):")
        scale_started = time.perf_counter()
        scale = run_scale(echo=echo, jobs=jobs)
        extra_totals["scale_wall_s"] = (time.perf_counter()
                                        - scale_started)

    from datetime import datetime, timezone
    report = make_report(
        args.tag, smoke, experiments,
        created=datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        extra_totals=extra_totals,
        profile=profile,
        serving=serving,
        scale=scale)
    path = write_report(report, args.out)
    echo(f"report: {path}  "
         f"({report['totals']['benchmarks']} benchmarks, "
         f"wall {report['totals']['wall_time_s']:.2f}s, "
         f"harness {harness_wall:.2f}s)")
    return 0


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--smoke", action="store_true",
                        help="run the instrumented smoke scenarios "
                             "(default when no --exp is given)")
    parser.add_argument("--exp", default="",
                        help="comma-separated experiment ids "
                             "(f1..f6,c1..c8,e1..e6) or 'all'")
    parser.add_argument("--serve", action="store_true",
                        help="also run the multi-tenant serving "
                             "scenarios (v3 'serving' section)")
    parser.add_argument("--serve-queries", type=int,
                        default=SERVE_BENCH_QUERIES,
                        dest="serve_queries", metavar="N",
                        help="requested queries per serving scenario")
    parser.add_argument("--scale", action="store_true",
                        help="also run the 100k-1M row scale tier "
                             "(f2/f4/f6-shaped queries, large "
                             "chunks); timed separately as "
                             "totals.scale_wall_s")
    parser.add_argument("--tag", default="local",
                        help="report tag (file is BENCH_<tag>.json)")
    parser.add_argument("--out", default=".",
                        help="directory the report is written to")
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS,
                        help="base table rows for smoke scenarios")
    parser.add_argument("--bench-dir", default=None,
                        help="override the benchmarks/ directory")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="re-run a baseline report's scenarios and "
                             "diff (non-zero exit on regression)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="relative tolerance for time/byte diffs "
                             "in --compare (checksums stay exact)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run scenarios/experiments across N "
                             "worker processes (results are identical "
                             "at any job count)")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and embed the top "
                             "functions by cumulative time in the "
                             "report (forces in-process execution)")
    parser.add_argument("--profile-top", type=int, default=25,
                        metavar="N", dest="profile_top",
                        help="number of functions kept by --profile")
    parser.add_argument("--list", action="store_true",
                        help="list scenarios and experiments, then exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="machine-readable benchmark harness")
    add_bench_arguments(parser)
    return run_cli(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
