"""One workload in one fresh interpreter: set-up, checks, measurement.

``run.py`` starts this file as a child process, so every run imports the
package and builds its catalogs from nothing.  Single process, single
thread, closed loop with one client: the next window starts when the
previous one has returned.

Set-up is ``import repro`` + catalog build + one warm-up window (which
fills the kernel and catalog caches); its wall is ``setup_s``.  Every
timed region is paired with a fixed reference loop (see :class:`Clock`).
The independent checks (engine agreement, numpy oracle) run after set-up
and outside every timed region.  The last line printed is one JSON
object.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MIN_WINDOWS = 3
SPIN_LOOPS = 100_000
#: What the reference loop takes on a quiet reference host; calibrated
#: milliseconds are milliseconds on a host where it takes this long.
SPIN_REFERENCE_MS = 5.0
#: Share of a traced run's seconds spent on untraced/traced window
#: pairs; the rest goes to the profile pass.
PAIR_SHARE = 0.6


def spin() -> float:
    """Milliseconds a fixed pure-Python loop takes: the host's speed."""
    started = time.perf_counter()
    total = 0
    for i in range(SPIN_LOOPS):
        total += i * i
    return (time.perf_counter() - started) * 1e3


class Clock:
    """Times a region against the reference loop run before and after it.

    The builder's host (2 shared cores) runs everything, CPU time
    included, 1.3 to 1.7 times slower for minutes at a time, and the
    driver that gates on the numbers ``run.py`` prints would take the
    neighbour for a regression.  Dividing each window's wall by what the
    loop cost around it cut the spread of ten runs' medians 2.5 times
    on the same samples (README.md, "Run-to-run spread").  The result is
    multiplied by ``SPIN_REFERENCE_MS``: *calibrated* milliseconds are
    milliseconds on a host where the loop takes that long.  The raw wall
    is reported beside it.
    """

    def __init__(self):
        self.spins_ms = [spin()]

    def window(self, body):
        """Run ``body``; returns (raw ms, calibrated ms, its result)."""
        # Garbage from one window is collected before the next is
        # timed; the automatic collector stays on inside the window.
        gc.collect()
        started = time.perf_counter()
        result = body()
        raw = (time.perf_counter() - started) * 1e3
        self.spins_ms.append(spin())
        before, after = self.spins_ms[-2:]
        return raw, raw * 2 * SPIN_REFERENCE_MS / (before + after), result


def tail(walls_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``; with fewer than twenty samples no
    percentile above the median qualifies, so the median is returned.
    """
    ordered = sorted(walls_ms)
    if len(ordered) < 20:
        return statistics.median(ordered), 50.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


class Checker:
    """Counts attempted and failed ops against the expected digests."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, ops: list) -> tuple[int, int]:
        """Tally a window; returns its (queries, rows) of good ops.

        Simulated outputs repeat exactly, so the first digest seen for
        a key (or the pinned reference) is what every later one must be.
        """
        queries = rows = 0
        for op in ops:
            self.attempted += 1
            if op.digest is None:
                self.fail(f"{op.key} raised:\n{op.error}")
            elif self.expected.setdefault(op.key, op.digest) != op.digest:
                self.fail(f"{op.key}: digest {op.digest} != expected "
                          f"{self.expected[op.key]}")
            else:
                queries += op.queries
                rows += op.rows
        return queries, rows

    def verdict(self, problems: list[str]) -> None:
        """The independent checks count as one op."""
        self.attempted += 1
        if problems:
            self.fail("; ".join(problems))


def run_timed(workload, checker: Checker, clock: Clock,
              seconds: float) -> dict:
    raws, walls, query_rates, row_rates = [], [], [], []
    begin = time.perf_counter()
    while (time.perf_counter() - begin < seconds
           or len(walls) < MIN_WINDOWS):
        raw, wall, ops = clock.window(
            lambda: workload.window(len(walls)))
        queries, rows = checker.check(ops)
        raws.append(raw)
        walls.append(wall)
        query_rates.append(queries / wall * 1e3)
        row_rates.append(rows / wall * 1e3)
    # Medians over windows, not totals over the run: a neighbour that
    # is busy for a second moves a mean by far more than a median.
    return {
        "samples": len(walls),
        "window_ms_p50": statistics.median(walls),
        "queries_per_s": statistics.median(query_rates),
        "rows_per_s": statistics.median(row_rates),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "harness.window_raw_ms_p50": statistics.median(raws),
        "harness.calib_spin_ms": statistics.median(clock.spins_ms),
    }


def run_traced(workload, checker: Checker, clock: Clock, seconds: float,
               seed: int, out_dir: str) -> dict:
    import spans as tracing
    import workloads
    from repro.engine import codegen

    tracer = tracing.Tracer()
    tracer.plan()
    twin = None
    if workload.twin:
        # Same keys, other digests: the twin is checked on its own.
        twin_checker = Checker({})
        twin = workloads.make_workload(workload.twin, seed)
        twin.build()
        twin_checker.check(twin.window(0))
    raws, plain, traced, twin_walls = [], [], [], []
    counts, span_sums = [], []      # one entry per traced window
    begin = time.perf_counter()
    while (time.perf_counter() - begin < seconds * PAIR_SHARE
           or len(plain) < MIN_WINDOWS):
        k = len(plain)
        raw, wall, ops = clock.window(lambda: workload.window(k))
        checker.check(ops)
        raws.append(raw)
        plain.append(wall)

        hits_before = codegen.counters()["memory_hits"]

        def traced_window():
            root = tracer.begin_window(k)
            try:
                return workload.window(k)
            finally:
                tracer.close(root)
        tracer.install()
        try:
            raw, wall, ops = clock.window(traced_window)
        finally:
            tracer.uninstall()
        checker.check(ops)
        traced.append(wall)
        record = workload.record

        def spans_ms(*names: str) -> float:     # calibrated
            return tracer.span_ms(*names) * wall / raw
        window = tracer.fabric_counts()
        window.update({
            "key": "+".join(op.key for op in ops),
            "relational.rows_scanned": sum(op.rows for op in ops),
            "engine.codegen_cache_hits":
                codegen.counters()["memory_hits"] - hits_before,
            "optimizer.optimize_calls":
                tracer.span_count("Optimizer.rank"),
            "analysis.attribute_calls":
                tracer.calls["critical_path.attribute"],
            "serve.completed": record.get("completed", 0),
            "serve.shed": record.get("shed", 0),
        })
        counts.append(window)
        span_sums.append({
            "hardware.build_fabric_ms": spans_ms("build_fabric"),
            "engine.compile_ms": spans_ms("DataflowEngine.compile"),
            "engine.execute_ms": spans_ms("DataflowEngine.execute",
                                          "VolcanoEngine.execute"),
            "engine.checksum_ms": spans_ms("table_checksum"),
            "optimizer.optimize_ms": spans_ms("Optimizer.rank"),
            "analysis.finalize_ms": spans_ms("ServeTelemetry.finalize",
                                             "Observatory.finalize"),
        })
        if twin is not None:
            _raw, wall, ops = clock.window(lambda: twin.window(k))
            twin_checker.check(ops)
            twin_walls.append(wall)

    # Simulated counts repeat exactly: windows over the same inputs
    # must count the same, and the first window's counts are reported.
    exact = {}
    for window in counts:
        checker.attempted += 1
        if exact.setdefault(window["key"], window) != window:
            checker.fail(f"exact counts of {window['key']} moved: "
                         f"{window} != {exact[window['key']]}")
    if twin is not None:
        checker.attempted += twin_checker.attempted
        checker.failed += twin_checker.failed
        checker.errors += twin_checker.errors

    profile = cProfile.Profile()
    profiled = []
    begin = time.perf_counter()
    while (time.perf_counter() - begin < seconds * (1 - PAIR_SHARE)
           or len(profiled) < MIN_WINDOWS):
        def profiled_window():
            profile.enable()
            try:
                return workload.window(len(profiled))
            finally:
                profile.disable()
        _raw, wall, ops = clock.window(profiled_window)
        checker.check(ops)
        profiled.append(wall)

    os.makedirs(out_dir, exist_ok=True)
    selfs = tracing.self_times(tracer.spans)
    with open(os.path.join(out_dir, f"{workload.name}.spans.json"),
              "w") as handle:
        json.dump({"workload": workload.name, "seed": seed,
                   "windows": counts,
                   "spans": [dict(span, self=selfs[span["id"]])
                             for span in tracer.spans]}, handle)

    first = counts[0]
    plain_p50 = statistics.median(plain)
    cache = workload.record.get("plan_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    observed, bare = (plain, twin_walls) if workload.name != "serve_bare" \
        else (twin_walls, plain)
    tail_ms, tail_pct = tail(plain)
    metrics = {name: first[name] for name in first if name != "key"}
    for name in span_sums[0]:
        metrics[name] = statistics.median(sums[name] for sums in span_sums)
    metrics.update({
        "sim.ns_per_event": statistics.median(
            wall / max(1, window["sim.events"]) * 1e6
            for wall, window in zip(plain, counts)),
        "engine.codegen_compiled": codegen.counters()["compiles"],
        "serve.plancache_hit_ratio":
            cache.get("hits", 0) / lookups if lookups else 0.0,
        "serve.host_us_per_query": statistics.median(
            wall / window["serve.completed"] * 1e3
            if window["serve.completed"] else 0.0
            for wall, window in zip(plain, counts)),
        "analysis.observatory_partial": int(bool(
            workload.record.get("observatory", {}).get("partial"))),
        "analysis.observer_cost_ratio":
            statistics.median(observed) / statistics.median(bare)
            if twin_walls else 0.0,
        "harness.calib_spin_ms": statistics.median(clock.spins_ms),
        "harness.window_raw_ms_p50": statistics.median(raws),
        "harness.window_ms_tail": tail_ms,
        "harness.window_ms_tail_pct": tail_pct,
        "harness.trace_overhead_ratio":
            statistics.median(traced) / plain_p50,
        "harness.profile_overhead_ratio":
            statistics.median(profiled) / plain_p50,
        "samples": len(plain),
    })
    for layer, share in tracing.layer_shares(profile, HERE).items():
        metrics[f"{layer}.self_share"] = share
    return metrics


def set_up(name: str, seed: int):
    """``import repro`` + catalog build + one warm-up window."""
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy
    import repro  # noqa: F401 - importing it is part of set-up
    imported = time.perf_counter()
    import workloads
    workload = workloads.make_workload(name, seed)
    workload.build()
    built = time.perf_counter()
    warm = workload.window(0)
    metrics = {"harness.import_s": imported - started,
               "relational.catalog_build_s": built - imported}
    host = {"python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count()}
    return workload, warm, host, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=["setup", "timed", "traced", "reference"])
    parser.add_argument("--reference", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    clock = Clock()
    _raw, setup_ms, (workload, warm, host, metrics) = clock.window(
        lambda: set_up(args.workload, args.seed))
    metrics["setup_s"] = setup_ms / 1e3

    expected = {}
    # Only seed 0 is pinned; other seeds check engine agreement, the
    # oracle and that every digest repeats within the run.
    if args.seed == 0 and args.mode != "reference":
        with open(args.reference) as handle:
            expected = json.load(handle).get(args.workload, {})
    checker = Checker(expected)
    result = {"workload": args.workload, "seed": args.seed,
              "mode": args.mode, "host": host}
    if args.mode != "setup":
        checker.check(warm)
        checker.verdict(workload.verify())
    if args.mode == "timed":
        metrics.update(run_timed(workload, checker, clock, args.seconds))
    elif args.mode == "traced":
        metrics.update(run_traced(workload, checker, clock, args.seconds,
                                  args.seed, args.out))
    elif args.mode == "reference":
        result["digests"] = checker.expected
    result.update(attempted=checker.attempted, failed=checker.failed,
                  errors=checker.errors, metrics=metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
