"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run one selective analytic query on the Volcano baseline and the
    optimizer-placed data-flow pipeline; print the movement report.
``sites``
    Show the processing sites of a fabric and the operation kinds each
    device supports (the paper's offloading design space).
``query``
    Run a configurable filter/aggregate query with a chosen placement
    policy and print per-segment movement.  ``--explain-stalls``
    appends the backpressure attribution report (per-stage stall time
    split into credit-starved / downstream-full / device-busy);
    ``--ledger`` appends the movement ledger (bytes × link ×
    operator × direction).
``trace``
    Run the demo query and export a Chrome/Perfetto ``trace_events``
    JSON timeline (open in https://ui.perfetto.dev or
    ``chrome://tracing``).
``whatif``
    Causal what-if profiler: re-run a figure scenario with one
    hardware resource scaled at a time (deterministic kernel,
    bit-identical baseline) and print the per-resource virtual
    speedup table, flagging off-path resources.  ``--vary
    nic.bw=2x,cxl.lat=0.5x`` runs explicit perturbations instead.
``report``
    Render the self-contained HTML bottleneck-attribution report
    (critical path, sensitivity, stalls, movement ledger) plus the
    ``repro.whatif/v1`` JSON artifact alongside.
``optimize``
    Show the optimizer's top-k placements for a figure scenario;
    ``--validate-whatif`` simulates each one and prints every
    cost-vs-simulation ranking disagreement.
``experiments``
    List every reproduced experiment and its benchmark file.
``bench``
    Run the exact-output harness: instrumented smoke scenarios
    (``--smoke``), the scale tier (``--scale``), serving scenarios
    (``--serve``), and/or experiment scripts (``--exp``), emitting a
    schema-versioned ``BENCH_<tag>.json`` report of repeatable model
    outputs.  ``--compare BENCH_x.json`` re-runs a baseline's records
    and exits non-zero on any leaf that moved.
``serve``
    Serve a named multi-tenant scenario (open/closed tenant
    populations, admission control, weighted fair queueing, plan
    cache) on one warm fabric; print latency percentiles, goodput,
    shed and SLO-violation counts; optionally write the full
    ``repro.bench/v3`` serving record (with per-query records).
``top``
    The saturation observatory's live view: serve a scenario (or load
    a recorded ``repro.observatory/v1`` JSON with ``--from``) and
    render per-pool saturation, the hottest tenants by bound resource
    class, and the placement-regret leaderboard — ``--follow`` adds
    the per-window playback.
``loadgen``
    Materialize the deterministic open-tenant arrival schedule of a
    serving scenario as JSON (time, tenant, template per arrival).

The CLI owns no query shape, placement policy or scenario: shapes are
``repro.analysis.scenarios.QUERIES``, policies
``repro.engine.placement.place``, and scenarios the ``SCENARIOS`` /
``SERVE_SCENARIOS`` registries.  Report-producing commands route their
outputs under ``benchmarks/results/`` (gitignored) when the output
flag is omitted or given bare, so artifacts never land in the repo
root by accident.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from typing import Optional

# What every command may use.  Serving, the harness, the experiments,
# the analyses, SQL and the Chrome trace are imported by the commands
# that run them, so ``repro sites`` loads none of them.
from .engine import (
    POLICIES,
    DataflowEngine,
    Query,
    VolcanoEngine,
    data_path_sites,
    place,
)
from .hardware import OpKind, build_fabric, conventional_spec, \
    dataflow_spec
from .obs import _observatory_section_violations
from .optimizer import Optimizer
from .relational import col, standard_catalog


def positive_int(text: str) -> int:
    """argparse ``type=`` for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(text)      # argparse: "invalid positive_int value"
    return value


def non_negative_int(text: str) -> int:
    """argparse ``type=`` for a count where 0 means none."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def finite_float(low: float, high: float = math.inf):
    """argparse ``type=`` for a finite float in ``[low, high]``.

    NaN and infinities are refused: a NaN tolerance would pass any
    drift (``d > nan`` is never true).
    """
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and low <= value <= high):
            bounds = (f"in [{low:g}, {high:g}]" if math.isfinite(high)
                      else f">= {low:g}")
            raise argparse.ArgumentTypeError(
                f"expected a finite number {bounds}, got {text!r}")
        return value
    return parse


def _routed_output(path, default_name: str) -> str:
    """Resolve a report-output path, routing defaults out of the root.

    An omitted or bare flag (``path`` empty/None) lands under
    ``benchmarks/results/`` (gitignored); an explicit path is taken
    as-is.  Either way the parent directory is created.
    """
    out = path or os.path.join("benchmarks", "results", default_name)
    out_dir = os.path.dirname(out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    return out


def _write_json(path, default_name: str, payload, indent: int = 2,
                sort_keys: bool = True) -> str:
    """Write a JSON artifact where :func:`_routed_output` routes it."""
    out = _routed_output(path, default_name)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
        handle.write("\n")
    return out


def _input_error(reason) -> int:
    """Bad user input: one ``error:`` line, exit status 2 (as argparse)."""
    print(f"error: {reason}", file=sys.stderr)
    return 2


def _violations(title: str, violations: list) -> int:
    """Print the first ten ``violations`` on stderr; 1 if any, else 0."""
    if violations:
        print(f"\n{title}:", file=sys.stderr)
        for violation in violations[:10]:
            print(f"  - {violation}", file=sys.stderr)
    return 1 if violations else 0


SPECS = {"dataflow": dataflow_spec, "conventional": conventional_spec}


def cmd_demo(args) -> int:
    """Baseline vs data-flow demo: one query, both engines."""
    from .analysis import QUERIES
    catalog = standard_catalog(args.rows, chunk_rows=8192)
    query = QUERIES["demo"]()

    fabric = build_fabric(dataflow_spec())
    baseline = VolcanoEngine(fabric, catalog).execute(query)

    fabric2 = build_fabric(dataflow_spec())
    placement = place("optimize", query, fabric2, catalog)
    offloaded = DataflowEngine(fabric2, catalog).execute(
        query, placement=placement)

    assert baseline.table.sorted_rows() == offloaded.table.sorted_rows()
    print(f"rows: {args.rows:,}   result groups: {baseline.rows}")
    print(f"{'':18} {'volcano':>14} {'dataflow*':>14}")
    for segment in sorted(set(baseline.movement)
                          | set(offloaded.movement)):
        label = segment.replace(".bytes", "")
        print(f"{label:18} {baseline.movement.get(segment, 0):>14,.0f} "
              f"{offloaded.movement.get(segment, 0):>14,.0f}")
    print(f"{'elapsed (sim s)':18} {baseline.elapsed:>14.6f} "
          f"{offloaded.elapsed:>14.6f}")
    print(f"\n* optimizer-chosen sites: {placement.used_sites()}")
    return 0


def cmd_sites(args) -> int:
    """List a fabric's sites and the operations each supports."""
    fabric = build_fabric(SPECS[args.spec]())
    print(f"fabric: {args.spec}  "
          f"(data path: {' -> '.join(data_path_sites(fabric))})\n")
    kinds = [OpKind.FILTER, OpKind.REGEX, OpKind.PROJECT,
             OpKind.PARTITION, OpKind.AGGREGATE, OpKind.SORT,
             OpKind.JOIN_PROBE, OpKind.COMPRESS, OpKind.COUNT]
    header = f"{'site':18}" + "".join(f"{k:>10}" for k in kinds)
    print(header)
    print("-" * len(header))
    for site, device in sorted(fabric.sites.items()):
        marks = "".join(
            f"{'yes' if device.supports(k) else '-':>10}"
            for k in kinds)
        print(f"{site:18}{marks}")
    return 0


def cmd_query(args) -> int:
    """Run a configurable filter/project query under a placement."""
    catalog = standard_catalog(args.rows, chunk_rows=8192)
    cutoff = max(1, int(50 * args.selectivity))
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") <= cutoff)
             .project(["l_orderkey", "l_extendedprice"]))

    fabric = build_fabric(SPECS[args.spec]())
    engine = DataflowEngine(fabric, catalog,
                            use_zonemaps=args.zonemaps)
    placement = place(args.placement, query, fabric, catalog)
    if args.plan:
        _print_plan(engine.compile(query, placement=placement), placement)
        return 0
    result = engine.execute(query, placement=placement)
    print(f"placement: {placement.name}   rows out: {result.rows:,}")
    for segment, value in sorted(result.movement.items()):
        print(f"  {segment.replace('.bytes', ''):10} "
              f"{value:>16,.0f} bytes")
    print(f"  {'elapsed':10} {result.elapsed:>16.6f} sim-seconds")
    if args.explain_stalls:
        _print_stalls(fabric.trace)
    if args.ledger:
        _print_ledger(fabric.trace)
    return 0


def _print_plan(graph, placement) -> None:
    """Render the compiled stage graph.

    Each stage lists its operators, one per line, then the channels it
    emits on (chunks cross them lazily: a column is gathered where it
    is first read).
    """
    print(f"placement: {placement.name}   "
          f"stages: {len(graph.stages)}")
    for stage in graph.stages.values():
        device = stage.device.name if stage.device else "-"
        kind = "source" if stage.source_table is not None else (
            "sink" if stage.is_sink else "stream")
        print(f"\nstage {stage.name}  [{kind} @ {device}, "
              f"router={stage.router}]")
        if stage.source_table is not None:
            print(f"  scan {stage.source_table.name} "
                  f"({stage.source_table.num_rows:,} rows)")
        for op in stage.ops:
            print(f"  {op.name}")
        if stage.outputs:
            print(f"  -> {len(stage.outputs)} output channel"
                  f"{'s' if len(stage.outputs) != 1 else ''}")


def _print_stalls(trace) -> None:
    """Render the backpressure attribution report."""
    report = trace.stall_report()
    print("\nbackpressure attribution (stall seconds per stage):")
    if not report:
        print("  no stalls recorded — the pipeline never blocked")
        return
    header = (f"  {'stage':28} {'credit-starved':>15} "
              f"{'downstream-full':>16} {'device-busy':>12} "
              f"{'total':>10}")
    print(header)
    for stage, stats in report.items():
        print(f"  {stage:28} {stats['credit_starved_s']:>15.6f} "
              f"{stats['downstream_full_s']:>16.6f} "
              f"{stats['device_busy_s']:>12.6f} "
              f"{stats['total_s']:>10.6f}")


LEDGER_ROWS = 40
"""Movement-ledger rows ``--ledger`` prints."""


def _print_ledger(trace) -> None:
    """Render the movement ledger (bytes × link × actor × direction),
    the first :data:`LEDGER_ROWS` rows."""
    rows = trace.movement_ledger()
    print("\nmovement ledger:")
    if not rows:
        print("  no link crossings recorded")
        return
    print(f"  {'link':20} {'operator':28} {'direction':30} "
          f"{'bytes':>14} {'chunks':>7}")
    for row in rows[:LEDGER_ROWS]:
        print(f"  {row['link']:20} {row['actor']:28} "
              f"{row['direction']:30} {row['bytes']:>14,.0f} "
              f"{row['chunks']:>7,.0f}")
    if len(rows) > LEDGER_ROWS:
        print(f"  ... ({len(rows)} rows total)")


def cmd_trace(args) -> int:
    """Export a Chrome/Perfetto trace (the demo query, or --serve)."""
    from .sim import export_chrome_trace
    if args.serve:
        from .serve import serve_scenario_server
        out = _routed_output(args.out,
                             f"trace_serve_{args.scenario}.json")
        server = serve_scenario_server(args.scenario,
                                       queries=args.queries)
        trace = server.fabric.trace
        trace.close_open_spans()
        payload = export_chrome_trace(trace, out)
        stats = trace.event_stats()
        lanes = len({ctx.get("tenant", "")
                     for ctx in trace.contexts.values()})
        print(f"wrote {out}: {len(payload['traceEvents'])} "
              f"trace events from scenario {args.scenario} "
              f"({stats['recorded']} ring events, "
              f"{len(trace.contexts)} query contexts, "
              f"{lanes} tenant lanes, "
              f"truncated={stats['truncated']})")
        print("open in https://ui.perfetto.dev or chrome://tracing")
        return 0
    from .analysis import QUERIES
    catalog = standard_catalog(args.rows, chunk_rows=8192)
    query = QUERIES["demo"]()
    fabric = build_fabric(dataflow_spec())
    if args.engine in ("volcano", "both"):
        VolcanoEngine(fabric, catalog).execute(query)
    if args.engine in ("dataflow", "both"):
        DataflowEngine(fabric, catalog).execute(
            query, placement=place("optimize", query, fabric, catalog))
    fabric.trace.close_open_spans()
    out = _routed_output(args.out, f"trace_{args.engine}.json")
    payload = export_chrome_trace(fabric.trace, out)
    stats = fabric.trace.event_stats()
    print(f"wrote {out}: {len(payload['traceEvents'])} trace "
          f"events ({stats['recorded']} ring events, "
          f"truncated={stats['truncated']})")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_sql(args) -> int:
    """Run a SQL statement over synthetic lineitem/orders tables."""
    from .relational import SqlError, parse_sql
    catalog = standard_catalog(args.rows, chunk_rows=8192)
    try:
        query = parse_sql(args.statement)
        # Bind every name now: an unknown one is a KeyError, a repeated
        # or shadowing output name a ValueError.
        query.plan.output_schema(catalog)
    except (SqlError, KeyError, ValueError) as exc:
        return _input_error(exc.args[0])   # str() of a KeyError is a repr
    fabric = build_fabric(dataflow_spec())
    placement = place(args.placement, query, fabric, catalog)
    result = DataflowEngine(fabric, catalog).execute(
        query, placement=placement)
    print(f"placement: {placement.name}   "
          f"elapsed: {result.elapsed:.6f} sim-s   "
          f"network: {result.bytes_on('network'):,.0f} B")
    names = result.table.schema.names
    print("  ".join(names))
    for row in result.table.sorted_rows()[:args.max_rows]:
        print("  ".join(str(v) for v in row))
    if result.rows > args.max_rows:
        print(f"... ({result.rows} rows total)")
    return 0


def _print_whatif(payload: dict) -> None:
    baseline = payload["baseline"]
    attribution = baseline["attribution"]
    print(f"what-if: {payload['query']} ({payload['title']})  "
          f"engine={payload['engine']}  rows={payload['rows']:,}")
    print(f"  baseline: {baseline['sim_time_s']:.6f} sim-s   "
          f"checksum {baseline['checksum'][:12]}...   "
          f"bit-identical={baseline['verified_identical']}   "
          f"attribution-exact={attribution['exact']}")
    print("\ncritical-path attribution:")
    for bucket, seconds in attribution["buckets"].items():
        share = attribution["shares"].get(bucket, 0.0)
        print(f"  {bucket:28} {seconds:>14.9f} s  {share:>7.2%}")
    if payload["sensitivity"]:
        factors = [f"{f:g}" for f in payload["factors"]]
        header = (f"  {'resource':20}"
                  + "".join(f"{'x' + f:>9}" for f in factors)
                  + f" {'verdict':>10}")
        print("\nper-resource sensitivity (end-to-end speedup):")
        print(header)
        for row in payload["sensitivity"]:
            cells = "".join(
                f"{row['speedups'][f]:>8.3f}x" for f in factors)
            verdict = "on-path" if row["on_path"] else "off-path"
            print(f"  {row['resource']:20}{cells} {verdict:>10}")
        print(f"\noff-path (<{2:.0f}% gain even at x"
              f"{max(payload['factors']):g}): "
              + (", ".join(payload["off_path"]) or "none"))
    for row in payload["vary"]:
        print(f"  vary {row['resource']}={row['factor']:g}x: "
              f"{row['sim_time_s']:.6f} sim-s "
              f"(speedup {row['speedup']:.3f}x, "
              f"checksum match={row['checksum_match']})")


def cmd_whatif(args) -> int:
    """Causal what-if profiler (per-resource virtual speedups)."""
    from .analysis import (DEFAULT_FACTORS, parse_vary, run_whatif,
                           whatif_violations)
    resources = (args.resources.split(",") if args.resources
                 else None)
    try:
        # Malformed --factors / --vary, or a resource this fabric lacks.
        vary = parse_vary(args.vary) if args.vary else []
        factors = ([float(f) for f in args.factors.split(",")]
                   if args.factors else DEFAULT_FACTORS)
        for factor in factors:
            if not (math.isfinite(factor) and factor > 0):
                raise ValueError(f"--factors must be finite positive "
                                 f"numbers, got {factor:g}")
        payload = run_whatif(args.query, engine=args.engine,
                             rows=args.rows, factors=factors,
                             resources=[] if vary and resources is None
                             else resources,
                             vary=vary)
    except ValueError as exc:
        return _input_error(exc)
    _print_whatif(payload)
    if args.out is not None:
        # Absent -o writes nothing (the sweep is still printed and
        # gated).
        out = _write_json(args.out, f"WHATIF_{args.query}.json",
                          payload, indent=1)
        print(f"\nwrote {out}")
    return _violations("WHAT-IF VIOLATIONS", whatif_violations(payload))


def cmd_report(args) -> int:
    """Self-contained HTML attribution report (+ JSON artifact)."""
    from .analysis import SCENARIOS, figure_scenario, run_whatif, \
        write_report
    out = _routed_output(args.out, "attribution.html")
    names = (sorted(SCENARIOS) if args.queries == "all"
             else [q.strip() for q in args.queries.split(",")])
    try:
        scenarios = [figure_scenario(name) for name in names]
    except KeyError as exc:
        return _input_error(exc.args[0])
    payloads = []
    for scenario in scenarios:
        print(f"analyzing {scenario.name}...")
        payloads.append(run_whatif(scenario.name, engine=args.engine,
                                   rows=args.rows))
    html_path, json_path = write_report(out, payloads)
    print(f"wrote {html_path} and {json_path} "
          f"({len(payloads)} queries)")
    return 0


def cmd_optimize(args) -> int:
    """Rank placements; --validate-whatif cross-checks them."""
    from .analysis import figure_scenario, optimizer_crosscheck
    from .analysis.scenarios import SCENARIO_ROWS
    if not args.validate_whatif:
        scenario = figure_scenario(args.query)
        fabric = build_fabric(scenario.spec())
        rows = args.rows or SCENARIO_ROWS
        ranked = Optimizer(fabric, standard_catalog(rows)).rank(
            scenario.query())[:args.top_k]
        print(f"top-{len(ranked)} placements for {args.query} "
              f"({rows:,} rows), by predicted makespan:")
        for index, candidate in enumerate(ranked):
            print(f"  #{index}: {candidate.placement.name:10} "
                  f"predicted {candidate.cost.bottleneck_time:.6f} s  "
                  f"sites={candidate.placement.used_sites()}")
        return 0

    check = optimizer_crosscheck(args.query, rows=args.rows,
                                 k=args.top_k)
    print(f"optimizer cross-check: {check['query']} "
          f"({check['rows']:,} rows, top-{check['k']} placements)")
    print(f"  {'#':>2} {'placement':12} {'predicted':>12} "
          f"{'simulated':>12} {'dominant bucket':24}")
    for plan in check["plans"]:
        print(f"  {plan['rank']:>2} {plan['placement']:12} "
              f"{plan['predicted_s']:>12.6f} "
              f"{plan['simulated_s']:>12.6f} "
              f"{plan['dominant']:24}")
    if check["agreement"]:
        print("cost-model ranking agrees with simulation")
    else:
        print("DISAGREEMENTS (cost model ranked the slower plan "
              "first):")
        for item in check["disagreements"]:
            print(f"  - predicted {item['predicted_faster']} < "
                  f"{item['actually_faster']}, but simulated "
                  f"{item['simulated_s'][0]:.6f} s > "
                  f"{item['simulated_s'][1]:.6f} s "
                  f"(dominant: {item['dominant'][0]} vs "
                  f"{item['dominant'][1]})")
    return 0


def cmd_experiments(_args) -> int:
    """List the reproduced experiments."""
    from .experiments import EXPERIMENTS
    print(f"{'id':4} {'section':19} {'module':39} title")
    for exp_id, (section, title, module) in EXPERIMENTS.items():
        print(f"{exp_id.upper():4} {section:19} "
              f"repro.experiments.{module:21} {title}")
    print("\nrun all:  repro bench --exp all")
    return 0


def cmd_bench(args) -> int:
    """Run the benchmark harness -> BENCH_<tag>.json."""
    from .bench import run_cli
    return run_cli(args)


def cmd_serve(args) -> int:
    """Serve a multi-tenant scenario on one warm fabric."""
    from .serve import run_scenario, write_dashboard
    record = run_scenario(args.scenario, rows=args.rows,
                          queries=args.queries,
                          verify=not args.no_verify)
    latency = record["latency"]
    print(f"scenario {record['name']}  "
          f"({record['queries']} queries, {record['rows']} rows)")
    print(f"  completed {record['completed']}  "
          f"shed {record['shed']}  "
          f"slo violations {record['slo_violations']}")
    print(f"  latency p50 {latency['p50_s']:.6f}s  "
          f"p99 {latency['p99_s']:.6f}s  "
          f"p999 {latency['p999_s']:.6f}s  "
          f"max {latency['max_s']:.6f}s")
    print(f"  goodput {record['goodput_qps']:.1f} q/s  "
          f"makespan {record['makespan_s']:.6f}s  "
          f"plan cache {record['plan_cache']['hits']} hits / "
          f"{record['plan_cache']['misses']} misses")
    for name, tenant in record["tenants"].items():
        print(f"  tenant {name:8} weight {tenant['weight']:4.1f}  "
              f"done {tenant['completed']:5d}  "
              f"shed {tenant['shed']:4d}  "
              f"viol {tenant['slo_violations']:4d}  "
              f"p99 {tenant['p99_s']:.6f}s")
    telemetry = record.get("telemetry")
    if telemetry is not None:
        alerts = telemetry["alerts"]
        fired = sum(1 for a in alerts if a["kind"] == "fired")
        print(f"  telemetry: {telemetry['windows']} windows x "
              f"{telemetry['window_s'] * 1e3:g} ms  "
              f"alerts {fired} fired / {len(alerts) - fired} "
              f"resolved  exemplars {len(telemetry['exemplars'])}  "
              f"digest {record['telemetry_digest'][:12]}...")
    observatory = record.get("observatory")
    if observatory is not None:
        regret = observatory["regret"]
        switches = sum(c.get("switch_opportunities", 0)
                       for c in regret["by_tenant"].values())
        status = "partial" if observatory["partial"] else "complete"
        print(f"  observatory: {observatory['windows']} windows x "
              f"{observatory['window_s'] * 1e3:g} ms  "
              f"{len(observatory['pools'])} pools  "
              f"{switches} regret switch opportunities  "
              f"ring {status}  "
              f"digest {record['observatory_digest'][:12]}...")
    if not args.no_verify:
        checked = record["verification"]["queries_checked"]
        print(f"  verified: {checked} results bit-identical to "
              "standalone runs; accounting + telemetry + "
              "observatory exact")
    if args.report is not None:
        report = _routed_output(args.report,
                                f"serve_{record['name']}.html")
        html_path, json_path = write_dashboard(
            report, record,
            title=f"Serving dashboard — {record['name']}")
        print(f"  dashboard: {html_path} (+ {json_path})")
    if args.out is not None:
        out = _write_json(args.out, f"serve_{record['name']}.json",
                          record)
        print(f"  record: {out}")
    return 0


def cmd_top(args) -> int:
    """Saturation observatory: pools, bound tenants, regret leaders."""
    from .analysis import OBSERVATORY_SCHEMA, render_top
    if args.from_file:
        try:
            with open(args.from_file) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:    # unreadable, not JSON
            reason = exc.strerror if isinstance(exc, OSError) else exc
            return _input_error(f"{args.from_file}: {reason}")
        # Accept either a bare observatory payload or a wrapper
        # (serving record, `top --json` artifact) that embeds one.
        if not isinstance(doc, dict):
            payload = None
        elif doc.get("schema") == OBSERVATORY_SCHEMA and "series" in doc:
            payload = doc
        else:
            payload = doc.get("observatory")
        if payload is None:
            return _input_error(f"{args.from_file} carries no "
                                f"{OBSERVATORY_SCHEMA} section")
        # The file is outside input: render a well-formed section or
        # name what is wrong with it.  A wrapper that is a serving
        # record is what the section's query counts are checked against.
        try:
            violations = _observatory_section_violations(
                payload, {} if payload is doc else doc)
        except (AttributeError, TypeError) as exc:
            violations = [f"malformed observatory section ({exc})"]
        if violations:
            return _input_error(f"{args.from_file}: {violations[0]}")
        name = doc.get("name", args.from_file)
        print(render_top(payload, name=name, follow=args.follow))
        return 0

    from .serve import run_scenario
    record = run_scenario(args.scenario, rows=args.rows,
                          queries=args.queries, verify=False)
    payload = record.get("observatory")
    if payload is None:
        print("error: the server ran with the observatory disabled",
              file=sys.stderr)
        return 1
    print(render_top(payload, name=record["name"],
                     follow=args.follow))
    violations = record["observatory_violations"]
    if args.json is not None:
        out = _write_json(args.json, f"TOP_{record['name']}.json",
                          {"schema": OBSERVATORY_SCHEMA,
                           "name": record["name"],
                           "digest": record["observatory_digest"],
                           "observatory": payload,
                           "violations": violations})
        print(f"\nwrote {out}")
    return _violations("OBSERVATORY VIOLATIONS", violations)


def cmd_loadgen(args) -> int:
    """Materialize a scenario's open-tenant arrival schedule."""
    from .serve import schedule_for, serve_scenario
    scenario = serve_scenario(args.scenario)
    tenants, counts = scenario.build_tenants(args.queries
                                             or scenario.queries)
    arrivals = schedule_for(tenants, counts)
    closed = [t.name for t in tenants if not t.arrival.is_open]
    payload = {
        "scenario": args.scenario,
        "arrivals": [a.to_dict() for a in arrivals],
        "closed_tenants": closed,
    }
    if args.out is not None:
        out = _write_json(args.out, f"loadgen_{args.scenario}.json",
                          payload, sort_keys=False)
        print(f"{len(arrivals)} open-loop arrivals -> {out}")
    else:
        print(json.dumps(payload, indent=2))
    if closed:
        print(f"note: closed-loop tenants {closed} submit "
              "reactively and are not in the schedule")
    return 0


def _module(name: str):
    """``repro.<name>``, imported when a command that reads it parses."""
    return importlib.import_module(f"{__package__}.{name}")


class _Command(argparse.ArgumentParser):
    """A sub-command's parser: its arguments are added, in order, when
    it first parses, and a ``choices`` or ``default`` given as a
    function is called then — so the module a registry lives in loads
    only for a command that offers it."""

    pending: Optional[list] = None      # None: add at once (argparse's -h)

    def add_argument(self, *options, **keywords):
        if self.pending is None:
            return super().add_argument(*options, **keywords)
        self.pending.append((options, keywords))

    def parse_known_args(self, args=None, namespace=None):
        pending, self.pending = self.pending or [], None
        for options, keywords in pending:
            super().add_argument(*options, **{
                key: value() if key in ("choices", "default")
                and callable(value) else value
                for key, value in keywords.items()})
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    # Every flag more than one command takes, defined once; a command
    # names the ones it takes in its ``command(...)`` line.
    flags = {
        "rows": dict(type=positive_int, default=None,
                     help="base table rows (omitted: the command's or "
                          "the scenario's own)"),
        "scenario": dict(default="two_tenant_bursty",
                         choices=lambda: sorted(
                             _module("serve").SERVE_SCENARIOS),
                         help="serving scenario (see `repro bench "
                              "--list`)"),
        "queries": dict(type=positive_int, default=None,
                        help="requested total queries across tenants"),
        "placement": dict(default="optimize", choices=POLICIES),
        "spec": dict(default="dataflow", choices=sorted(SPECS)),
        "engine": dict(default="dataflow",
                       choices=["dataflow", "volcano"]),
        "query": dict(default="f6", choices=lambda: sorted(
            _module("analysis").SCENARIOS),
                      help="figure scenario (f1..f6)"),
        # Where a command writes its artifact (see _routed_output).
        "out": dict(options=("-o", "--out"), nargs="?", const="",
                    default=None, metavar="JSON",
                    help="write the artifact here (bare -o: under "
                         "benchmarks/results/; absent: no file)"),
    }
    # ...for a command that always writes one.
    always_out = {"default": "", "help": "output path (omitted or bare "
                                         "-o: under benchmarks/results/)"}

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data-flow query processing on simulated modern "
                    "hardware (Lerner & Alonso, ICDE 2024)")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Command)

    def command(name: str, func, *names, **changes):
        """Sub-command ``name`` running ``func`` (its docstring's first
        line is the help) with the shared flags ``names``; ``changes``
        adds further shared flags with the keywords they differ by."""
        added = sub.add_parser(
            name, help=(func.__doc__ or "").partition("\n")[0])
        added.set_defaults(func=func)
        added.pending = []
        for flag in names + tuple(changes):
            keywords = {**flags[flag], **changes.get(flag, {})}
            added.add_argument(*keywords.pop("options", [f"--{flag}"]),
                               **keywords)
        return added

    command("demo", cmd_demo, rows={"default": 100_000})
    command("sites", cmd_sites, "spec")

    query = command("query", cmd_query, "placement", "spec",
                    rows={"default": 100_000})
    query.add_argument("--selectivity", type=finite_float(0.0, 1.0),
                       default=0.1)
    query.add_argument("--zonemaps", action="store_true")
    query.add_argument("--plan", action="store_true",
                       help="print the compiled stage graph, each "
                            "stage's operators one per line, instead "
                            "of running the query")
    query.add_argument("--explain-stalls", action="store_true",
                       help="print per-stage stall attribution "
                            "(credit-starved / downstream-full / "
                            "device-busy)")
    query.add_argument("--ledger", action="store_true",
                       help="print the movement ledger (bytes x link "
                            "x operator x direction)")

    trace = command("trace", cmd_trace, "scenario", "queries",
                    rows={"default": 50_000}, out=always_out,
                    engine={"choices": ["dataflow", "volcano", "both"]})
    trace.add_argument("--serve", action="store_true",
                       help="trace a multi-tenant serving scenario "
                            "(--scenario, --queries) instead of the "
                            "demo query (per-tenant lanes, serve "
                            "lifecycle events)")

    sql = command("sql", cmd_sql, "placement", rows={"default": 50_000})
    sql.add_argument("statement")
    sql.add_argument("--max-rows", type=non_negative_int, default=20)

    whatif = command("whatif", cmd_whatif, "query", "engine", "rows",
                     "out")
    whatif.add_argument("--factors", default=None,
                        help="comma-separated improvement factors "
                             "(default 1.25,1.5,2,4)")
    whatif.add_argument("--resources", default=None,
                        help="comma-separated resource subset to "
                             "sweep (default: all on the fabric)")
    whatif.add_argument("--vary", default=None,
                        help="explicit raw perturbations, e.g. "
                             "nic.bw=2x,cxl.lat=0.5x (skips the "
                             "sweep unless --resources is given)")

    report = command("report", cmd_report, "engine", "rows",
                     out={**always_out, "metavar": "HTML"})
    report.add_argument("--queries", default="all",
                        help="comma-separated scenarios or 'all'")

    optimize = command("optimize", cmd_optimize, "query", "rows")
    optimize.add_argument("-k", "--top-k", type=positive_int, default=3)
    optimize.add_argument("--validate-whatif", action="store_true",
                          help="simulate the top-k plans and print "
                               "cost-vs-simulation ranking "
                               "disagreements")

    command("experiments", cmd_experiments)

    bench = command("bench", cmd_bench, rows={
        "default": lambda: _module("bench").DEFAULT_ROWS})
    bench.add_argument("--smoke", action="store_true",
                       help="run the instrumented smoke scenarios "
                            "(default when no --exp is given)")
    bench.add_argument("--exp", default="",
                       help="comma-separated experiment ids "
                            "(f1..f6,c1..c8,e1..e6) or 'all'")
    bench.add_argument("--serve", action="store_true",
                       help="also run the multi-tenant serving "
                            "scenarios ('serving' section)")
    bench.add_argument("--serve-queries", type=positive_int,
                       default=lambda: _module(
                           "bench").SERVE_BENCH_QUERIES, metavar="N",
                       help="requested queries per serving scenario")
    bench.add_argument("--scale", action="store_true",
                       help="also run the 100k-1M row scale tier "
                            "(f2/f4/f6-shaped queries, large "
                            "chunks; 'scale' section)")
    bench.add_argument("--tag", default="local",
                       help="report tag (file is BENCH_<tag>.json)")
    bench.add_argument("--out", default=".",
                       help="directory the report is written to")
    bench.add_argument("--compare", default=None, metavar="BASELINE",
                       help="re-run a baseline report's records and "
                            "diff them leaf by leaf (exit 1 on "
                            "regression, 2 on an unusable baseline)")
    bench.add_argument("--tolerance", type=finite_float(0.0),
                       default=lambda: _module(
                           "bench").DEFAULT_TOLERANCE,
                       help="relative tolerance for float leaves in "
                            "--compare (everything else is exact)")
    bench.add_argument("--jobs", type=positive_int, default=1,
                       metavar="N",
                       help="run scenarios/experiments across N "
                            "worker processes (the report is "
                            "identical at any job count)")
    bench.add_argument("--list", action="store_true",
                       help="list every section's scenarios, then "
                            "exit")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress progress output")

    serve = command("serve", cmd_serve, "scenario", "rows", "queries",
                    "out")
    serve.add_argument("--no-verify", action="store_true",
                       help="skip the standalone-oracle checksum and "
                            "accounting verification")
    serve.add_argument("--report", nargs="?", const="", default=None,
                       metavar="HTML",
                       help="write the self-contained serving "
                            "dashboard here (telemetry JSON lands "
                            "alongside); bare --report defaults under "
                            "benchmarks/results/")

    top = command("top", cmd_top, "scenario", "rows", "queries")
    top.add_argument("--from", dest="from_file", default=None,
                     metavar="JSON",
                     help="render from a recorded "
                          "repro.observatory/v1 JSON (or a serving "
                          "record embedding one) instead of serving")
    top.add_argument("--follow", action="store_true",
                     help="add the per-window playback above the "
                          "summary tables")
    top.add_argument("--json", nargs="?", const="", default=None,
                     metavar="JSON",
                     help="also write the observatory JSON artifact; "
                          "bare --json defaults under "
                          "benchmarks/results/")

    loadgen = command("loadgen", cmd_loadgen, "scenario", "queries",
                      "out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
