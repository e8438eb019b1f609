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

Report-producing commands route their outputs under
``benchmarks/results/`` (gitignored) when the output flag is omitted
or given bare, so artifacts never land in the repo root by accident.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import EXPERIMENTS, add_bench_arguments, positive_int, run_cli
from .engine import (
    AggSpec,
    DataflowEngine,
    Query,
    VolcanoEngine,
    cpu_only,
    data_path_sites,
    pushdown,
)
from .hardware import OpKind, build_fabric, conventional_spec, \
    dataflow_spec
from .optimizer import Optimizer
from .relational import Catalog, col, make_lineitem, standard_catalog


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


def _input_error(reason) -> int:
    """Bad user input: one ``error:`` line, exit status 2 (as argparse)."""
    print(f"error: {reason}", file=sys.stderr)
    return 2


SPECS = {"dataflow": dataflow_spec, "conventional": conventional_spec}


def cmd_demo(args) -> int:
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(args.rows,
                                               chunk_rows=8192))
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 45)
             .aggregate(["l_returnflag"],
                        [AggSpec("sum", "l_extendedprice", "revenue")]))

    fabric = build_fabric(dataflow_spec())
    baseline = VolcanoEngine(fabric, catalog).execute(query)

    fabric2 = build_fabric(dataflow_spec())
    best = Optimizer(fabric2, catalog).optimize(query)
    offloaded = DataflowEngine(fabric2, catalog).execute(
        query, placement=best.placement)

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
    used = sorted({s for chain in best.placement.sites.values()
                   for s in chain})
    print(f"\n* optimizer-chosen sites: {used}")
    return 0


def cmd_sites(args) -> int:
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
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(args.rows,
                                               chunk_rows=8192))
    cutoff = max(1, int(50 * args.selectivity))
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") <= cutoff)
             .project(["l_orderkey", "l_extendedprice"]))

    fabric = build_fabric(SPECS[args.spec]())
    engine = DataflowEngine(fabric, catalog,
                            use_zonemaps=args.zonemaps)
    if args.placement == "optimize":
        placement = Optimizer(fabric, catalog).optimize(query).placement
    elif args.placement == "pushdown":
        placement = pushdown(query.plan, fabric)
    else:
        placement = cpu_only(query.plan, fabric)
    if args.plan or args.show_kernel:
        graph = engine.compile(query, placement=placement)
        if args.plan:
            _print_plan(graph, placement)
        if args.show_kernel:
            # Kernels resolve lazily against the first real chunk, so
            # run the graph before reading the resolution state.
            graph.run()
            _print_kernels(graph)
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
    """Render the compiled stage graph with fusion-segment boundaries.

    Each stage lists its operators, a fused segment its parts
    indented under one header, then the channels it emits on (chunks
    cross them lazily: a column is gathered where it is first read).
    """
    from .engine import describe_op
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
            for line in describe_op(op):
                print(f"  {line}")
        if stage.outputs:
            print(f"  -> {len(stage.outputs)} output channel"
                  f"{'s' if len(stage.outputs) != 1 else ''}")


def _print_kernels(graph) -> None:
    """Render each fused segment's generated-kernel resolution.

    Shows the cache fingerprint, where the kernel came from
    (compiled / memory — i.e. miss vs hit), and the generated source
    itself; a segment codegen declined says so.
    """
    from .engine.fusion import FusedOp
    seen: set = set()
    printed = False
    for stage in graph.stages.values():
        for op in stage.ops:
            if not isinstance(op, FusedOp):
                continue
            info = op.kernel_info()
            key = info["fingerprint"] or info["name"]
            if key in seen:
                continue
            seen.add(key)
            printed = True
            print(f"\nkernel for {info['name']}")
            if info["fingerprint"] is None:
                print("  pipeline not lowerable; runs its operators "
                      "unfused")
                continue
            hit = "miss" if info["origin"] == "compiled" else "hit"
            print(f"  fingerprint: {info['fingerprint']}")
            print(f"  origin: {info['origin']} (cache {hit})")
            for line in info["source"].rstrip().splitlines():
                print(f"  | {line}")
    if not printed:
        print("\nno fused segments (nothing to lower to kernels)")


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


def _print_ledger(trace, max_rows: int = 40) -> None:
    """Render the movement ledger (bytes × link × actor × direction)."""
    rows = trace.movement_ledger()
    print("\nmovement ledger:")
    if not rows:
        print("  no link crossings recorded")
        return
    print(f"  {'link':20} {'operator':28} {'direction':30} "
          f"{'bytes':>14} {'chunks':>7}")
    for row in rows[:max_rows]:
        print(f"  {row['link']:20} {row['actor']:28} "
              f"{row['direction']:30} {row['bytes']:>14,.0f} "
              f"{row['chunks']:>7,.0f}")
    if len(rows) > max_rows:
        print(f"  ... ({len(rows)} rows total)")


def cmd_trace(args) -> int:
    """Run the demo query and export a Chrome trace_events timeline."""
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
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(args.rows,
                                               chunk_rows=8192))
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 45)
             .aggregate(["l_returnflag"],
                        [AggSpec("sum", "l_extendedprice", "revenue")]))
    fabric = build_fabric(dataflow_spec())
    if args.engine in ("volcano", "both"):
        VolcanoEngine(fabric, catalog).execute(query)
    if args.engine in ("dataflow", "both"):
        placement = Optimizer(fabric, catalog).optimize(query).placement
        DataflowEngine(fabric, catalog).execute(query,
                                                placement=placement)
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
    from .relational.sql import SqlError, parse_sql
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(args.rows,
                                               chunk_rows=8192))
    from .relational import make_orders
    catalog.register("orders", make_orders(args.rows // 4,
                                           chunk_rows=8192))
    try:
        query = parse_sql(args.statement)
        # Bind every name now: an unknown one is a KeyError.
        query.plan.output_schema(catalog)
    except (SqlError, KeyError) as exc:
        return _input_error(exc.args[0])   # str() of a KeyError is a repr
    fabric = build_fabric(dataflow_spec())
    if args.placement == "optimize":
        placement = Optimizer(fabric, catalog).optimize(query).placement
    elif args.placement == "pushdown":
        placement = pushdown(query.plan, fabric)
    else:
        placement = cpu_only(query.plan, fabric)
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
    import json as json_mod

    from .analysis import (
        DEFAULT_FACTORS,
        parse_vary,
        run_whatif,
        whatif_violations,
    )
    resources = (args.resources.split(",") if args.resources
                 else None)
    try:
        # Malformed --factors / --vary, or a resource this fabric lacks.
        vary = parse_vary(args.vary) if args.vary else []
        factors = ([float(f) for f in args.factors.split(",")]
                   if args.factors else DEFAULT_FACTORS)
        payload = run_whatif(args.query, engine=args.engine,
                             rows=args.rows, factors=factors,
                             resources=[] if vary and resources is None
                             else resources,
                             vary=vary)
    except ValueError as exc:
        return _input_error(exc)
    _print_whatif(payload)
    violations = whatif_violations(payload)
    if args.out is not None:
        # Bare -o routes under benchmarks/results/; absent -o writes
        # nothing (the sweep is still printed and gated).
        out = _routed_output(args.out, f"WHATIF_{args.query}.json")
        with open(out, "w", encoding="utf-8") as fh:
            json_mod.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {out}")
    if violations:
        print("\nVIOLATIONS:")
        for violation in violations:
            print(f"  - {violation}")
        return 1
    return 0


def cmd_report(args) -> int:
    from .analysis import SCENARIOS, run_whatif, write_report

    if args.serve:
        from .serve import run_scenario, write_dashboard
        out = _routed_output(
            args.out, f"serve_dashboard_{args.serve_scenario}.html")
        record = run_scenario(args.serve_scenario)
        html_path, json_path = write_dashboard(
            out, record,
            title=f"Serving dashboard — {args.serve_scenario}")
        telemetry = record["telemetry"]
        print(f"wrote {html_path} and {json_path} "
              f"({telemetry['windows']} windows, "
              f"{len(telemetry['alerts'])} alerts, "
              f"{len(telemetry['exemplars'])} exemplars)")
        return 0

    out = _routed_output(args.out, "attribution.html")
    names = (sorted(SCENARIOS) if args.queries == "all"
             else [q.strip() for q in args.queries.split(",")])
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        return _input_error(f"unknown query {unknown[0]!r} "
                            f"(have: {sorted(SCENARIOS)})")
    payloads = []
    for name in names:
        print(f"analyzing {name}...")
        payloads.append(run_whatif(name, engine=args.engine,
                                   rows=args.rows))
    html_path, json_path = write_report(out, payloads)
    print(f"wrote {html_path} and {json_path} "
          f"({len(payloads)} queries)")
    return 0


def cmd_optimize(args) -> int:
    from .analysis import optimizer_crosscheck

    if not args.validate_whatif:
        from .analysis.scenarios import SCENARIOS
        scenario = SCENARIOS[args.query]
        fabric = build_fabric(scenario.spec())
        rows = args.rows or scenario.rows
        ranked = Optimizer(fabric, standard_catalog(rows)).rank(
            scenario.query())[:args.top_k]
        print(f"top-{len(ranked)} placements for {args.query} "
              f"({rows:,} rows), by predicted makespan:")
        for index, candidate in enumerate(ranked):
            sites = sorted({site for chain in
                            candidate.placement.sites.values()
                            for site in chain})
            print(f"  #{index}: {candidate.placement.name:10} "
                  f"predicted {candidate.cost.bottleneck_time:.6f} s  "
                  f"sites={sites}")
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
    print(f"{'id':4} {'benchmark':36} description")
    for exp_id, description, bench in EXPERIMENTS:
        print(f"{exp_id:4} benchmarks/{bench:36} {description}")
    print("\nrun all:  repro bench --exp all"
          "   (or: pytest benchmarks/ --benchmark-only)")
    return 0


def cmd_serve(args) -> int:
    import json

    from .serve import run_scenario

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
        from .serve import write_dashboard
        # Bare --report defaults under benchmarks/results/, which is
        # gitignored — reports never land in the repo root.
        report = _routed_output(args.report,
                                f"serve_{record['name']}.html")
        html_path, json_path = write_dashboard(
            report, record,
            title=f"Serving dashboard — {record['name']}")
        print(f"  dashboard: {html_path} (+ {json_path})")
    if args.out is not None:
        # Bare -o defaults under benchmarks/results/ (gitignored),
        # same routing as --report — records never land in the
        # repo root by accident.
        out = _routed_output(args.out,
                             f"serve_{record['name']}.json")
        with open(out, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  record: {out}")
    return 0


def cmd_top(args) -> int:
    import json

    from .analysis.observatory import OBSERVATORY_SCHEMA, render_top
    from .obs import _observatory_section_violations

    if getattr(args, "from_file", None):
        try:
            with open(args.from_file) as handle:
                doc = json.load(handle)
        except OSError as exc:
            return _input_error(exc)
        except json.JSONDecodeError as exc:
            return _input_error(f"{args.from_file}: {exc}")
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
        out = _routed_output(args.json, f"TOP_{record['name']}.json")
        with open(out, "w") as handle:
            json.dump({"schema": OBSERVATORY_SCHEMA,
                       "name": record["name"],
                       "digest": record["observatory_digest"],
                       "observatory": payload,
                       "violations": violations},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {out}")
    if violations:
        print("\nOBSERVATORY VIOLATIONS:", file=sys.stderr)
        for violation in violations[:10]:
            print(f"  - {violation}", file=sys.stderr)
        return 1
    return 0


def cmd_loadgen(args) -> int:
    import json

    from .serve import scenario_schedule, schedule_for

    tenants, counts = scenario_schedule(args.scenario, args.queries)
    arrivals = schedule_for(tenants, counts)
    closed = [t.name for t in tenants if not t.arrival.is_open]
    payload = {
        "scenario": args.scenario,
        "arrivals": [a.to_dict() for a in arrivals],
        "closed_tenants": closed,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"{len(arrivals)} open-loop arrivals -> {args.out}")
    else:
        print(json.dumps(payload, indent=2))
    if closed:
        print(f"note: closed-loop tenants {closed} submit "
              "reactively and are not in the schedule")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .analysis import SCENARIOS
    from .serve import SERVE_SCENARIOS
    figures, scenarios = sorted(SCENARIOS), sorted(SERVE_SCENARIOS)

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data-flow query processing on simulated modern "
                    "hardware (Lerner & Alonso, ICDE 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="baseline vs data-flow demo")
    demo.add_argument("--rows", type=positive_int, default=100_000)
    demo.set_defaults(func=cmd_demo)

    sites = sub.add_parser("sites", help="list fabric sites")
    sites.add_argument("--spec", default="dataflow",
                       choices=sorted(SPECS))
    sites.set_defaults(func=cmd_sites)

    query = sub.add_parser("query", help="run a configurable query")
    query.add_argument("--rows", type=positive_int, default=100_000)
    query.add_argument("--selectivity", type=float, default=0.1)
    query.add_argument("--placement", default="optimize",
                       choices=["optimize", "pushdown", "cpu"])
    query.add_argument("--spec", default="dataflow",
                       choices=sorted(SPECS))
    query.add_argument("--zonemaps", action="store_true")
    query.add_argument("--show-kernel", action="store_true",
                       help="print each fused segment's generated "
                            "kernel source with its cache key and "
                            "hit/miss origin (runs the query)")
    query.add_argument("--plan", action="store_true",
                       help="print the compiled stage graph with "
                            "fusion-segment boundaries instead of "
                            "running the query")
    query.add_argument("--explain-stalls", action="store_true",
                       help="print per-stage stall attribution "
                            "(credit-starved / downstream-full / "
                            "device-busy)")
    query.add_argument("--ledger", action="store_true",
                       help="print the movement ledger (bytes x link "
                            "x operator x direction)")
    query.set_defaults(func=cmd_query)

    trace = sub.add_parser(
        "trace", help="export a Chrome/Perfetto trace of the demo "
                      "query")
    trace.add_argument("-o", "--out", nargs="?", const="",
                       default="", metavar="JSON",
                       help="output .json path (trace_events "
                            "format); omitted or bare -o defaults "
                            "under benchmarks/results/")
    trace.add_argument("--rows", type=positive_int, default=50_000)
    trace.add_argument("--engine", default="dataflow",
                       choices=["dataflow", "volcano", "both"])
    trace.add_argument("--serve", action="store_true",
                       help="trace a multi-tenant serving scenario "
                            "instead of the demo query (per-tenant "
                            "lanes, serve lifecycle events)")
    trace.add_argument("--scenario", default="two_tenant_bursty",
                       choices=scenarios,
                       help="serving scenario for --serve")
    trace.add_argument("--queries", type=positive_int, default=None,
                       help="requested queries for --serve")
    trace.set_defaults(func=cmd_trace)

    sql = sub.add_parser(
        "sql", help="run a SQL statement over synthetic "
                    "lineitem/orders tables")
    sql.add_argument("statement")
    sql.add_argument("--rows", type=positive_int, default=50_000)
    sql.add_argument("--max-rows", type=int, default=20)
    sql.add_argument("--placement", default="optimize",
                     choices=["optimize", "pushdown", "cpu"])
    sql.set_defaults(func=cmd_sql)

    whatif = sub.add_parser(
        "whatif", help="causal what-if profiler (per-resource "
                       "virtual speedups)")
    whatif.add_argument("--query", default="f6", choices=figures,
                        help="figure scenario (f1..f6)")
    whatif.add_argument("--engine", default="dataflow",
                        choices=["dataflow", "volcano"])
    whatif.add_argument("--rows", type=positive_int, default=None)
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
    whatif.add_argument("-o", "--out", nargs="?", const="",
                        default=None, metavar="JSON",
                        help="write the repro.whatif/v1 JSON here; "
                             "bare -o defaults under "
                             "benchmarks/results/ (absent: no file)")
    whatif.set_defaults(func=cmd_whatif)

    report = sub.add_parser(
        "report", help="self-contained HTML attribution report "
                       "(+ JSON artifact)")
    report.add_argument("-o", "--out", nargs="?", const="",
                        default="", metavar="HTML",
                        help="output .html path (JSON lands "
                             "alongside); omitted or bare -o "
                             "defaults under benchmarks/results/")
    report.add_argument("--queries", default="all",
                        help="comma-separated scenarios or 'all'")
    report.add_argument("--engine", default="dataflow",
                        choices=["dataflow", "volcano"])
    report.add_argument("--rows", type=positive_int, default=None)
    report.add_argument("--serve", action="store_true",
                        help="render the serving telemetry dashboard "
                             "instead of the attribution report")
    report.add_argument("--serve-scenario",
                        default="two_tenant_bursty", choices=scenarios,
                        help="serving scenario for --serve")
    report.set_defaults(func=cmd_report)

    optimize = sub.add_parser(
        "optimize", help="rank placements; --validate-whatif "
                         "cross-checks against simulation")
    optimize.add_argument("--query", default="f6", choices=figures,
                          help="figure scenario (f1..f6)")
    optimize.add_argument("--rows", type=positive_int, default=None)
    optimize.add_argument("-k", "--top-k", type=int, default=3)
    optimize.add_argument("--validate-whatif", action="store_true",
                          help="simulate the top-k plans and print "
                               "cost-vs-simulation ranking "
                               "disagreements")
    optimize.set_defaults(func=cmd_optimize)

    experiments = sub.add_parser("experiments",
                                 help="list reproduced experiments")
    experiments.set_defaults(func=cmd_experiments)

    bench = sub.add_parser(
        "bench", help="run the benchmark harness -> BENCH_<tag>.json")
    add_bench_arguments(bench)
    bench.set_defaults(func=run_cli)

    serve = sub.add_parser(
        "serve", help="serve a multi-tenant scenario on one warm "
                      "fabric")
    serve.add_argument("--scenario", default="two_tenant_bursty",
                       choices=scenarios,
                       help="serving scenario (see `repro bench "
                            "--list`)")
    serve.add_argument("--rows", type=positive_int, default=None,
                       help="base table rows (scenario default "
                            "otherwise)")
    serve.add_argument("--queries", type=positive_int, default=None,
                       help="requested total queries across tenants")
    serve.add_argument("--no-verify", action="store_true",
                       help="skip the standalone-oracle checksum and "
                            "accounting verification")
    serve.add_argument("-o", "--out", nargs="?", const="",
                       default=None, metavar="JSON",
                       help="write the full repro.bench/v3 serving "
                            "record (incl. per-query records); bare "
                            "-o defaults under benchmarks/results/")
    serve.add_argument("--report", nargs="?", const="", default=None,
                       metavar="HTML",
                       help="write the self-contained serving "
                            "dashboard here (telemetry JSON lands "
                            "alongside)")
    serve.set_defaults(func=cmd_serve)

    top = sub.add_parser(
        "top", help="saturation observatory snapshot (pools, bound "
                    "tenants, placement-regret leaders)")
    top.add_argument("--scenario", default="two_tenant_bursty",
                     choices=scenarios,
                     help="serving scenario to observe")
    top.add_argument("--rows", type=positive_int, default=None,
                     help="base table rows (scenario default "
                          "otherwise)")
    top.add_argument("--queries", type=positive_int, default=None,
                     help="requested total queries across tenants")
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
    top.set_defaults(func=cmd_top)

    loadgen = sub.add_parser(
        "loadgen", help="materialize a scenario's open-tenant "
                        "arrival schedule as JSON")
    loadgen.add_argument("--scenario", default="two_tenant_bursty",
                         choices=scenarios,
                         help="serving scenario name")
    loadgen.add_argument("--queries", type=positive_int, default=None,
                         help="requested total queries")
    loadgen.add_argument("-o", "--out", default=None,
                         help="output JSON path (stdout otherwise)")
    loadgen.set_defaults(func=cmd_loadgen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
