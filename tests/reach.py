"""Reach ratchet: ``src/`` is what the product runs.

``python tests/reach.py`` drives every product entry point in one
process under ``sys.settrace`` — all 13 ``repro`` sub-commands with
every flag that selects a code path (``repro sql`` with every construct
the parser accepts), the smoke suite again under ``REPRO_SLOW_FLOW=1``
so the reference twin counts, the six ``examples/``, ``dir()`` of the
package, and two windows (the second traced, as ``--trace 1`` runs it)
+ ``verify()`` of each perfbench workload.
It checks two things against what ``ast`` finds under ``src/``:

* **Functions.**  The code objects that were called (``call`` events)
  against every ``def`` and ``lambda``.  ``ALLOWED`` names the
  functions that may stay unreached, each with the reason.  An
  unreached function that is not listed fails, and so does a listed
  function that is reached or no longer exists, so the set can only
  shrink.
* **Lines.**  The lines that ran (``line`` events, ``src/`` frames
  only) against every statement inside a function body; docstrings,
  ``raise`` statements and ``global`` / ``nonlocal`` (no code) are not
  counted.  ``NEVER_RUN`` holds, per file, how many statements never
  ran.  A file whose count differs from its entry fails, with the
  lines: a new never-run line needs a run that reaches it, and a lower
  count is written down in the same change.

No wall clock is read.  Needs ``PYTHONPATH=src``;
``tests/test_cli_and_examples.py`` checks both tables' form without a
drive.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import shlex
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional
from unittest import mock

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: What may stay unreached: a reason, then the functions it covers as
#: ``<path under src/repro>::<qualified name>``.
_ALLOWED = """
abstract-method stub; every subclass overrides it
    engine/logical.py::PlanNode.estimate_rows
    engine/logical.py::PlanNode.output_schema
    engine/operators.py::PhysicalOp.process
    engine/volcano.py::_Iterator.next
    relational/expressions.py::Expression.evaluate
    relational/expressions.py::Expression.required_columns
    sim/kernel.py::_Condition._check
base-class default; every predicate overrides it
    relational/expressions.py::Expression.estimate_selectivity
__repr__, a debugging aid
    engine/logical.py::PlanNode.__repr__
    engine/operators.py::PhysicalOp.__repr__
    flow/credits.py::_EndOfStream.__repr__
    flow/stages.py::Stage.__repr__
    hardware/device.py::Device.__repr__
    hardware/interconnect.py::Link.__repr__
    relational/arena.py::Arena.__repr__
    relational/schema.py::Schema.__repr__
    relational/sql.py::_Token.__repr__
    relational/table.py::Chunk.__repr__
    relational/table.py::Table.__repr__
    sim/events.py::EventRing.__repr__
    sim/kernel.py::Event.__repr__
    sim/trace.py::CounterHandle.__repr__
hash beside a custom __eq__: keeps instances usable as keys
    hardware/device.py::Device.__hash__
    hardware/interconnect.py::Link.__hash__
    relational/expressions.py::Expression.__hash__
container protocol of a class the product reads by other means
    relational/catalog.py::_LazyColumnStats.__iter__
    relational/schema.py::Schema.__eq__
    relational/table.py::Chunk.__len__
    relational/table.py::Table.__iter__
    relational/table.py::_LazyColumns.__len__
    sim/events.py::EventRing.__len__
read-only accessor of a public class; no example holds one yet
    relational/arena.py::ArenaColumn.is_dict
    relational/catalog.py::TableStats.row_nbytes
guards outside input: a --compare baseline may carry the section
    obs.py::_serving_record_violations.<lambda>@351
    obs.py::_telemetry_section_violations
read only by --compare of a baseline with that section; the drive compares smoke
    bench.py::<lambda>@328
    bench.py::Suite.<lambda>@293
frozen perfbench import; goes with ROADMAP item 1
    engine/codegen.py::counters
reference the tests compare the fast path against
    bench.py::run_suite
    optimizer/cost.py::CostModel.cost
branch only a larger input takes: above 256 points per window
    serve/telemetry.py::QuantileSketch._compress
branch only a larger input takes: more exemplars than MAX_EXEMPLARS
    serve/telemetry.py::ServeTelemetry._build_exemplars.<lambda>@380
    serve/telemetry.py::ServeTelemetry._build_exemplars.<lambda>@383
branch only a callback added to an already processed event takes
    sim/kernel.py::Event.add_callback.<lambda>@111
branch only a bounded, full inbox takes
    flow/credits.py::_CreditReturn._on_put
    flow/credits.py::_Delivery._on_put
branch only an empty input takes (ROADMAP item 2c sweeps it)
    relational/table.py::Chunk.empty
branch only a non-array column takes
    obs.py::_canonical_cell
    relational/expressions.py::Const.evaluate
failure path no healthy run takes (ROADMAP item 2c injects it)
    sim/kernel.py::AnyOf._check
    sim/kernel.py::Event.fail
    sim/kernel.py::Interrupt.__init__
    sim/kernel.py::Process.interrupt
    sim/kernel.py::Simulator.any_of
"""


def _parse_allowed(text: str) -> dict[str, str]:
    allowed, reason = {}, ""
    for line in text.strip().splitlines():
        if line.startswith(" "):
            allowed[line.strip()] = reason
        else:
            reason = line
    return allowed


ALLOWED: dict[str, str] = _parse_allowed(_ALLOWED)

#: Statements inside function bodies that no drive runs, per file
#: (``<path under src/repro>``); a file not named has none.
NEVER_RUN: dict[str, int] = {
    "analysis/critical_path.py": 8,
    "analysis/observatory.py": 26,
    "analysis/report.py": 7,
    "analysis/slo.py": 3,
    "analysis/whatif.py": 11,
    "bench.py": 17,
    "cli.py": 23,
    "cloud/bufferpool.py": 1,
    "cloud/objectstore.py": 5,
    "cloud/tax.py": 1,
    "engine/codegen.py": 1,
    "engine/dataflow.py": 2,
    "engine/kernels.py": 6,
    "engine/logical.py": 3,
    "engine/operators.py": 19,
    "engine/placement.py": 3,
    "engine/results.py": 1,
    "engine/volcano.py": 5,
    "experiments/__init__.py": 1,
    "experiments/c3_credit_flow.py": 1,
    "experiments/c7_pushdown_survey.py": 1,
    "experiments/f3_nic_pipeline.py": 1,
    "flow/credits.py": 6,
    "flow/stages.py": 3,
    "hardware/device.py": 3,
    "hardware/interconnect.py": 2,
    "hardware/memory.py": 2,
    "hardware/presets.py": 3,
    "hardware/storage.py": 1,
    "hardware/topology.py": 2,
    "obs.py": 74,
    "optimizer/cost.py": 4,
    "optimizer/enumeration.py": 2,
    "relational/arena.py": 4,
    "relational/catalog.py": 3,
    "relational/expressions.py": 10,
    "relational/schema.py": 3,
    "relational/sql.py": 6,
    "relational/table.py": 26,
    "relational/zonemaps.py": 9,
    "scheduler/scheduler.py": 2,
    "serve/dashboard.py": 7,
    "serve/scenarios.py": 2,
    "serve/server.py": 14,
    "serve/telemetry.py": 43,
    "sim/chrometrace.py": 5,
    "sim/events.py": 6,
    "sim/kernel.py": 48,
    "sim/resources.py": 4,
    "sim/trace.py": 9,
}


#: Defaulted parameters that no call in ``src/`` or ``perfbench/``
#: passes (tests and examples are not callers), each with the reason it
#: stays, as ``<path under src/repro>::<qualified name>(<parameter>)``.
_KNOBS_ALLOWED = """
test seam: property tests feed interval lists with no trace behind them
    analysis/critical_path.py::WinnerTimeline.__init__(intervals)
    analysis/critical_path.py::attribute(intervals)
test seam: DESIGN.md's exact-cardinality invariant
    optimizer/optimizer.py::Optimizer.__init__(cardinalities)
test seam: the per-rank estimate-call pins (ROADMAP item 13 lifts the cap)
    optimizer/optimizer.py::Optimizer.__init__(max_placements)
test seam: ring overflow (ROADMAP item 2c)
    sim/events.py::EventRing.__init__(capacity)
test seam: the tests run one scenario of a section
    bench.py::run_suite(only)
passed by keyword through Suite.run(**params)
    bench.py::_run_serving(queries)
    bench.py::_run_serving(rows)
passed through the data-flow compiler's _make(...)
    engine/operators.py::PartialAggregate.__init__(state_schema)
passed through super().__init__(...)
    relational/table.py::_LazyColumns.__init__(cache)
passed through cls(...)
    relational/table.py::Table.__init__(name)
set only by an example
    cloud/objectstore.py::ObjectStore.__init__(compress)
    cloud/objectstore.py::ObjectStore.keys(prefix)
    engine/operators.py::MergeAggregate.__init__(expected_groups)
    hardware/presets.py::rack_spec(compute_nodes)
    relational/datagen.py::make_sensor_readings(chunk_rows)
    relational/datagen.py::make_sensor_readings(error_rate)
    relational/datagen.py::make_sensor_readings(seed)
    relational/datagen.py::make_sensor_readings(sensors)
the command line's entry point: python -m repro reads sys.argv
    cli.py::main(argv)
failure path no healthy run takes (ROADMAP item 2c injects it)
    sim/kernel.py::Process.interrupt(cause)
"""

KNOBS_ALLOWED: dict[str, str] = _parse_allowed(_KNOBS_ALLOWED)

#: Defaulted parameters that every call in ``src/`` and ``perfbench/``
#: passes (``overridden_defaults()``), each with the reason its default
#: stays, in the ``_KNOBS_ALLOWED`` form.
_OVERRIDES_ALLOWED = """
tests or examples call it with the default
    analysis/observatory.py::Observatory.__init__(link_bandwidth)
    analysis/observatory.py::effective_cost(pools_of)
    analysis/observatory.py::render_top(follow)
    analysis/observatory.py::render_top(name)
    analysis/whatif.py::run_whatif(engine)
    bench.py::compare_reports(tolerance)
    bench.py::run_compare(echo)
    bench.py::run_compare(jobs)
    bench.py::run_compare(tolerance)
    cloud/objectstore.py::ObjectStore.select(columns)
    cloud/tax.py::IngressOp.__init__(config)
    engine/operators.py::group_inverse(schema)
    engine/results.py::TraceSnapshot.utilization_delta(slots)
    flow/stages.py::StageGraph.__init__(name)
    hardware/device.py::Device.utilization(elapsed)
    hardware/functional_units.py::chase_on_cpu(cache)
    hardware/interconnect.py::Link.utilization(elapsed)
    hardware/storage.py::ComputationalStorage.__init__(cu_scale)
    hardware/storage.py::ComputationalStorage.__init__(medium)
    hardware/topology.py::Fabric.utilization_report(elapsed)
    optimizer/cost.py::CostModel.__init__(cardinalities)
    optimizer/enumeration.py::enumerate_placements(max_placements)
    relational/datagen.py::make_lineitem(chunk_rows)
    relational/datagen.py::make_orders(chunk_rows)
    relational/datagen.py::make_uniform_table(chunk_rows)
    relational/datagen.py::make_uniform_table(columns)
    relational/table.py::Table.from_arrays(chunk_rows)
    scheduler/workloads.py::poisson_arrivals(seed)
    serve/dashboard.py::render_dashboard(title)
    serve/dashboard.py::write_dashboard(title)
    sim/resources.py::Resource.__init__(name)
    sim/resources.py::Resource.utilization(elapsed)
    sim/trace.py::Trace.critical_path(top)
the signature of the argparse method it overrides
    cli.py::_Command.parse_known_args(args)
    cli.py::_Command.parse_known_args(namespace)
dead default: no test or example omits it either (ROADMAP item 12)
    analysis/critical_path.py::attribute_windows(intervals)
    analysis/whatif.py::optimizer_crosscheck(k)
    analysis/whatif.py::optimizer_crosscheck(rows)
    analysis/whatif.py::run_whatif(rows)
    cloud/objectstore.py::ObjectStore.select(predicate)
    cloud/tax.py::EgressOp.__init__(config)
    engine/dataflow.py::PipelineRecipe.instantiate(qid)
    flow/credits.py::CreditChannel.__init__(credits)
    flow/credits.py::CreditChannel._deliver(flow_id)
    hardware/functional_units.py::HierarchicalBlockStore._new_block(min_key)
    hardware/memory.py::DRAM.__init__(capacity)
    hardware/memory.py::DisaggregatedMemoryNode.__init__(accelerator)
    hardware/memory.py::DisaggregatedMemoryNode.__init__(capacity)
    hardware/memory.py::DisaggregatedMemoryNode.__init__(nic_gbits)
    hardware/memory.py::DisaggregatedMemoryNode.__init__(smart_nic)
    hardware/nic.py::NIC.__init__(gbits)
    hardware/nic.py::SmartNIC.__init__(gbits)
    hardware/presets.py::build_fabric(spec)
    hardware/storage.py::storage_cu_rates(scale)
    relational/expressions.py::And.estimate_selectivity(stats)
    relational/expressions.py::Between.estimate_selectivity(stats)
    relational/expressions.py::Compare.estimate_selectivity(stats)
    relational/expressions.py::Expression.estimate_selectivity(stats)
    relational/expressions.py::InSet.estimate_selectivity(stats)
    relational/expressions.py::Like.estimate_selectivity(stats)
    relational/expressions.py::Not.estimate_selectivity(stats)
    relational/expressions.py::Or.estimate_selectivity(stats)
    relational/sql.py::_Parser.accept(value)
    relational/table.py::_ArenaColumns.__init__(cache)
    relational/table.py::_LazyColumns.__init__(produce)
    scheduler/workloads.py::bursty_arrivals(seed)
    scheduler/workloads.py::diurnal_arrivals(seed)
    serve/scenarios.py::serve_scenario_server(queries)
    sim/kernel.py::Interrupt.__init__(cause)
    sim/kernel.py::Process.__init__(name)
    sim/resources.py::Resource.__init__(capacity)
    sim/trace.py::CounterHandle.add(amount)
    sim/trace.py::Trace.register_context(tenant)
"""

OVERRIDES_ALLOWED: dict[str, str] = _parse_allowed(_OVERRIDES_ALLOWED)


class Def(NamedTuple):
    name: str           # ``ALLOWED``-style
    path: str           # absolute file name, as code objects carry it
    first_line: int     # co_firstlineno: the first decorator's line
    lines: int          # body lines, ``def`` to the last statement


def defined_functions() -> list[Def]:
    """Every ``def`` and ``lambda`` under ``src/repro``, nested ones
    included; a lambda is ``<scope>.<lambda>@<line>``, its line being
    the ``co_firstlineno`` of its code object."""
    found: list[Def] = []

    def visit(node, scope: str, key: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                found.append(Def(f"{key}::{name}", path, first,
                                 child.end_lineno - child.lineno + 1))
            elif isinstance(child, ast.Lambda):
                lam = f"<lambda>@{child.lineno}"
                found.append(Def(f"{key}::{scope}.{lam}" if scope
                                 else f"{key}::{lam}", path, child.lineno,
                                 child.end_lineno - child.lineno + 1))
            visit(child, name, key, path)

    for source in sorted(SRC.rglob("*.py")):
        visit(ast.parse(source.read_text()), "",
              source.relative_to(SRC).as_posix(), str(source))
    return found


# -- the knob census (``ast`` only, no drive) --------------------------------

class Knob(NamedTuple):
    name: str               # ``KNOBS_ALLOWED``-style
    callee: str             # the name a call goes by
    position: Optional[int]  # positional index after self / cls


def defaulted_parameters() -> list[Knob]:
    """Every parameter with a default of every ``def`` under
    ``src/repro``.  A call to ``C.__init__`` goes by ``C``; a
    ``__call__`` has no name to match and is left out."""
    found: list[Knob] = []

    def visit(node, scope: str, cls: Optional[str], key: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}.{child.name}" if scope
                      else child.name, child.name, key)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                visit(child, name, None, key)
                if child.name == "__call__":
                    continue
                callee = cls if child.name == "__init__" and cls \
                    else child.name
                args = child.args
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    found.append(Knob(
                        f"{key}::{name}({positional[index].arg})",
                        callee, index - skip))
                found.extend(Knob(f"{key}::{name}({arg.arg})", callee,
                                  None)
                             for arg, default in zip(args.kwonlyargs,
                                                     args.kw_defaults)
                             if default is not None)
            else:
                visit(child, scope, cls, key)

    for source in sorted(SRC.rglob("*.py")):
        visit(ast.parse(source.read_text()), "", None,
              source.relative_to(SRC).as_posix())
    return found


def _passes(call: ast.Call, knob: Knob) -> bool:
    """Whether ``call`` may pass ``knob``: by keyword, by position, or
    through ``*`` / ``**``, which count as passing everything."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    for keyword in call.keywords:
        if keyword.arg is None or keyword.arg == knob.name.rsplit(
                "(", 1)[1][:-1]:
            return True
    return knob.position is not None and len(call.args) > knob.position


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in ``src/`` and ``perfbench/``, by callee name
    (``f(...)`` or ``x.f(...)``)."""
    calls: dict[str, list[ast.Call]] = {}
    for root in (REPO / "src", REPO / "perfbench"):
        for source in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    calls.setdefault(name, []).append(node)
    return calls


def unset_knobs() -> list[str]:
    """The defaulted parameters no call in ``src/`` or ``perfbench/``
    passes, matching calls by callee name.  Calls made through
    ``cls(...)``, ``super()`` or a function held in a variable go
    unmatched, so such a hit is a knob only after a look at its
    callers."""
    calls = _calls()
    return sorted(knob.name for knob in defaulted_parameters()
                  if not any(_passes(call, knob)
                             for call in calls.get(knob.callee, ())))


def overridden_defaults() -> list[str]:
    """The defaulted parameters that every matched call in ``src/`` and
    ``perfbench/`` passes, by keyword or by position: a default no
    product run reads.  A call through ``*`` / ``**`` counts as not
    passing, so only an explicit value at every call site is a hit."""
    calls = _calls()

    def explicit(call: ast.Call, knob: Knob) -> bool:
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                keyword.arg is None for keyword in call.keywords):
            return False
        return _passes(call, knob)

    return sorted(knob.name for knob in defaulted_parameters()
                  if calls.get(knob.callee)
                  and all(explicit(call, knob)
                          for call in calls[knob.callee]))


#: Statements that emit no line event of their own, or that belong to
#: the failure paths ROADMAP item 2(c) drives.
_UNCOUNTED = (ast.Raise, ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _blocks(node: ast.AST) -> list[list[ast.stmt]]:
    """The statement blocks directly inside a compound statement."""
    blocks = [getattr(node, name) for name in ("body", "orelse",
                                                 "finalbody")
              if getattr(node, name, None)]
    return blocks + [handler.body for handler in getattr(node, "handlers",
                                                         ())]


def _header(node: ast.stmt) -> range:
    """The lines whose events show ``node`` ran: all of a simple
    statement, up to its first inner statement for a compound one."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if not body:
        return range(first, node.end_lineno + 1)
    return range(first, max(node.lineno, body[0].lineno - 1) + 1)


def body_statements() -> dict[str, dict[int, range]]:
    """Per file under ``src/repro``: every counted statement inside a
    function body, by first line, with the lines that show it ran."""
    found: dict[str, dict[int, range]] = {}

    def in_body(block: list[ast.stmt], spans: dict, function: bool):
        for index, node in enumerate(block):
            if function and index == 0 and _is_docstring(node):
                continue
            if isinstance(node, _UNCOUNTED):
                continue
            if not isinstance(node, ast.Try):   # ``try:`` runs nothing
                spans[node.lineno] = _header(node)
            defines = isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))
            for inner in _blocks(node):
                in_body(inner, spans, defines)

    def outside(block: list[ast.stmt], spans: dict):
        for node in block:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_body(node.body, spans, True)
            else:
                for inner in _blocks(node):
                    outside(inner, spans)

    for source in sorted(SRC.rglob("*.py")):
        spans: dict[int, range] = {}
        outside(ast.parse(source.read_text()).body, spans)
        found[source.relative_to(SRC).as_posix()] = spans
    return found


def never_run(ran: dict[str, set[int]]) -> dict[str, list[int]]:
    """Per file, the first lines of the counted statements that did
    not run (``ran``: the lines of each absolute file name that did)."""
    out = {}
    for key, spans in body_statements().items():
        lines = ran.get(str(SRC / key), set())
        missed = [first for first, span in sorted(spans.items())
                  if lines.isdisjoint(span)]
        if missed:
            out[key] = missed
    return out


# -- the drive ---------------------------------------------------------------

SQL_STATEMENTS = [
    "SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS net, "
    "l_quantity + 1 AS q1, l_extendedprice / 2 AS half "
    "FROM lineitem WHERE (l_quantity > 45 OR l_quantity < 3) "
    "AND NOT l_discount >= 0.05 AND l_returnflag <> 'N'",
    "SELECT l_returnflag, l_quantity, COUNT(*) AS n, "
    "SUM(l_extendedprice) AS revenue, AVG(l_quantity) AS q, "
    "MIN(l_discount) AS lo, MAX(l_discount) AS hi FROM lineitem "
    "WHERE l_shipdate BETWEEN 8500 AND 10500 "
    "AND l_returnflag IN ('A', 'R') AND l_comment LIKE '%a%' "
    "GROUP BY l_returnflag, l_quantity",
    "SELECT o_priority, COUNT(*) AS n FROM lineitem JOIN orders "
    "ON l_orderkey = o_orderkey WHERE l_quantity <= 10 "
    "AND o_priority != 3 GROUP BY o_priority",
    "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity = 50 "
    "ORDER BY l_orderkey ASC, l_quantity LIMIT 5",
    "SELECT * FROM orders WHERE o_priority IN (1, 2) LIMIT 3",
    # The join above written the other way round: the build side is
    # the many side, so its keys repeat and it gets the sorted index.
    "SELECT o_priority, COUNT(*) AS n FROM orders JOIN lineitem "
    "ON o_orderkey = l_orderkey WHERE l_quantity <= 10 "
    "AND o_priority != 3 GROUP BY o_priority",
    # Aggregates over expressions: a hidden Map column each.
    "SELECT l_returnflag, SUM(l_quantity * l_extendedprice) AS r, "
    "AVG(l_extendedprice * (1 - l_discount)) AS net FROM lineitem "
    "GROUP BY l_returnflag",
]


#: One ``repro`` command line per code path; ``{tmp}`` is a scratch
#: directory, ``{sqlN}`` the Nth statement above.
COMMANDS = """
demo --rows 20000
sites
sites --spec conventional
query --rows 20000
query --rows 20000 --placement pushdown --zonemaps --explain-stalls --ledger
query --rows 20000 --placement cpu --spec conventional --explain-stalls
query --rows 20000 --plan
trace --rows 20000 --engine both -o {tmp}/trace.json
trace --serve --queries 60 -o {tmp}/trace_serve.json
sql {sql0} --rows 8000
sql {sql1} --rows 8000
sql {sql2} --rows 8000 --placement pushdown
sql {sql3} --rows 8000 --placement cpu --max-rows 2
sql {sql4} --rows 8000
sql {sql5} --rows 8000
sql {sql6} --rows 8000 --placement pushdown
whatif --query f6 --rows 2000 -o {tmp}/whatif.json
whatif --query f2 --rows 2000 --engine volcano --factors 2 --resources net.bw,ssd.bw
whatif --query f4 --rows 2000 --vary nic.bw=2x,cxl.lat=0.5x
report --rows 2000 -o {tmp}/attribution.html
optimize --query f4 --rows 3000
optimize --query f6 --rows 3000 --validate-whatif -k 4
experiments
bench --list
bench --serve --scale --exp all --tag reach --out {tmp} --quiet
bench --smoke --tag smoke --out {tmp} --quiet
serve --scenario two_tenant_bursty -o {tmp}/serve.json --report {tmp}/serve.html
serve --scenario three_tenant_mix --queries 300 --no-verify
serve --scenario overload_shed --queries 200
top --scenario two_tenant_bursty --queries 120 --json {tmp}/top.json
top --from {tmp}/top.json --follow
top --from {tmp}/serve.json
loadgen --queries 50
loadgen --scenario three_tenant_mix --queries 50 -o {tmp}/arrivals.json
"""

#: The reference twin — the generator flows — must reproduce the
#: smoke report leaf for leaf.
TWIN_COMMANDS = {
    "REPRO_SLOW_FLOW": [
        "bench --compare {tmp}/BENCH_smoke.json --tolerance 0 --quiet"],
}

#: Hostile input: one ``error:`` line, exit 2.
HOSTILE_COMMANDS = ["sql 'SELECT nope FROM lineitem'",
                    "top --from {tmp}/trace.json"]


def cli_invocations(tmp: str) -> list[tuple[dict, list[str], int]]:
    """(environment, ``repro`` argv, exit status) of every command."""
    fill = {"tmp": tmp, **{f"sql{n}": shlex.quote(statement)
                           for n, statement in enumerate(SQL_STATEMENTS)}}

    def argv(line: str) -> list[str]:
        return shlex.split(line.format(**fill))

    return ([({}, argv(line), 0) for line in COMMANDS.strip().splitlines()]
            + [({switch: "1"}, argv(line), 0)
               for switch, lines in TWIN_COMMANDS.items() for line in lines]
            + [({}, argv(line), 2) for line in HOSTILE_COMMANDS])


def drive(problems: list[str]) -> None:
    """Run every entry point; a failing one is appended to ``problems``."""
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for env, argv, expected in cli_invocations(tmp):
            with mock.patch.dict(os.environ, env):
                try:
                    status = main(argv)
                except SystemExit as exc:       # argparse's rejections
                    status = exc.code
            if (status or 0) != expected:
                problems.append(f"repro {' '.join(argv)}: exit {status}")

    for example in sorted((REPO / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")

    # What a package offers before any of its names loads (tab
    # completion lists ``dir()``).
    import repro
    dir(repro)

    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        from spans import Tracer
        from workloads import WORKLOADS, make_workload
        tracer = Tracer()
        tracer.plan()
        for name in WORKLOADS:
            workload = make_workload(name, 0)
            workload.build()
            ops = list(workload.window(0))
            # The second window as ``--trace 1`` runs it: its per-layer
            # counts read the fabrics' trace records.
            root = tracer.begin_window(1)
            tracer.install()
            try:
                ops += workload.window(1)
            finally:
                tracer.uninstall()
                tracer.close(root)
            tracer.fabric_counts()
            problems += [f"perfbench {name}: {op.error}"
                         for op in ops if op.digest is None]
            problems += [f"perfbench {name}: {why}"
                         for why in workload.verify()]
    finally:
        sys.path.remove(str(REPO / "perfbench"))


def traced_drive() -> tuple[set[tuple[str, int]], dict[str, set[int]],
                             list[str]]:
    """``(file, first line)`` of every code object the drive called,
    the lines that ran in each ``src/`` file, and the drive's
    problems."""
    called: set = set()
    ran: dict[str, set[int]] = {}
    prefix = str(SRC)

    def on_line(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, _event, _arg):
        code = frame.f_code
        called.add(code)
        if code.co_filename.startswith(prefix):
            ran.setdefault(code.co_filename, set())
            return on_line
        return None

    problems: list[str] = []
    sink = io.StringIO()
    sys.settrace(on_call)
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            drive(problems)
    except BaseException:
        sys.stderr.write(sink.getvalue()[-4000:])   # the last it said
        raise
    finally:
        sys.settrace(None)
    return ({(code.co_filename, code.co_firstlineno) for code in called},
            ran, problems)


def main() -> int:
    defined = defined_functions()
    called, ran, problems = traced_drive()
    unreached = [d for d in defined
                 if (d.path, d.first_line) not in called]
    names = {d.name for d in defined}
    missed = {d.name for d in unreached}

    problems += [f"unreached and not listed: {d.name} ({d.lines} lines)"
                 for d in unreached if d.name not in ALLOWED]
    problems += [f"listed but {'reached' if name in names else 'gone'}: "
                 f"{name}" for name in sorted(set(ALLOWED) - missed)]

    census = never_run(ran)
    for key in sorted(set(census) | set(NEVER_RUN)):
        lines = census.get(key, [])
        if len(lines) != NEVER_RUN.get(key, 0):
            problems.append(
                f"never-run lines in {key}: {len(lines)}, NEVER_RUN says "
                f"{NEVER_RUN.get(key, 0)} (lines "
                f"{', '.join(map(str, lines)) or 'none'})")

    print(f"reached {len(defined) - len(unreached)}/{len(defined)} "
          f"functions, unreached {sum(d.lines for d in unreached)} "
          f"body lines (allowed {len(ALLOWED)}); never-run statement "
          f"lines {sum(map(len, census.values()))} in {len(census)} of "
          f"{len(list(SRC.rglob('*.py')))} files")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
