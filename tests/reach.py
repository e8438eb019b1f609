"""Reach ratchet: ``src/`` is what the product runs.

``python tests/reach.py`` drives every product entry point in one
process under ``sys.setprofile`` — all 13 ``repro`` sub-commands with
every flag that selects a code path (``repro sql`` with every construct
the parser accepts), the smoke suite again under ``REPRO_SLOW_FLOW=1``
and under ``REPRO_NO_FUSE=1`` so the reference twins count, the six
``examples/``, and two windows + ``verify()`` of each perfbench
workload — and matches the code objects that were called against every
``def`` under ``src/`` found by ``ast``.

``ALLOWED`` names the functions that may stay unreached, each with the
reason.  The script exits 1 on an unreached function that is not
listed, and on a listed function that is reached or no longer exists,
so the set can only shrink: a new never-called function needs a caller
(or a reason), and a listed function that gains a caller is de-listed
in the same change.  No wall clock is read.  Needs ``PYTHONPATH=src``;
``tests/test_cli_and_examples.py`` checks the list's form without a
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
from typing import NamedTuple
from unittest import mock

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: What may stay unreached: a reason, then the functions it covers as
#: ``<path under src/repro>::<qualified name>``.
_ALLOWED = """
abstract-method stub; every subclass overrides it
    engine/logical.py::PlanNode.describe
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
    hardware/cpu.py::LRUCache.__contains__
    hardware/cpu.py::LRUCache.__len__
    relational/catalog.py::_LazyColumnDicts.__iter__
    relational/catalog.py::_LazyColumnStats.__iter__
    relational/schema.py::Schema.__eq__
    relational/table.py::Chunk.__len__
    relational/table.py::Table.__iter__
    relational/table.py::_LazyColumns.__len__
    relational/zonemaps.py::ZoneMap.__len__
    sim/events.py::EventRing.__len__
read-only accessor of a public class; no example holds one yet
    cloud/bufferpool.py::BufferPool.hit_rate
    cloud/bufferpool.py::BufferPool.hits
    cloud/bufferpool.py::BufferPool.misses
    cloud/bufferpool.py::BufferPool.resident_bytes
    cloud/caches.py::DataCache.hit_rate
    cloud/caches.py::ResultCache.hit_rate
    hardware/cpu.py::LRUCache.hit_rate
    relational/arena.py::ArenaColumn.is_dict
    relational/catalog.py::TableStats.row_nbytes
    relational/zonemaps.py::ZoneMap.bounds
    serve/fairqueue.py::WeightedFairQueue.depth
    serve/fairqueue.py::WeightedFairQueue.virtual_time
    serve/frontend.py::ShedResponse.retry_after_s
guards outside input: a --compare baseline may carry the section
    obs.py::_telemetry_section_violations
frozen perfbench import; goes with ROADMAP item 1
    engine/codegen.py::counters
resets the module-level kernel cache between tests
    engine/codegen.py::reset
reference the tests compare the fast path against
    bench.py::run_suite
    engine/fusion.py::FusedOp.process
    optimizer/cost.py::CostModel.cost
branch only a larger input takes: above 256 points per window
    serve/telemetry.py::QuantileSketch._compress
branch only a bounded, full inbox takes
    flow/credits.py::_CreditReturn._on_put
    flow/credits.py::_Delivery._on_put
branch only an empty input takes (ROADMAP item 2c sweeps it)
    relational/table.py::Chunk.empty
branch only a non-array column takes
    obs.py::_canonical_cell
    relational/expressions.py::Const.evaluate
PlanCache.lookup given another plan instance; the server passes its own
    serve/plancache.py::_rebind
read by plan_fingerprint; no served plan holds a Map (ROADMAP item 7)
    engine/logical.py::Map.describe
validity-mask read side (ROADMAP item 2c sweeps all-null masks)
    relational/arena.py::Arena.validity_slice
    relational/table.py::Chunk.validity
    relational/table.py::_ArenaColumns.validity
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


class Def(NamedTuple):
    name: str           # ``ALLOWED``-style
    path: str           # absolute file name, as code objects carry it
    first_line: int     # co_firstlineno: the first decorator's line
    lines: int          # body lines, ``def`` to the last statement


def defined_functions() -> list[Def]:
    """Every ``def`` under ``src/repro``, nested ones included."""
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
            visit(child, name, key, path)

    for source in sorted(SRC.rglob("*.py")):
        visit(ast.parse(source.read_text()), "",
              source.relative_to(SRC).as_posix(), str(source))
    return found


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
query --rows 20000 --plan --show-kernel
trace --rows 20000 --engine both -o {tmp}/trace.json
trace --serve --queries 60 -o {tmp}/trace_serve.json
sql {sql0} --rows 8000
sql {sql1} --rows 8000
sql {sql2} --rows 8000 --placement pushdown
sql {sql3} --rows 8000 --placement cpu --max-rows 2
sql {sql4} --rows 8000
sql {sql5} --rows 8000
whatif --query f6 --rows 2000 -o {tmp}/whatif.json
whatif --query f2 --rows 2000 --engine volcano --factors 2 --resources net.bw,ssd.bw
whatif --query f4 --rows 2000 --vary nic.bw=2x,cxl.lat=0.5x
report --rows 2000 -o {tmp}/attribution.html
report --serve -o {tmp}/dashboard.html
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

#: The reference twins — the generator flows, and the operator-by-
#: operator path with ``Expression.evaluate`` as the one evaluator —
#: must reproduce the smoke report leaf for leaf.
_SMOKE_AGAIN = "bench --compare {tmp}/BENCH_smoke.json --tolerance 0 --quiet"
TWIN_COMMANDS = {
    "REPRO_SLOW_FLOW": [_SMOKE_AGAIN],
    "REPRO_NO_FUSE": [_SMOKE_AGAIN] + [
        f"sql {{sql{n}}} --rows 8000" for n in range(len(SQL_STATEMENTS))],
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

    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        from workloads import WORKLOADS, make_workload
        for name in WORKLOADS:
            workload = make_workload(name, 0)
            workload.build()
            for k in range(2):
                for op in workload.window(k):
                    if op.digest is None:
                        problems.append(f"perfbench {name}: {op.error}")
            problems += [f"perfbench {name}: {why}"
                         for why in workload.verify()]
    finally:
        sys.path.remove(str(REPO / "perfbench"))


def reached_lines() -> tuple[set[tuple[str, int]], list[str]]:
    """``(file, first line)`` of every code object the drive called."""
    called: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    problems: list[str] = []
    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            drive(problems)
    except BaseException:
        sys.stderr.write(sink.getvalue()[-4000:])   # the last it said
        raise
    finally:
        sys.setprofile(None)
    return ({(code.co_filename, code.co_firstlineno) for code in called},
            problems)


def main() -> int:
    defined = defined_functions()
    called, problems = reached_lines()
    unreached = [d for d in defined
                 if (d.path, d.first_line) not in called]
    names = {d.name for d in defined}
    missed = {d.name for d in unreached}

    problems += [f"unreached and not listed: {d.name} ({d.lines} lines)"
                 for d in unreached if d.name not in ALLOWED]
    problems += [f"listed but {'reached' if name in names else 'gone'}: "
                 f"{name}" for name in sorted(set(ALLOWED) - missed)]

    print(f"reached {len(defined) - len(unreached)}/{len(defined)} "
          f"functions, unreached {sum(d.lines for d in unreached)} "
          f"body lines (allowed {len(ALLOWED)})")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
