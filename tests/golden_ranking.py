"""Golden optimizer ranking: ``Optimizer.rank`` pinned entry by entry.

``golden_ranking.json`` holds, for F1-F6 on their own fabric specs and
the five serve templates on ``dataflow_spec``, every ranked placement
in order: site chains in plan walk order (node ids are process-global,
walk positions are not), partitions, and ``repr`` of the three cost
figures the ranking and the scheduler read.  Floats are compared as
their ``repr`` so a change in addition order shows up.

``python tests/golden_ranking.py`` diffs the current ranking against
the fixture and names what moved (CI runs it after the bench smoke);
``--record`` rewrites the fixture and is only for a PR that means to
change the ranking.  Needs ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.analysis.scenarios import SCENARIOS
from repro.hardware import build_fabric, dataflow_spec
from repro.optimizer import Optimizer
from repro.relational import standard_catalog
from repro.serve import serve_templates

FIXTURE = Path(__file__).with_name("golden_ranking.json")
FIGURE_ROWS = 3000
SERVE_ROWS = 2000


def cases():
    """(name, fabric spec factory, query factory, catalog rows)."""
    for name, scenario in SCENARIOS.items():
        yield name, scenario.spec, scenario.query, FIGURE_ROWS
    for name, template in serve_templates().items():
        yield f"serve:{name}", dataflow_spec, template, SERVE_ROWS


def ranking_record(ranked, plan) -> list[dict]:
    nodes = list(plan.walk())
    return [{
        "name": entry.placement.name,
        "sites": [entry.placement.sites[n.node_id] for n in nodes],
        "partitions": entry.placement.partitions,
        "bottleneck_time": repr(entry.cost.bottleneck_time),
        "total_bytes": repr(entry.cost.total_bytes),
        "latency": repr(entry.cost.latency),
    } for entry in ranked]


def current() -> dict[str, list[dict]]:
    out = {}
    for name, spec, query, rows in cases():
        plan = query().plan
        # The memoized, read-only standard catalog (lineitem, orders,
        # uniform), the same one ``repro optimize`` ranks on.
        ranked = Optimizer(build_fabric(spec()),
                           standard_catalog(rows)).rank(plan)
        out[name] = ranking_record(ranked, plan)
    return out


def differences(golden: dict, now: dict) -> list[str]:
    """One line per query whose ranking moved, naming the first entry."""
    problems = []
    for name in sorted(set(golden) | set(now)):
        want, got = golden.get(name), now.get(name)
        if want == got:
            continue
        if want is None or got is None:
            problems.append(f"{name}: only in "
                            f"{'current run' if want is None else 'fixture'}")
            continue
        if len(want) != len(got):
            problems.append(f"{name}: {len(want)} ranked placements in the "
                            f"fixture, {len(got)} now")
            continue
        index = next(i for i, (w, g) in enumerate(zip(want, got)) if w != g)
        fields = [k for k in want[index] if want[index][k] != got[index][k]]
        problems.append(
            f"{name}: rank #{index} differs in {fields}: fixture "
            f"{ {k: want[index][k] for k in fields} } vs now "
            f"{ {k: got[index][k] for k in fields} }")
    return problems


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        # One ranked placement per line, so a re-record diffs by entry.
        FIXTURE.write_text("{\n" + ",\n".join(
            f" {json.dumps(name)}: [\n" + ",\n".join(
                "  " + json.dumps(entry) for entry in entries) + "\n ]"
            for name, entries in current().items()) + "\n}\n")
        print(f"recorded {FIXTURE}")
        return 0
    if argv:
        print("usage: golden_ranking.py [--record]", file=sys.stderr)
        return 2
    golden = json.loads(FIXTURE.read_text())
    problems = differences(golden, current())
    for line in problems:
        print("RANKING CHANGED", line)
    if not problems:
        print(f"golden ranking ok: {len(golden)} queries, "
              f"{sum(map(len, golden.values()))} ranked placements")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
