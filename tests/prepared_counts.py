"""Prepared-pipeline counts: what one served run derives, counted.

A served template is planned and prepared once; every later query of
it instantiates a ready pipeline.  ``count_served_run`` serves
``three_tenant_mix`` with counting wrappers around the derivations —
the template factories, plan hashing, the compiler's plan walk
(``PipelineRecipe`` construction), stage-graph construction, the
environment switch and the result-checksum render — and returns the
counts beside the drained server.  Every count is exact and
host-independent, so CI gates on them (no wall clock): ``python
tests/prepared_counts.py`` exits 1 unless recipes built == distinct
(template, variant) pairs that ran, every template factory ran once,
and checksum renders == distinct served answers.  ``tests/
test_prepared_pipelines.py`` pins the rest.  Needs ``PYTHONPATH=src``.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from collections import Counter
from contextlib import ExitStack
from unittest import mock

from repro.engine import dataflow
from repro.engine.logical import PlanNode
from repro.flow import stages
from repro.serve import scenarios, server as served

SWITCHES = ("REPRO_SLOW_FLOW",)


def _counting(counts: Counter, key, function):
    def wrapper(*args, **kwargs):
        counts[key(*args, **kwargs) if callable(key) else key] += 1
        return function(*args, **kwargs)
    return wrapper


def count_served_run(queries: int = 300, scenario: str = "three_tenant_mix"):
    """Serve ``scenario`` bare; returns ``(counts, server)``.

    ``counts`` keys: ``factory:<template>``, ``hashed`` (plans whose
    fingerprint was computed, not recalled), ``recipes``, ``graphs``,
    ``env:<switch>``, ``renders`` (result checksums rendered).
    """
    counts: Counter = Counter()
    roots: set[int] = set()
    templates = scenarios.serve_templates()

    def factories():
        def counted(name, factory):
            def build():
                counts[f"factory:{name}"] += 1
                query = factory()
                roots.add(id(query.plan))
                return query
            return build
        return {name: counted(name, factory)
                for name, factory in templates.items()}

    environ_get = os.environ.get

    def counted_get(name, default=None):
        if name in SWITCHES:
            counts[f"env:{name}"] += 1
        return environ_get(name, default)

    describes = {cls: cls.__dict__["describe"]
                 for cls in PlanNode.__subclasses__()}
    config = dataclasses.replace(
        scenarios.SERVE_SCENARIOS[scenario].config,
        telemetry=False, observatory=False)
    with ExitStack() as stack:
        def patch(owner, attribute, replacement):
            stack.enter_context(
                mock.patch.object(owner, attribute, replacement))

        patch(scenarios, "serve_templates", factories)
        patch(os.environ, "get", counted_get)
        patch(dataflow.PipelineRecipe, "__init__", _counting(
            counts, "recipes", dataflow.PipelineRecipe.__init__))
        patch(stages.StageGraph, "__init__", _counting(
            counts, "graphs", stages.StageGraph.__init__))
        patch(served, "columns_checksum", _counting(
            counts, "renders", served.columns_checksum))
        # The fingerprint describes every node of the plan it hashes;
        # nothing else on the serving path describes a template's root.
        for cls, describe in describes.items():
            patch(cls, "describe", _counting(
                counts,
                lambda node: "hashed" if id(node) in roots else "other",
                describe))
        server = scenarios.serve_scenario_server(
            scenario, queries=queries, config=config)
    del counts["other"]
    return counts, server


def pairs_that_ran(server) -> set[tuple[str, str]]:
    """Distinct (template, variant) pairs among the completed queries."""
    return {(r.template, r.variant_name) for r in server.records
            if r.completed}


def distinct_answers(server) -> int:
    """Distinct answer contents (names, dtypes, values) completed."""
    answers = set()
    for r in server.records:
        if r.completed:
            columns = [(name, r.table.column(name))
                       for name in r.table.schema.names]
            answers.add(tuple((name, values.dtype.str, values.tobytes())
                              for name, values in columns))
    return len(answers)


def problems(counts, server) -> list[str]:
    """What the CI gate fails on ([] = every derivation ran once)."""
    ran = pairs_that_ran(server)
    factories = {key: n for key, n in counts.items()
                 if key.startswith("factory:")}
    found = []
    if counts["recipes"] != len(ran):
        found.append(f"{counts['recipes']} recipes built for "
                     f"{len(ran)} (template, variant) pairs")
    if any(n != 1 for n in factories.values()):
        found.append(f"a template factory ran more than once: {factories}")
    answers = distinct_answers(server)
    if counts["renders"] != answers:
        found.append(f"{counts['renders']} checksum renders for "
                     f"{answers} distinct served answers")
    return found


def main(argv: list[str]) -> int:
    if argv:
        print("usage: prepared_counts.py", file=sys.stderr)
        return 2
    counts, server = count_served_run()
    print(f"served {len(server.records)} queries on {counts['graphs']} "
          f"stage graphs: {counts['recipes']} recipes built for "
          f"{len(pairs_that_ran(server))} (template, variant) pairs, "
          f"{counts['renders']} checksum renders for "
          f"{distinct_answers(server)} distinct answers, "
          f"{dict(counts)}, plan cache {server.plan_cache.counters()}")
    found = problems(counts, server)
    for line in found:
        print("PREPARED COUNT", line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
