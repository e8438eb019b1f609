"""The six figure scenarios (F1–F6) as runnable analysis units.

Each scenario is a small, deterministic rendition of one of the
paper's figure experiments — the same query shapes as the
``benchmarks/bench_f*.py`` studies, scaled down so the what-if engine
can afford dozens of re-simulations.  A scenario pins everything that
matters for bit-identical replay: the fabric spec, the catalog rows
(seeded generators), the query, and the placement policy.

``f6`` deliberately builds its fabric with ``gpu="host"`` — a GPU is
*present* but the optimizer never routes the pipeline through it, so
the what-if sweep has a guaranteed off-path resource to flag.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..engine import (
    AggSpec,
    DataflowEngine,
    Query,
    VolcanoEngine,
    cpu_only,
    pushdown,
)
from ..engine.results import QueryResult
from ..hardware import build_fabric, conventional_spec, dataflow_spec
from ..hardware.presets import FabricSpec, HeterogeneousFabric
from ..relational import Catalog, col, standard_catalog
from .critical_path import Attribution, attribute_query

__all__ = ["Scenario", "ScenarioRun", "SCENARIOS", "run_scenario",
           "run_digest"]


@dataclass
class Scenario:
    """One figure experiment, runnable on either engine."""

    name: str
    title: str
    spec: Callable[[], FabricSpec]
    query: Callable[[], Query]
    placement: str = "optimize"     # optimize | pushdown | cpu
    rows: int = 3000


def _f1_query() -> Query:
    return (Query.scan("lineitem")
            .filter(col("l_quantity") > 30)
            .aggregate(["l_returnflag"],
                       [AggSpec("count", alias="n")]))


def _f2_query() -> Query:
    return (Query.scan("lineitem")
            .filter(col("l_quantity") > 40)
            .project(["l_orderkey", "l_extendedprice"]))


def _f3_query() -> Query:
    return (Query.scan("lineitem")
            .filter(col("l_shipdate").between(8500, 10500))
            .aggregate(["l_returnflag"],
                       [AggSpec("sum", "l_extendedprice", "revenue"),
                        AggSpec("count", alias="n")]))


def _f4_query() -> Query:
    return (Query.scan("lineitem")
            .filter(col("l_quantity") > 10)
            .join(Query.scan("orders")
                  .filter(col("o_priority") <= 2),
                  "l_orderkey", "o_orderkey")
            .aggregate(["o_priority"],
                       [AggSpec("count", alias="n")]))


def _f5_query() -> Query:
    return (Query.scan("uniform")
            .filter(col("k0") < 25)
            .sort(["k0", "k1"])
            .limit(100))


def _f6_query() -> Query:
    return (Query.scan("lineitem")
            .filter(col("l_shipdate").between(8500, 8800))
            .join(Query.scan("orders")
                  .filter(col("o_priority") <= 2),
                  "l_orderkey", "o_orderkey")
            .aggregate(["o_priority"],
                       [AggSpec("sum", "l_extendedprice", "rev"),
                        AggSpec("count", alias="n")]))


SCENARIOS: dict[str, Scenario] = {
    "f1": Scenario(
        "f1", "conventional data path (Figure 1 node, CPU-only)",
        conventional_spec, _f1_query, placement="cpu"),
    "f2": Scenario(
        "f2", "storage pushdown of selection/projection",
        dataflow_spec, _f2_query, placement="pushdown"),
    "f3": Scenario(
        "f3", "staged group-by pipeline across NICs",
        dataflow_spec, _f3_query),
    "f4": Scenario(
        "f4", "distributed join fabric (two compute nodes)",
        lambda: dataflow_spec(compute_nodes=2), _f4_query),
    "f5": Scenario(
        "f5", "near-memory filter / sort / limit",
        dataflow_spec, _f5_query),
    # 25 Gb/s keeps the network on the critical path next to the SSD
    # (at 100 Gb/s storage drowns it); the host-attached GPU exists
    # but the plan never routes through it — the guaranteed off-path
    # resource the acceptance tests check for.
    "f6": Scenario(
        "f6", "full pipeline storage->cores (25 Gb/s net, idle GPU)",
        lambda: dataflow_spec(gpu="host", network_gbits=25.0),
        _f6_query),
}


@dataclass
class ScenarioRun:
    """A completed scenario execution plus its fabric/trace handles."""

    scenario: Scenario
    engine: str
    rows: int
    fabric: HeterogeneousFabric
    result: QueryResult
    perturbations: tuple = ()
    _attribution: Optional[Attribution] = field(default=None,
                                                repr=False)

    def attribution(self) -> Attribution:
        """Exact critical-path attribution of the query window."""
        if self._attribution is None:
            self._attribution = attribute_query(self.fabric.trace,
                                                self.result)
        return self._attribution

    def digest(self) -> str:
        return run_digest(self)


def _make_placement(policy: str, query: Query,
                    fabric: HeterogeneousFabric, catalog: Catalog):
    if policy == "cpu":
        return cpu_only(query.plan, fabric)
    if policy == "pushdown":
        return pushdown(query.plan, fabric)
    if policy == "optimize":
        from ..optimizer import Optimizer
        return Optimizer(fabric, catalog).optimize(query).placement
    raise ValueError(f"unknown placement policy {policy!r}")


def run_scenario(name: str, engine: str = "dataflow",
                 rows: Optional[int] = None,
                 perturbations: tuple = ()) -> ScenarioRun:
    """Run one figure scenario, optionally on perturbed hardware.

    ``perturbations`` is a sequence of ``(resource, raw_factor)``
    pairs applied to the fabric *before* execution (see
    :meth:`HeterogeneousFabric.apply_perturbation`).  The placement is
    always chosen on an *unperturbed* twin fabric, so a perturbation
    answers the causal question "same plan, different hardware" —
    plan changes never masquerade as hardware sensitivity.
    """
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r} "
                       f"(have: {sorted(SCENARIOS)})")
    scenario = SCENARIOS[name]
    if engine not in ("dataflow", "volcano"):
        raise ValueError(f"unknown engine {engine!r}")
    rows = rows if rows is not None else scenario.rows
    catalog = standard_catalog(rows)
    query = scenario.query()

    fabric = build_fabric(scenario.spec())
    for resource, factor in perturbations:
        fabric.apply_perturbation(resource, factor)

    if engine == "volcano":
        result = VolcanoEngine(fabric, catalog).execute(query)
    else:
        placement_fabric = build_fabric(scenario.spec())
        placement = _make_placement(scenario.placement, query,
                                    placement_fabric, catalog)
        result = DataflowEngine(fabric, catalog).execute(
            query, placement=placement)
    return ScenarioRun(scenario=scenario, engine=engine, rows=rows,
                       fabric=fabric, result=result,
                       perturbations=tuple(perturbations))


def run_digest(run: ScenarioRun) -> str:
    """SHA-256 over the run's full event order, timing, and answer.

    ``repr`` round-trips floats exactly, so two runs digest equal iff
    every event timestamp, ordering, duration and byte count — and the
    result checksum and elapsed time — are bit-identical.  This is the
    what-if engine's baseline-identity check.
    """
    h = hashlib.sha256()
    for event in run.fabric.trace.events:
        h.update(repr((event.ts, event.kind, event.actor, event.label,
                       event.nbytes, event.dur,
                       event.flow_id)).encode())
        h.update(b"\x1e")
    h.update(repr(run.result.elapsed).encode())
    h.update(run.result.checksum().encode())
    return h.hexdigest()
