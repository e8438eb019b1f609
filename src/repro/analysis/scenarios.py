"""The query catalog and the six figure scenarios (F1–F6).

:data:`QUERIES` holds every named query shape the product runs — the
paper's selection/projection, group-by, join and sort/limit classes —
as factories: the figure scenarios, the bench smoke and scale tiers,
the serving templates and the CLI demo look shapes up here by name.

Each scenario is a small, deterministic rendition of one of the
paper's figure experiments — the same query shapes as the
``repro.experiments`` F1-F6 modules, scaled down so the what-if engine
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
from typing import TYPE_CHECKING, Callable, Optional

from ..engine import (
    AggSpec,
    DataflowEngine,
    Query,
    VolcanoEngine,
    place,
)
from ..engine.results import QueryResult
from ..hardware import build_fabric, conventional_spec, dataflow_spec
from ..hardware.presets import FabricSpec, HeterogeneousFabric
from ..obs import table_checksum
from ..relational import Catalog, col, standard_catalog

if TYPE_CHECKING:
    from .critical_path import Attribution

__all__ = ["QUERIES", "Scenario", "ScenarioRun", "SCENARIOS",
           "figure_scenario", "run_scenario", "run_digest",
           "assert_drained", "oracle_checksum"]

#: Catalog rows a figure scenario runs at unless the caller gives rows.
SCENARIO_ROWS = 3000


def _urgent_orders() -> Query:
    """The build side every join shape shares."""
    return Query.scan("orders").filter(col("o_priority") <= 2)


def _revenue(alias: str) -> AggSpec:
    return AggSpec("sum", "l_extendedprice", alias)


_COUNT = AggSpec("count", alias="n")

QUERIES: dict[str, Callable[[], Query]] = {
    # The figure shapes (F1–F6).
    "f1": lambda: (Query.scan("lineitem")
                   .filter(col("l_quantity") > 30)
                   .aggregate(["l_returnflag"], [_COUNT])),
    "f2": lambda: (Query.scan("lineitem")
                   .filter(col("l_quantity") > 40)
                   .project(["l_orderkey", "l_extendedprice"])),
    "f3": lambda: (Query.scan("lineitem")
                   .filter(col("l_shipdate").between(8500, 10500))
                   .aggregate(["l_returnflag"],
                              [_revenue("revenue"), _COUNT])),
    "f4": lambda: (Query.scan("lineitem")
                   .filter(col("l_quantity") > 10)
                   .join(_urgent_orders(), "l_orderkey", "o_orderkey")
                   .aggregate(["o_priority"], [_COUNT])),
    "f5": lambda: (Query.scan("uniform")
                   .filter(col("k0") < 25)
                   .sort(["k0", "k1"])
                   .limit(100)),
    "f6": lambda: (Query.scan("lineitem")
                   .filter(col("l_shipdate").between(8500, 8800))
                   .join(_urgent_orders(), "l_orderkey", "o_orderkey")
                   .aggregate(["o_priority"],
                              [_revenue("rev"), _COUNT])),
    # F4's join summing revenue (smoke, scale and serving).
    "join_agg": lambda: (Query.scan("lineitem")
                         .filter(col("l_quantity") > 10)
                         .join(_urgent_orders(), "l_orderkey",
                               "o_orderkey")
                         .aggregate(["o_priority"], [_revenue("rev")])),
    # F2 selecting half as many rows (the 100k-row scale tier).
    "f2_narrow": lambda: (Query.scan("lineitem")
                          .filter(col("l_quantity") > 45)
                          .project(["l_orderkey", "l_extendedprice"])),
    # ``repro demo`` / ``repro trace``.
    "demo": lambda: (Query.scan("lineitem")
                     .filter(col("l_quantity") > 45)
                     .aggregate(["l_returnflag"], [_revenue("revenue")])),
    # The hot serving template: a scalar count.
    "count_hot": lambda: (Query.scan("uniform")
                          .filter(col("k0") < 5)
                          .aggregate([], [_COUNT])),
    # The bench scheduler mix.
    "q_filter": lambda: (Query.scan("lineitem")
                         .filter(col("l_quantity") > 40)
                         .project(["l_orderkey"])),
    "q_agg": lambda: (Query.scan("lineitem")
                      .aggregate(["l_returnflag"], [_COUNT])),
    "q_sort": lambda: (Query.scan("uniform")
                       .filter(col("k0") < 20)
                       .sort(["k0"])
                       .limit(50)),
}
"""Every named query shape: name -> a factory of fresh instances."""


@dataclass
class Scenario:
    """One figure experiment, runnable on either engine."""

    name: str
    title: str
    spec: Callable[[], FabricSpec]
    placement: str = "optimize"     # a POLICIES name

    def query(self) -> Query:
        """A fresh instance of the scenario's shape (``QUERIES[name]``)."""
        return QUERIES[self.name]()


SCENARIOS: dict[str, Scenario] = {
    "f1": Scenario(
        "f1", "conventional data path (Figure 1 node, CPU-only)",
        conventional_spec, placement="cpu"),
    "f2": Scenario(
        "f2", "storage pushdown of selection/projection",
        dataflow_spec, placement="pushdown"),
    "f3": Scenario(
        "f3", "staged group-by pipeline across NICs", dataflow_spec),
    "f4": Scenario(
        "f4", "distributed join fabric (two compute nodes)",
        lambda: dataflow_spec(compute_nodes=2)),
    "f5": Scenario(
        "f5", "near-memory filter / sort / limit", dataflow_spec),
    # 25 Gb/s keeps the network on the critical path next to the SSD
    # (at 100 Gb/s storage drowns it); the host-attached GPU exists
    # but the plan never routes through it — the guaranteed off-path
    # resource the acceptance tests check for.
    "f6": Scenario(
        "f6", "full pipeline storage->cores (25 Gb/s net, idle GPU)",
        lambda: dataflow_spec(gpu="host", network_gbits=25.0)),
}


def figure_scenario(name: str) -> Scenario:
    """``SCENARIOS[name]``; an unknown name is a ``KeyError`` naming
    every known one."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown query {name!r} "
                       f"(have: {sorted(SCENARIOS)})") from None


def assert_drained(sim, scenario: str) -> None:
    """Fail loudly if a scenario's simulator did not drain.

    After a run completes there must be nothing left in the event
    queues — a pending event means a process, callback, or credit
    return leaked past the end of the workload, which the fast flow
    paths could otherwise hide.
    """
    pending = sim.pending_events
    if pending:
        raise AssertionError(
            f"scenario {scenario!r} leaked {pending} pending "
            "simulator event(s) after completion")


def oracle_checksum(query: Query, catalog: Catalog,
                    scenario: str) -> str:
    """The standalone answer: Volcano on a fresh data-flow fabric."""
    fabric = build_fabric(dataflow_spec())
    result = VolcanoEngine(fabric, catalog).execute(query)
    assert_drained(fabric.sim, scenario)
    return table_checksum(result.table)


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
            from .critical_path import attribute_query
            self._attribution = attribute_query(self.fabric.trace,
                                                self.result)
        return self._attribution

    def digest(self) -> str:
        return run_digest(self)


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
    scenario = figure_scenario(name)
    if engine not in ("dataflow", "volcano"):
        raise ValueError(f"unknown engine {engine!r}")
    rows = rows if rows is not None else SCENARIO_ROWS
    catalog = standard_catalog(rows)
    query = scenario.query()

    fabric = build_fabric(scenario.spec())
    for resource, factor in perturbations:
        fabric.apply_perturbation(resource, factor)

    if engine == "volcano":
        result = VolcanoEngine(fabric, catalog).execute(query)
    else:
        placement_fabric = build_fabric(scenario.spec())
        placement = place(scenario.placement, query,
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
