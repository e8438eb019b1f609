"""The query scheduler: plan-variant choice under interference (§7.3).

Queries arrive over time and run *concurrently* on one shared fabric.
For each arriving query the scheduler holds the variant set the
optimizer produced (§7.3's first requirement: "plans should contain
several data path alternatives") and picks the one minimizing the
interference score against the currently running mix.

§7.3's second lever, dynamically rate-limiting DMA, is not modelled:
splitting the network among the active queries only restates the cap
credit-based back-pressure already enforces, so such a limiter never
throttled a chunk.

Policies:

* ``greedy`` — everyone gets the best (full-offload) plan: the naive
  baseline that interferes with itself.
* ``interference`` — variant choice by interference score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..engine.dataflow import DataflowEngine
from ..engine.logical import Query
from ..hardware.presets import HeterogeneousFabric
from ..optimizer.optimizer import Optimizer, RankedPlacement
from ..relational.catalog import Catalog
from ..relational.table import Table
from .interference import LoadTracker, demand_vector

__all__ = ["QueryExecutor", "Scheduler", "ScheduledQuery",
           "VariantDecision"]

POLICIES = ("greedy", "interference")


@dataclass(frozen=True)
class VariantDecision:
    """Why the policy picked one plan variant over the others.

    Captured at pick time so the observatory can later score the
    *chosen* variant against the alternatives on the observed fabric
    state (placement regret) without re-running the policy.
    ``considered`` holds ``(placement_name, bottleneck_s, score)``
    per candidate — ``score`` is ``None`` when the policy short-
    circuited (greedy, or a single-variant set).
    """

    chosen: str
    considered: tuple[tuple[str, float, Optional[float]], ...]


@dataclass
class ScheduledQuery:
    """Record of one query's trip through the scheduler."""

    name: str
    arrival: float
    started: float = 0.0
    finished: float = 0.0
    variant_name: str = ""
    table: Optional[Table] = None

    @property
    def latency(self) -> float:
        return self.finished - self.arrival


@dataclass
class _Job:
    name: str
    query: Query
    arrival: float
    variants: list[RankedPlacement] = field(default_factory=list)


class QueryExecutor:
    """The incremental execution core behind scheduling and serving.

    Owns the policy decision one concurrent query needs — variant
    choice by interference score — plus the simulation process that
    runs one placed query on the shared fabric.  :class:`Scheduler`
    drives it in batch mode (submit everything, then run); the query
    server (:mod:`repro.serve`) drives it incrementally while the
    simulator is already advancing.
    """

    def __init__(self, fabric: HeterogeneousFabric, catalog: Catalog,
                 policy: str = "interference",
                 variants_per_query: int = 3):
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r} (have {POLICIES})")
        if variants_per_query < 1:
            raise ValueError(f"variants_per_query must be >= 1, "
                             f"got {variants_per_query}")
        self.fabric = fabric
        self.catalog = catalog
        self.policy = policy
        self.variants_per_query = variants_per_query
        self.optimizer = Optimizer(fabric, catalog)
        self.tracker = LoadTracker()
        #: Most recent variant decision per query name, recorded by
        #: :meth:`execute` for observers (pure bookkeeping — never
        #: read by the policy itself).  The query server pops
        #: entries at completion so the dict stays bounded.
        self.decisions: dict[str, VariantDecision] = {}

    # -- planning -----------------------------------------------------------

    def plan_variants(self, query: Query) -> list[RankedPlacement]:
        """The diverse variant set the policy picks from at runtime."""
        return self.optimizer.plan_variants(
            query, n=self.variants_per_query)

    def _pick_scored(self, variants: list[RankedPlacement]
                     ) -> tuple[RankedPlacement, VariantDecision]:
        """The pick plus a :class:`VariantDecision` audit record."""
        if self.policy == "greedy" or len(variants) == 1:
            chosen = variants[0]
            decision = VariantDecision(
                chosen=chosen.placement.name,
                considered=tuple(
                    (v.placement.name, v.cost.bottleneck_time, None)
                    for v in variants))
            return chosen, decision
        scored = []
        for variant in variants:
            vector = demand_vector(variant.cost)
            projected = self.tracker.interference_score(vector)
            # Balance projected contention against the variant's own
            # solo quality so a terrible plan is not chosen just
            # because it is idle.
            scored.append((projected + variant.cost.bottleneck_time,
                           variant))
        scored.sort(key=lambda pair: pair[0])
        chosen = scored[0][1]
        decision = VariantDecision(
            chosen=chosen.placement.name,
            considered=tuple(
                (v.placement.name, v.cost.bottleneck_time, score)
                for score, v in scored))
        return chosen, decision

    # -- execution ----------------------------------------------------------

    def execute(self, name: str, query: Query,
                variants: list[RankedPlacement],
                record: ScheduledQuery, qid: int = 0):
        """Simulation process: run one query on the shared fabric.

        Picks a variant against the *current* mix, admits it to the
        load tracker, runs the compiled stage graph, and fills in
        ``record`` (started/finished/variant/table) as it goes.
        ``qid`` is the serving trace context (0 in batch mode) —
        passed through to the stage graph so the query's events are
        tenant-attributable.  Generator — start it with
        ``sim.process``/yield from.
        """
        sim = self.fabric.sim
        trace = self.fabric.trace
        variant, decision = self._pick_scored(variants)
        self.decisions[name] = decision
        record.variant_name = variant.placement.name
        record.started = sim.now
        self.tracker.admit(name, demand_vector(variant.cost))
        span = trace.open_span(f"sched.query.{name}", sim.now)
        trace.add("sched.admitted", 1)
        trace.sample("sched.active", sim.now,
                     len(self.tracker.active_jobs))

        engine = DataflowEngine(self.fabric, self.catalog)
        # The recipe stays beside the variant: the next query that
        # picks it instantiates the pipeline instead of re-deriving it.
        graph = engine.compile(query, variant.placement, name=name,
                               qid=qid, recipe=variant.recipe)
        variant.recipe = graph.recipe
        graph.start()
        yield sim.all_of([s.done for s in graph.stages.values()])

        record.finished = sim.now
        trace.close_span(span, sim.now)
        trace.add("sched.completed", 1)
        record.table = graph.recipe.result_table(graph)
        self.tracker.release(name)
        trace.sample("sched.active", sim.now,
                     len(self.tracker.active_jobs))


class Scheduler:
    """Admits queries onto a shared fabric with interference control."""

    def __init__(self, fabric: HeterogeneousFabric, catalog: Catalog,
                 policy: str = "interference",
                 variants_per_query: int = 3):
        self.executor = QueryExecutor(
            fabric, catalog, policy=policy,
            variants_per_query=variants_per_query)
        self.fabric = fabric
        self.catalog = catalog
        self.policy = policy
        self.variants_per_query = variants_per_query
        self._jobs: list[_Job] = []
        self.records: dict[str, ScheduledQuery] = {}

    # -- submission ---------------------------------------------------------

    def submit(self, name: str, query: Query,
               arrival: float = 0.0) -> None:
        """Queue a query to start at simulated time ``arrival``."""
        if any(j.name == name for j in self._jobs):
            raise ValueError(f"duplicate job name {name!r}")
        if not (math.isfinite(arrival) and arrival >= 0):
            raise ValueError(f"query {name!r}: arrival must be a finite "
                             f"time >= 0, got {arrival}")
        variants = self.executor.plan_variants(query)
        self._jobs.append(_Job(name, query, arrival, variants))

    # -- execution ---------------------------------------------------------

    def _job_process(self, job: _Job):
        sim = self.fabric.sim
        record = self.records[job.name]
        if job.arrival > sim.now:
            yield sim.timeout(job.arrival - sim.now)
        yield from self.executor.execute(job.name, job.query,
                                         job.variants, record)

    def run(self) -> list[ScheduledQuery]:
        """Run all submitted queries to completion; returns records."""
        if not self._jobs:
            return []
        for job in self._jobs:
            self.records[job.name] = ScheduledQuery(job.name, job.arrival)
            self.fabric.sim.process(self._job_process(job),
                                    name=f"sched.{job.name}")
        self.fabric.run()
        unfinished = [r.name for r in self.records.values()
                      if r.table is None]
        if unfinished:
            raise RuntimeError(f"queries never finished: {unfinished}")
        self._jobs = []
        return [self.records[name] for name in sorted(self.records)]

    # -- reporting ---------------------------------------------------------

    def makespan(self) -> float:
        """Time from first arrival to last completion (0 if none ran)."""
        records = list(self.records.values())
        if not records:
            return 0.0
        return (max(r.finished for r in records)
                - min(r.arrival for r in records))
