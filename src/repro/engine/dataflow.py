"""The push-based data-flow engine — the paper's proposed architecture.

``DataflowEngine.compile`` turns a logical plan plus a
:class:`~repro.engine.placement.Placement` into a
:class:`~repro.flow.stages.StageGraph` in two steps.  A
:class:`PipelineRecipe` holds everything that depends only on (plan,
placement, catalog version, fabric, engine options): operators become
stages pinned to fabric sites (storage CU, NICs, near-memory
accelerator, CPU), consecutive operators at the same site fuse into
one stage, and credit-controlled channels carry chunks across the
fabric between them.  Instantiating it installs the pipeline for one
query: fresh operators, stages and channels under that query's name.
A one-shot query does both once; the serving executor, which runs a
placement again and again, hands the recipe back and only instantiates
(§7.1–§7.2: install the pipeline, then let data flow).  ``execute``
runs the graph and reports the same
:class:`~repro.engine.results.QueryResult` the Volcano engine does.

Joins compile to a build stage (drained first) and a probe stage that
``depends_on`` it.  With ``placement.partitions > 1`` the join becomes
the scattering pipeline of Figure 4: SmartNIC partition stages fan
both sides out to per-node build/probe stages, and the probe outputs
gather at the result site — the CPU orchestrates nothing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

from ..hardware.presets import HeterogeneousFabric
from ..relational.catalog import Catalog
from ..relational.table import Table
from ..sim import EventKind
from ..flow.stages import FlowResult, StageGraph
from .logical import (
    Aggregate,
    Filter,
    Join,
    Limit,
    Map,
    PlanNode,
    Project,
    Query,
    Scan,
    Sort,
)
from .operators import (
    FilterOp,
    HashJoinBuild,
    HashJoinProbe,
    JoinState,
    LimitOp,
    MapOp,
    MergeAggregate,
    MergeRuns,
    PartialAggregate,
    PartitionOp,
    PhysicalOp,
    ProjectOp,
    SortOp,
    SortRuns,
    partial_state_schema,
)
from .placement import Placement, pushdown
from .results import QueryResult, TraceSnapshot

__all__ = ["DataflowEngine", "PipelineRecipe"]


@dataclass
class _StageSpec:
    """One stage of a recipe: where it runs and how to build its ops."""

    name: str
    #: Fabric site, or None for a scan source (at the storage location).
    site: Optional[str]
    #: Operator factories, called per instance with its join states:
    #: operators are built, never copied, so no state outlives a query.
    make_ops: list[Callable[[dict], PhysicalOp]]
    router: str = "single"
    depends_on: tuple[str, ...] = ()     # stage names
    #: Sources only: the catalog table (looked up per instance) and
    #: the chunk indices its zone map refuted.
    table: str = ""
    pruned: frozenset = frozenset()
    is_sink: bool = False


def _make(cls, *args, **kwargs) -> Callable[[dict], PhysicalOp]:
    """A factory for an operator that takes no join state."""
    return lambda _states: cls(*args, **kwargs)


class PipelineRecipe:
    """What compiling derives from (plan, placement, catalog version,
    fabric, engine options), kept apart from what is made per query.

    Construction walks the plan once into stage specs, channel specs
    and the output schema; :meth:`instantiate` builds a stage graph
    from them with fresh operators, stages, channels and per-query
    names, so two instances share nothing mutable.  A recipe holds site
    names and table names — never a device, a link, a rate or a chunk
    — so the next instance runs on the fabric and catalog as they are
    then, what-if perturbations included.
    """

    def __init__(self, engine: "DataflowEngine", plan: PlanNode,
                 placement: Placement):
        placement.validate(plan, engine.fabric)
        self.plan = plan
        self.placement = placement
        self.derived_from = engine._recipe_stamp()
        self.output_schema = plan.output_schema(engine.catalog)
        self.stages: list[_StageSpec] = []
        #: (source stage, destination stage, whether the engine's CPU
        #: mediator applies) per channel.
        self.channels: list[tuple[str, str, bool]] = []
        # Walk state, dropped below: a recipe must not keep the engine alive.
        self._engine = engine
        self._catalog = engine.catalog
        self._fusable: set[str] = set()   # stages safe to append ops to
        self._joins = 0
        # Gather at the result site and collect.
        tail = self._extend(self._build(plan), placement.result_site, [],
                            "gather")
        tail[0].is_sink = True
        del self._engine, self._catalog, self._fusable

    # -- fusion-aware stage extension ----------------------------------------

    def _stage(self, hint: str, site: Optional[str], make_ops,
               **fields) -> _StageSpec:
        stage = _StageSpec(f"{hint}{len(self.stages) + 1}", site,
                           list(make_ops), **fields)
        self.stages.append(stage)
        return stage

    def _extend(self, branches: list[_StageSpec], site: str,
                make_ops: list, hint: str, router: str = "single",
                depends_on: tuple = ()) -> list[_StageSpec]:
        """Continue the pipeline at ``site`` with ``make_ops``.

        Fuses into the tail stage when it sits at the same site and is
        still open; otherwise creates a new stage fed by all branches.
        """
        if (len(branches) == 1 and not depends_on
                and branches[0].name in self._fusable
                and branches[0].site == site
                and branches[0].router == "single"):
            branches[0].make_ops.extend(make_ops)
            if router != "single":
                branches[0].router = router
                self._fusable.discard(branches[0].name)
            return branches
        stage = self._stage(hint, site, make_ops, router=router,
                            depends_on=depends_on)
        for branch in branches:
            self.channels.append((branch.name, stage.name, True))
            self._fusable.discard(branch.name)
        if router == "single":
            self._fusable.add(stage.name)
        return [stage]

    # -- node compilation ----------------------------------------------------

    def _build(self, node: PlanNode) -> list[_StageSpec]:
        site = self.placement.site
        if isinstance(node, Scan):
            return self._build_scan(node)
        if isinstance(node, Filter):
            if self._engine.use_zonemaps and isinstance(node.child, Scan):
                branches = self._build_scan(node.child,
                                            predicate=node.predicate)
            else:
                branches = self._build(node.child)
            return self._extend(branches, site(node),
                                [_make(FilterOp, node.predicate)], "filter")
        if isinstance(node, Project):
            return self._extend(self._build(node.child), site(node),
                                [_make(ProjectOp, node.columns)], "project")
        if isinstance(node, Map):
            return self._extend(
                self._build(node.child), site(node),
                [_make(MapOp, node.exprs,
                       node.output_schema(self._catalog))], "map")
        if isinstance(node, Limit):
            return self._extend(self._build(node.child), site(node),
                                [_make(LimitOp, node.n)], "limit")
        if isinstance(node, Aggregate):
            return self._build_aggregate(node)
        if isinstance(node, Sort):
            branches = self._build(node.child)
            chain = self.placement.chain(node)
            if len(chain) > 1:
                # Pre-sorted runs at the early site, linear merge at
                # the final one (§3.3 pre-sorting pushdown).
                branches = self._extend(branches, chain[0],
                                        [_make(SortRuns, node.keys)],
                                        "sort_runs")
                return self._extend(branches, chain[-1],
                                    [_make(MergeRuns, node.keys)],
                                    "merge_runs")
            return self._extend(branches, chain[0],
                                [_make(SortOp, node.keys)], "sort")
        if isinstance(node, Join):
            return self._build_join(node)
        raise TypeError(f"unsupported plan node {node!r}")

    def _build_scan(self, node: Scan, predicate=None) -> list[_StageSpec]:
        self._catalog.table(node.table)      # an unknown table fails here
        pruned = frozenset()
        if predicate is not None:
            # Zone-map pruning (§2.1): drop chunks whose bounds refute
            # the predicate before they are ever read off the medium.
            from ..relational.zonemaps import prunable_chunks
            pruned = frozenset(prunable_chunks(
                self._catalog.zonemap(node.table), predicate))
        branches = [self._stage("scan", None, [], table=node.table,
                                pruned=pruned)]
        if node.columns is not None:
            # Early projection runs at the scan's placed site.
            branches = self._extend(branches, self.placement.site(node),
                                    [_make(ProjectOp, node.columns)],
                                    "scan_project")
        return branches

    def _build_aggregate(self, node: Aggregate) -> list[_StageSpec]:
        branches = self._build(node.child)
        chain = self.placement.chain(node)
        args = (node.child.output_schema(self._catalog), node.group_by,
                node.aggs)
        state_schema = partial_state_schema(*args)
        # Partial at the first site.
        branches = self._extend(
            branches, chain[0],
            [_make(PartialAggregate, *args, state_schema=state_schema)],
            "agg_partial")
        # Merge at the middle sites (the staged group-by of §4.4).
        for site in chain[1:-1]:
            branches = self._extend(
                branches, site,
                [_make(MergeAggregate, *args, state_schema=state_schema)],
                "agg_merge")
        # Final, stateful merge at the last site.
        return self._extend(
            branches, chain[-1],
            [_make(MergeAggregate, *args, state_schema=state_schema,
                   final=True,
                   output_schema=node.output_schema(self._catalog))],
            "agg_final")

    def _join_ops(self, node: Join) -> tuple[Callable, Callable]:
        """Build and probe factories sharing one per-instance state."""
        slot = self._joins
        self._joins += 1
        right_schema = node.right.output_schema(self._catalog)
        rename = {name: node.right_output_name(name, self._catalog)
                  for name in right_schema.names}
        output_schema = node.output_schema(self._catalog)
        return (lambda states: HashJoinBuild(node.right_key, states[slot]),
                lambda states: HashJoinProbe(node.left_key, states[slot],
                                             output_schema, rename))

    def _build_join(self, node: Join) -> list[_StageSpec]:
        if self.placement.partitions > 1:
            return self._build_partitioned_join(node)
        site = self.placement.site(node)
        make_build, make_probe = self._join_ops(node)
        build_stage = self._extend(self._build(node.right), site,
                                   [make_build], "join_build")[0]
        self._fusable.discard(build_stage.name)
        return self._extend(self._build(node.left), site, [make_probe],
                            "join_probe", depends_on=(build_stage.name,))

    def _build_partitioned_join(self, node: Join) -> list[_StageSpec]:
        """Figure 4: NIC-scattered, per-node partitioned hash join."""
        n = self.placement.partitions
        fabric = self._engine.fabric
        if len(fabric.compute) < n:
            raise ValueError(
                f"{n}-way join needs {n} compute nodes, fabric has "
                f"{len(fabric.compute)}")
        scatter_site = ("storage.nic" if fabric.has_site("storage.nic")
                        else self.placement.site(node))

        build_scatter = self._extend(
            self._build(node.right), scatter_site,
            [_make(PartitionOp, node.right_key, n)], "build_scatter",
            router="partition")[0]
        probe_scatter = self._extend(
            self._build(node.left), scatter_site,
            [_make(PartitionOp, node.left_key, n)], "probe_scatter",
            router="partition")[0]

        probe_stages = []
        for i in range(n):
            node_site = self.placement.site(node).replace(
                "compute0", f"compute{i}")
            make_build, make_probe = self._join_ops(node)
            # The scatter channels are never throttled or mediated.
            build_stage = self._stage(f"join_build_n{i}_", node_site,
                                      [make_build])
            self.channels.append(
                (build_scatter.name, build_stage.name, False))
            probe_stage = self._stage(f"join_probe_n{i}_", node_site,
                                      [make_probe],
                                      depends_on=(build_stage.name,))
            self.channels.append(
                (probe_scatter.name, probe_stage.name, False))
            probe_stages.append(probe_stage)
        return probe_stages

    # -- per query -----------------------------------------------------------

    def instantiate(self, engine: "DataflowEngine", name: str,
                    qid: int = 0) -> StageGraph:
        """A fresh, unstarted stage graph called ``name``."""
        fabric, catalog = engine.fabric, engine.catalog
        graph = StageGraph(fabric, name=name,
                           default_credits=engine.default_credits, qid=qid)
        graph.recipe = self
        states: dict = defaultdict(JoinState)
        stages = graph.stages
        for spec in self.stages:
            if spec.site is None:
                if spec.pruned:
                    fabric.trace.add("zonemap.pruned_chunks",
                                     len(spec.pruned))
                graph.source(spec.name, catalog.table(spec.table),
                             medium=fabric.storage.medium, skip=spec.pruned)
                continue
            graph.stage(
                spec.name, spec.site,
                [make(states) for make in spec.make_ops], router=spec.router,
                depends_on=[stages[dep].done for dep in spec.depends_on],
                is_sink=spec.is_sink)
        for src, dst, controlled in self.channels:
            graph.connect(
                stages[src], stages[dst], credits=engine.default_credits,
                cpu_mediator=engine.cpu_mediator if controlled else None)
        return graph

    def result_table(self, graph: StageGraph) -> Table:
        """What the sinks of a finished instance collected."""
        table = Table(self.output_schema)
        for stage in graph.stages.values():
            if stage.is_sink:
                for chunk in stage.collected:
                    table.append(chunk)
        return table


class DataflowEngine:
    """Compile-and-run interface for the data-flow architecture."""

    def __init__(self, fabric: HeterogeneousFabric, catalog: Catalog,
                 default_credits: int = 8,
                 cpu_mediated: bool = False,
                 use_zonemaps: bool = False):
        self.fabric = fabric
        self.catalog = catalog
        self.default_credits = default_credits
        self.use_zonemaps = use_zonemaps
        # Ablation A2: route every hop through the host CPU instead of
        # letting DMA engines move the data.
        self.cpu_mediator = (fabric.site_device(fabric.cpu_site(0))
                             if cpu_mediated else None)
        self._graph_counter = 0

    def _recipe_stamp(self) -> tuple:
        """Everything but (plan, placement) a recipe depends on."""
        return (self.fabric, self.catalog, self.catalog.version,
                self.default_credits, self.use_zonemaps,
                self.cpu_mediator is not None)

    def compile(self, plan, placement: Optional[Placement] = None,
                name: str = "", qid: int = 0,
                recipe: Optional[PipelineRecipe] = None) -> StageGraph:
        """Build the stage graph for ``plan`` without running it.

        Recipe, then instantiate: the graph is an instance of a
        :class:`PipelineRecipe` (``graph.recipe``).  A caller running
        the same (plan, placement) again passes that recipe back and
        skips the plan walk; one derived from another plan, placement,
        catalog version, fabric or engine option is never used.

        ``qid`` carries the serving query context (0 outside serving)
        into the stage graph, so every event the query's processes
        emit is attributable to its tenant.
        """
        if isinstance(plan, Query):
            plan = plan.plan
        if placement is None:
            placement = pushdown(plan, self.fabric)
        if (recipe is None or recipe.plan is not plan
                or recipe.placement is not placement
                or recipe.derived_from != self._recipe_stamp()):
            recipe = PipelineRecipe(self, plan, placement)
        self._graph_counter += 1
        return recipe.instantiate(
            self, name or f"df{self._graph_counter}", qid)

    def execute(self, plan, placement: Optional[Placement] = None,
                name: str = "") -> QueryResult:
        """Compile, run to completion, and package the result."""
        trace = self.fabric.trace
        snapshot = TraceSnapshot(trace)
        started = self.fabric.sim.now
        span = trace.open_span("query.dataflow", started)
        graph = self.compile(plan, placement, name=name)
        trace.emit(started, EventKind.OP_OPEN, "query.dataflow",
                   label=graph.name)
        flow: FlowResult = graph.run()
        trace.close_span(span, self.fabric.sim.now)
        trace.emit(self.fabric.sim.now, EventKind.OP_CLOSE,
                   "query.dataflow", label=graph.name)
        table = graph.recipe.result_table(graph)
        trace.add("engine.dataflow.queries", 1)
        trace.add("engine.dataflow.stages", len(graph.stages))
        trace.add("engine.dataflow.rows_out", table.num_rows)
        return QueryResult(
            table=table,
            elapsed=flow.elapsed,
            engine="dataflow",
            movement=snapshot.delta_prefix("movement."),
            counters=snapshot.delta_prefix(""),
            utilization=snapshot.utilization_delta(
                flow.elapsed, self.fabric.device_slots()),
            started_at=flow.started_at,
            finished_at=flow.finished_at,
        )
