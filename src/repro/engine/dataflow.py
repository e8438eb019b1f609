"""The push-based data-flow engine — the paper's proposed architecture.

``DataflowEngine.compile`` turns a logical plan plus a
:class:`~repro.engine.placement.Placement` into a
:class:`~repro.flow.stages.StageGraph`: operators become stages pinned
to fabric sites (storage CU, NICs, near-memory accelerator, CPU),
consecutive operators at the same site fuse into one stage, and
credit-controlled channels carry chunks across the fabric between
them.  ``execute`` runs the graph and reports the same
:class:`~repro.engine.results.QueryResult` the Volcano engine does.

Joins compile to a build stage (drained first) and a probe stage that
``depends_on`` it.  With ``placement.partitions > 1`` the join becomes
the scattering pipeline of Figure 4: SmartNIC partition stages fan
both sides out to per-node build/probe stages, and the probe outputs
gather at the result site — the CPU orchestrates nothing.
"""

from __future__ import annotations

from typing import Optional

from ..hardware.presets import HeterogeneousFabric
from ..relational.catalog import Catalog
from ..relational.table import Table
from ..sim import EventKind
from ..flow.ratelimit import RateLimiter
from ..flow.stages import FlowResult, Stage, StageGraph
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
)
from .fusion import fuse_ops, fusion_enabled
from .placement import Placement, pushdown
from .results import QueryResult, TraceSnapshot

__all__ = ["DataflowEngine"]


class _Compiler:
    """One compilation: tracks the graph and fusion state."""

    def __init__(self, engine: "DataflowEngine", graph: StageGraph,
                 placement: Placement):
        self.engine = engine
        self.graph = graph
        self.placement = placement
        self.fabric = engine.fabric
        self.catalog = engine.catalog
        self._counter = 0
        self._fusable: set[str] = set()   # stages safe to append ops to

    def _name(self, hint: str) -> str:
        self._counter += 1
        return f"{hint}{self._counter}"

    # -- fusion-aware stage extension ----------------------------------------

    def extend(self, branches: list[Stage], site: str,
               ops: list[PhysicalOp], hint: str,
               router: str = "single",
               depends_on: tuple = ()) -> list[Stage]:
        """Continue the pipeline at ``site`` with ``ops``.

        Fuses into the tail stage when it sits at the same site and is
        still open; otherwise creates a new stage fed by all branches.
        """
        if (len(branches) == 1 and not depends_on
                and branches[0].name in self._fusable
                and self._site_of(branches[0]) == site
                and branches[0].router == "single"):
            branches[0].ops.extend(ops)
            if router != "single":
                branches[0].router = router
                self._fusable.discard(branches[0].name)
            return branches
        stage = self.graph.stage(self._name(hint), site, ops,
                                 router=router, depends_on=depends_on)
        for branch in branches:
            self.graph.connect(branch, stage,
                               credits=self.engine.default_credits,
                               rate_limiter=self.engine.rate_limiter,
                               cpu_mediator=self.engine.cpu_mediator)
            self._fusable.discard(branch.name)
        if router == "single":
            self._fusable.add(stage.name)
        return [stage]

    def _site_of(self, stage: Stage) -> Optional[str]:
        for site, device in self.fabric.sites.items():
            if device is stage.device:
                return site
        return None

    # -- node compilation ----------------------------------------------------

    def build(self, node: PlanNode) -> list[Stage]:
        if isinstance(node, Scan):
            return self._build_scan(node)
        if isinstance(node, Filter):
            if self.engine.use_zonemaps and isinstance(node.child, Scan):
                branches = self._build_scan(node.child,
                                            predicate=node.predicate)
            else:
                branches = self.build(node.child)
            return self.extend(branches, self.placement.site(node),
                               [FilterOp(node.predicate)], "filter")
        if isinstance(node, Project):
            branches = self.build(node.child)
            return self.extend(branches, self.placement.site(node),
                               [ProjectOp(node.columns)], "project")
        if isinstance(node, Map):
            branches = self.build(node.child)
            return self.extend(
                branches, self.placement.site(node),
                [MapOp(node.exprs, node.output_schema(self.catalog))],
                "map")
        if isinstance(node, Limit):
            branches = self.build(node.child)
            return self.extend(branches, self.placement.site(node),
                               [LimitOp(node.n)], "limit")
        if isinstance(node, Aggregate):
            return self._build_aggregate(node)
        if isinstance(node, Sort):
            branches = self.build(node.child)
            chain = self.placement.chain(node)
            if len(chain) > 1:
                # Pre-sorted runs at the early site, linear merge at
                # the final one (§3.3 pre-sorting pushdown).
                branches = self.extend(branches, chain[0],
                                       [SortRuns(node.keys)],
                                       "sort_runs")
                return self.extend(branches, chain[-1],
                                   [MergeRuns(node.keys)], "merge_runs")
            return self.extend(branches, chain[0],
                               [SortOp(node.keys)], "sort")
        if isinstance(node, Join):
            return self._build_join(node)
        raise TypeError(f"unsupported plan node {node!r}")

    def _build_scan(self, node: Scan, predicate=None) -> list[Stage]:
        table = self.catalog.table(node.table)
        if predicate is not None:
            # Zone-map pruning (§2.1): drop chunks whose bounds refute
            # the predicate before they are ever read off the medium.
            from ..relational.zonemaps import prunable_chunks
            zonemap = self.catalog.zonemap(node.table)
            skip = prunable_chunks(zonemap, predicate)
            if skip:
                kept = [c for i, c in enumerate(table.chunks)
                        if i not in skip]
                table = Table(table.schema, kept, name=table.name)
                self.fabric.trace.add("zonemap.pruned_chunks",
                                      len(skip))
        source = self.graph.source(self._name("scan"), table,
                                   medium=self.fabric.storage.medium)
        branches: list[Stage] = [source]
        if node.columns is not None:
            # Early projection runs at the scan's placed site.
            branches = self.extend(branches, self.placement.site(node),
                                   [ProjectOp(node.columns)],
                                   "scan_project")
        return branches

    def _build_aggregate(self, node: Aggregate) -> list[Stage]:
        branches = self.build(node.child)
        input_schema = node.child.output_schema(self.catalog)
        chain = self.placement.chain(node)
        output_schema = node.output_schema(self.catalog)
        # Partial at the first site.
        branches = self.extend(
            branches, chain[0],
            [PartialAggregate(input_schema, node.group_by, node.aggs)],
            "agg_partial")
        # Merge at the middle sites (the staged group-by of §4.4).
        for site in chain[1:-1]:
            branches = self.extend(
                branches, site,
                [MergeAggregate(input_schema, node.group_by, node.aggs)],
                "agg_merge")
        # Final, stateful merge at the last site.
        return self.extend(
            branches, chain[-1],
            [MergeAggregate(input_schema, node.group_by, node.aggs,
                            final=True, output_schema=output_schema)],
            "agg_final")

    def _build_join(self, node: Join) -> list[Stage]:
        if self.placement.partitions > 1:
            return self._build_partitioned_join(node)
        site = self.placement.site(node)
        state = JoinState()
        build_branches = self.build(node.right)
        build_stage = self.extend(
            build_branches, site, [HashJoinBuild(node.right_key, state)],
            "join_build")[0]
        self._fusable.discard(build_stage.name)
        probe_branches = self.build(node.left)
        probe_op = self._probe_op(node, state)
        return self.extend(probe_branches, site, [probe_op], "join_probe",
                           depends_on=(build_stage.done,))

    def _build_partitioned_join(self, node: Join) -> list[Stage]:
        """Figure 4: NIC-scattered, per-node partitioned hash join."""
        n = self.placement.partitions
        if len(self.fabric.compute) < n:
            raise ValueError(
                f"{n}-way join needs {n} compute nodes, fabric has "
                f"{len(self.fabric.compute)}")
        scatter_site = ("storage.nic" if self.fabric.has_site("storage.nic")
                        else self.placement.site(node))

        build_branches = self.build(node.right)
        build_scatter = self.extend(
            build_branches, scatter_site,
            [PartitionOp(node.right_key, n)], "build_scatter",
            router="partition")[0]
        probe_branches = self.build(node.left)
        probe_scatter = self.extend(
            probe_branches, scatter_site,
            [PartitionOp(node.left_key, n)], "probe_scatter",
            router="partition")[0]

        probe_stages = []
        for i in range(n):
            node_site = self.placement.site(node).replace(
                "compute0", f"compute{i}")
            state = JoinState()
            build_stage = self.graph.stage(
                self._name(f"join_build_n{i}_"), node_site,
                [HashJoinBuild(node.right_key, state)])
            self.graph.connect(build_scatter, build_stage,
                               credits=self.engine.default_credits)
            probe_stage = self.graph.stage(
                self._name(f"join_probe_n{i}_"), node_site,
                [self._probe_op(node, state)],
                depends_on=(build_stage.done,))
            self.graph.connect(probe_scatter, probe_stage,
                               credits=self.engine.default_credits)
            probe_stages.append(probe_stage)
        return probe_stages

    def _probe_op(self, node: Join, state: JoinState) -> HashJoinProbe:
        right_schema = node.right.output_schema(self.catalog)
        rename = {name: node.right_output_name(name, self.catalog)
                  for name in right_schema.names}
        return HashJoinProbe(node.left_key, state,
                             node.output_schema(self.catalog), rename)


class DataflowEngine:
    """Compile-and-run interface for the data-flow architecture."""

    def __init__(self, fabric: HeterogeneousFabric, catalog: Catalog,
                 default_credits: int = 8,
                 rate_limiter: Optional[RateLimiter] = None,
                 cpu_mediated: bool = False,
                 use_zonemaps: bool = False):
        self.fabric = fabric
        self.catalog = catalog
        self.default_credits = default_credits
        self.rate_limiter = rate_limiter
        self.use_zonemaps = use_zonemaps
        # Ablation A2: route every hop through the host CPU instead of
        # letting DMA engines move the data.
        self.cpu_mediator = (fabric.site_device(fabric.cpu_site(0))
                             if cpu_mediated else None)
        self._graph_counter = 0

    def compile(self, plan, placement: Optional[Placement] = None,
                name: str = "", qid: int = 0) -> StageGraph:
        """Build the stage graph for ``plan`` without running it.

        ``qid`` carries the serving query context (0 outside serving)
        into the stage graph, so every event the query's processes
        emit is attributable to its tenant.
        """
        if isinstance(plan, Query):
            plan = plan.plan
        if placement is None:
            placement = pushdown(plan, self.fabric)
        placement.validate(plan, self.fabric)
        self._graph_counter += 1
        graph = StageGraph(self.fabric,
                           name=name or f"df{self._graph_counter}",
                           default_credits=self.default_credits,
                           qid=qid)
        compiler = _Compiler(self, graph, placement)
        branches = compiler.build(plan)
        # Gather at the result site and collect.
        tail = compiler.extend(branches, placement.result_site, [],
                               "gather")
        tail[0].is_sink = True
        if fusion_enabled():
            # Lower each stage's linear filter/project/map runs (and
            # the partial aggregate they feed) into fused operators.
            # Charges are reported per original part, so the stage
            # graph's simulated behavior is bit-identical either way.
            for stage in graph.stages.values():
                stage.ops = fuse_ops(stage.ops)
        return graph

    def execute(self, plan, placement: Optional[Placement] = None,
                name: str = "") -> QueryResult:
        """Compile, run to completion, and package the result."""
        if isinstance(plan, Query):
            plan = plan.plan
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
        sinks = [s for s in graph.stages.values() if s.is_sink]
        schema = plan.output_schema(self.catalog)
        table = Table(schema)
        for sink in sinks:
            for chunk in sink.collected:
                table.append(chunk)
        trace.add("engine.dataflow.queries", 1)
        trace.add("engine.dataflow.stages", len(graph.stages))
        trace.add("engine.dataflow.rows_out", table.num_rows)
        from . import codegen
        codegen.drain_trace_counters(trace)
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
