"""The pull-based Volcano engine — the baseline the paper critiques.

Classic iterator execution (Graefe's Volcano, cited as [30]): each
operator exposes ``next()``, the root pulls, and every byte of every
table is hauled from storage across the full data path (network, PCIe,
memory bus, caches) into the CPU before any operator looks at it.
Processing happens exclusively on the host cores; the fabric's smart
devices sit idle.

The engine still produces exact answers over the real data — it is
the correctness oracle for the data-flow engine and the cost baseline
for every experiment.

``next()`` methods are simulation generators: they yield simulation
events (device time, link transfers) and return the next chunk or
``None``, so the pull-based control flow is faithfully interleaved
with the hardware model.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..hardware.device import Device, OpKind
from ..hardware.presets import HeterogeneousFabric
from ..relational.catalog import Catalog
from ..relational.table import Chunk, Table
from ..sim import EventKind
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
from .fusion import fuse_ops, fusion_enabled
from .operators import (
    FilterOp,
    HashJoinBuild,
    HashJoinProbe,
    JoinState,
    LimitOp,
    MapOp,
    MergeAggregate,
    PartialAggregate,
    ProjectOp,
    SortOp,
)
from .results import QueryResult, TraceSnapshot

__all__ = ["VolcanoEngine"]


class _Iterator:
    """Base pull iterator; ``next()`` is a simulation generator."""

    def next(self) -> Generator:
        raise NotImplementedError


class _ScanIter(_Iterator):
    """Pulls chunks off storage, across the fabric, into the CPU."""

    def __init__(self, engine: "VolcanoEngine", node: Scan,
                 skip: Optional[set[int]] = None):
        self.engine = engine
        self.node = node
        self.table = engine.catalog.table(node.table)
        self.skip = skip or set()
        self._index = 0

    def next(self) -> Generator:
        chunks = self.table.chunks
        while self._index < len(chunks):
            chunk = chunks[self._index]
            self._index += 1
            if chunk.num_rows == 0:
                continue
            if self._index - 1 in self.skip:
                self.engine.fabric.trace.add("zonemap.pruned_chunks", 1)
                continue
            yield from self.engine.fetch_chunk(self.table.name,
                                               self._index - 1, chunk)
            if self.node.columns is not None:
                yield from self.engine.charge(OpKind.PROJECT, chunk.nbytes)
                chunk = chunk.project(self.node.columns)
            return chunk
        return None


class _StreamIter(_Iterator):
    """Applies a streaming operator (filter/project/limit) per pull."""

    def __init__(self, engine: "VolcanoEngine", child: _Iterator, op):
        self.engine = engine
        self.child = child
        self.op = op

    def next(self) -> Generator:
        while True:
            chunk = yield from self.child.next()
            if chunk is None:
                return None
            # One charge per original operator, fused or not: the CPU
            # is charged exactly what the unfused chain would be.
            emits, charges = self.op.run(chunk)
            for kind, nbytes in charges:
                yield from self.engine.charge(kind, nbytes)
            if emits:
                # Streaming ops used here are 1-in/<=1-out.
                return emits[0].chunk
        return None


class _AggregateIter(_Iterator):
    """Blocking aggregate: drains its child on the first pull."""

    def __init__(self, engine: "VolcanoEngine", child: _Iterator,
                 node: Aggregate):
        self.engine = engine
        self.child = child
        self.node = node
        self._exhausted = False

    def next(self) -> Generator:
        if self._exhausted:
            return None
        catalog = self.engine.catalog
        input_schema = self.node.child.output_schema(catalog)
        partial = PartialAggregate(input_schema, self.node.group_by,
                                   self.node.aggs)
        final = MergeAggregate(input_schema, self.node.group_by,
                               self.node.aggs, final=True,
                               output_schema=self.node.output_schema(
                                   catalog))
        while True:
            chunk = yield from self.child.next()
            if chunk is None:
                break
            yield from self.engine.charge(OpKind.AGGREGATE, chunk.nbytes)
            for emit in partial.process(chunk):
                final.process(emit.chunk)
        out = final.finish()
        self._exhausted = True
        if out:
            yield from self.engine.charge(OpKind.AGGREGATE,
                                          out[0].chunk.nbytes)
            return out[0].chunk
        return None


class _JoinIter(_Iterator):
    """Hash join: drains the build side, then streams probes."""

    def __init__(self, engine: "VolcanoEngine", left: _Iterator,
                 right: _Iterator, node: Join):
        self.engine = engine
        self.left = left
        self.right = right
        self.node = node
        self._probe: Optional[HashJoinProbe] = None

    def _setup(self) -> Generator:
        catalog = self.engine.catalog
        state = JoinState()
        build = HashJoinBuild(self.node.right_key, state)
        build_bytes = 0.0
        while True:
            chunk = yield from self.right.next()
            if chunk is None:
                break
            yield from self.engine.charge(OpKind.JOIN_BUILD, chunk.nbytes)
            build_bytes += chunk.nbytes
            build.process(chunk)
        build.finish()
        # The hash table lives in compute-node DRAM for the whole
        # probe phase — the state that anchors conventional engines.
        self.engine.note_dram(build_bytes)
        right_schema = self.node.right.output_schema(catalog)
        rename = {name: self.node.right_output_name(name, catalog)
                  for name in right_schema.names}
        self._probe = HashJoinProbe(
            self.node.left_key, state,
            self.node.output_schema(catalog), rename)

    def next(self) -> Generator:
        if self._probe is None:
            yield from self._setup()
        while True:
            chunk = yield from self.left.next()
            if chunk is None:
                return None
            yield from self.engine.charge(OpKind.JOIN_PROBE, chunk.nbytes)
            emits = self._probe.process(chunk)
            if emits:
                return emits[0].chunk
        return None


class _SortIter(_Iterator):
    """Blocking sort: drains, sorts, emits once."""

    def __init__(self, engine: "VolcanoEngine", child: _Iterator,
                 node: Sort):
        self.engine = engine
        self.child = child
        self.node = node
        self._done = False

    def next(self) -> Generator:
        if self._done:
            return None
        op = SortOp(self.node.keys)
        total = 0.0
        while True:
            chunk = yield from self.child.next()
            if chunk is None:
                break
            total += chunk.nbytes
            op.process(chunk)
        self.engine.note_dram(total)
        yield from self.engine.charge(OpKind.SORT, total)
        self._done = True
        out = op.finish()
        return out[0].chunk if out else None


class VolcanoEngine:
    """Pull-based execution on the host CPU of one compute node."""

    def __init__(self, fabric: HeterogeneousFabric, catalog: Catalog,
                 node: int = 0, bufferpool=None,
                 use_zonemaps: bool = False):
        self.fabric = fabric
        self.catalog = catalog
        self.node = node
        self.bufferpool = bufferpool
        self.use_zonemaps = use_zonemaps
        self.cpu: Device = fabric.site_device(fabric.cpu_site(node))
        self.cpu_location = fabric.site_location(fabric.cpu_site(node))
        self._dram_noted = 0.0

    # -- cost plumbing -----------------------------------------------------

    def charge(self, kind: str, nbytes: float) -> Generator:
        """CPU time for ``nbytes`` of ``kind`` work."""
        yield from self.cpu.execute(kind, nbytes)

    def fetch_chunk(self, table: str, index: int,
                    chunk: Chunk) -> Generator:
        """Bring one chunk from storage to the CPU (Figure 1's path)."""
        if self.bufferpool is not None:
            yield from self.bufferpool.fetch(table, index, chunk.nbytes)
            # Pool hit or miss, the chunk still crosses DRAM->caches->CPU.
            yield from self.fabric.transfer(
                f"compute{self.node}.dram", self.cpu_location,
                chunk.nbytes, flow="volcano")
        else:
            yield from self.fabric.storage.medium.read(chunk.nbytes)
            yield from self.fabric.transfer(
                self.fabric.storage_location, self.cpu_location,
                chunk.nbytes, flow="volcano")

    def note_dram(self, nbytes: float) -> None:
        """Record operator state held in compute-node DRAM."""
        self._dram_noted += nbytes
        self.fabric.trace.sample(
            f"engine.volcano.node{self.node}.state",
            self.fabric.sim.now, self._dram_noted)

    # -- plan construction -----------------------------------------------------

    def _stream_op(self, node: PlanNode):
        """The streaming operator for a fusable plan node, else None."""
        if isinstance(node, Filter):
            return FilterOp(node.predicate)
        if isinstance(node, Project):
            return ProjectOp(node.columns)
        if isinstance(node, Map):
            return MapOp(node.exprs, node.output_schema(self.catalog))
        return None

    def _build_stream_chain(self, node: PlanNode) -> _Iterator:
        """A maximal Filter/Project/Map chain, fused when enabled.

        Walks down consecutive streaming nodes, handles the zone-map
        pruned Filter-over-Scan at the bottom of the chain, then wraps
        the child iterator with the (possibly fused) operator chain —
        one :class:`_StreamIter` per lowered operator.
        """
        ops = []
        skip: Optional[set[int]] = None
        while True:
            op = self._stream_op(node)
            if op is None:
                break
            ops.append(op)
            if (isinstance(node, Filter) and self.use_zonemaps
                    and isinstance(node.child, Scan)):
                # Zone-map pruning (§2.1): skip chunks whose min/max
                # bounds refute the predicate; the filter still runs
                # over surviving chunks for correctness.
                from ..relational.zonemaps import prunable_chunks
                zonemap = self.catalog.zonemap(node.child.table)
                skip = prunable_chunks(zonemap, node.predicate)
            node = node.child
        ops.reverse()
        if skip is not None:
            child: _Iterator = _ScanIter(self, node, skip=skip)
        else:
            child = self._build(node)
        if fusion_enabled():
            ops = fuse_ops(ops)
        for op in ops:
            child = _StreamIter(self, child, op)
        return child

    def _build(self, node: PlanNode) -> _Iterator:
        if isinstance(node, Scan):
            return _ScanIter(self, node)
        if isinstance(node, (Filter, Project, Map)):
            return self._build_stream_chain(node)
        if isinstance(node, Limit):
            return _StreamIter(self, self._build(node.child),
                               LimitOp(node.n))
        if isinstance(node, Aggregate):
            return _AggregateIter(self, self._build(node.child), node)
        if isinstance(node, Join):
            return _JoinIter(self, self._build(node.left),
                             self._build(node.right), node)
        if isinstance(node, Sort):
            return _SortIter(self, self._build(node.child), node)
        raise TypeError(f"unsupported plan node {node!r}")

    # -- entry point -----------------------------------------------------

    def execute(self, plan) -> QueryResult:
        """Run a plan (or Query) to completion; returns the result."""
        if isinstance(plan, Query):
            plan = plan.plan
        trace = self.fabric.trace
        snapshot = TraceSnapshot(trace)
        started = self.fabric.sim.now
        span = trace.open_span("query.volcano", started)
        trace.emit(started, EventKind.OP_OPEN, "query.volcano")
        self._dram_noted = 0.0
        root = self._build(plan)
        schema = plan.output_schema(self.catalog)
        collected: list[Chunk] = []

        def driver():
            while True:
                chunk = yield from root.next()
                if chunk is None:
                    return
                collected.append(chunk)

        self.fabric.sim.run_process(driver())
        finished = self.fabric.sim.now
        trace.close_span(span, finished)
        trace.emit(finished, EventKind.OP_CLOSE, "query.volcano")
        table = Table(schema)
        for chunk in collected:
            table.append(chunk)
        trace.add("engine.volcano.queries", 1)
        trace.add("engine.volcano.chunks_out", len(collected))
        trace.add("engine.volcano.rows_out", table.num_rows)
        from . import codegen
        codegen.drain_trace_counters(trace)
        return QueryResult(
            table=table,
            elapsed=finished - started,
            engine="volcano",
            movement=snapshot.delta_prefix("movement."),
            counters=snapshot.delta_prefix(""),
            peak_compute_dram=self._dram_noted,
            utilization=snapshot.utilization_delta(
                finished - started, self.fabric.device_slots()),
            started_at=started,
            finished_at=finished,
        )
