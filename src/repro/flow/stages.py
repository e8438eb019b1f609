"""Stage graphs: the push-based data-flow execution runtime.

A :class:`StageGraph` is the physical form of a query in the paper's
architecture: *stages* pinned to processing sites along the data path
(storage CU, storage NIC, compute NIC, near-memory accelerator, CPU),
connected by credit-controlled channels that cross the fabric's links.
Chunks are *pushed*: as soon as a stage produces output it flows
downstream, so the whole pipeline streams — the opposite of the
pull-based Volcano model (§1, §7).

Each stage is one simulation process.  Its loop: take a message from
the inbox, run the chunk through the stage's operator chain
(``run_chain``), replay the charges it returns on the stage's device,
route the results to output channels, return the credit.  Chunks cross
channels as the lazy views the operators produced — a channel charges
the logical ``nbytes`` and the consumer gathers the columns it reads.
Stateful operators flush at end of stream.  ``depends_on`` lets a
probe stage wait for its build stage — the one control dependency
hash joins need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Generator, Iterable, Optional, Sequence

from ..engine.operators import Emit, PhysicalOp, run_chain
from ..hardware.device import Device
from ..hardware.storage import StorageMedium
from ..relational.table import Chunk, Table
from ..sim import Event, EventKind, Simulator, Store, Trace
from ..sim.trace import CounterHandle
from .credits import END, CreditChannel, flow_fast_path

__all__ = ["Stage", "StageGraph", "FlowResult"]


class Stage:
    """One pipeline stage: an operator chain pinned to a device."""

    def __init__(self, graph: "StageGraph", name: str,
                 device: Optional[Device], location: str,
                 ops: Sequence[PhysicalOp] = (),
                 router: str = "single",
                 depends_on: Iterable[Event] = (),
                 source_table: Optional[Table] = None,
                 medium: Optional[StorageMedium] = None,
                 is_sink: bool = False, skip: frozenset = frozenset()):
        if router not in ("single", "partition", "broadcast",
                          "round_robin"):
            raise ValueError(f"unknown router {router!r}")
        self.graph = graph
        self.name = name
        self.device = device
        self.location = location
        self.ops = list(ops)
        self.router = router
        self.depends_on = list(depends_on)
        self.source_table = source_table
        self.skip = skip
        self.medium = medium
        self.is_sink = is_sink
        self.inbox = Store(graph.sim, name=f"{graph.name}.{name}.inbox")
        self.inputs: list[CreditChannel] = []
        self.outputs: list[CreditChannel] = []
        self.done: Event = graph.sim.event()
        self.done_at: Optional[float] = None
        self.collected: list[Chunk] = []
        self.rows_in = 0
        self.rows_out = 0
        self.chunks_in = 0
        self.chunks_out = 0
        self._rr = itertools.count()
        self._metric = f"stage.{graph.name}.{name}"
        # Hot-path interning: the per-message series key and the
        # device-stall counter handle (bound at the first stall).
        self._inbox_series = f"{self._metric}.inbox"
        self._stall_device = None

    # -- execution ---------------------------------------------------------

    def run(self) -> Generator:
        """The stage's simulation process."""
        for evt in self.depends_on:
            yield evt
        self.graph.trace.emit(self.graph.sim.now, EventKind.OP_OPEN,
                              self._metric, label=self.location)
        if self.device is not None and self.device.programmable:
            yield from self._install_kernels()
        if self.source_table is not None:
            yield from self._run_source()
        else:
            yield from self._run_consumer()
        yield from self._flush()
        for out in self.outputs:
            yield from out.send_end()
        self.done_at = self.graph.sim.now
        trace = self.graph.trace
        trace.emit(self.done_at, EventKind.OP_CLOSE, self._metric,
                   label=self.location)
        trace.add(f"{self._metric}.rows_in", self.rows_in)
        trace.add(f"{self._metric}.rows_out", self.rows_out)
        trace.add(f"{self._metric}.chunks_in", self.chunks_in)
        trace.add(f"{self._metric}.chunks_out", self.chunks_out)
        self.done.succeed(self.name)

    def _install_kernels(self) -> Generator:
        """Program an ISA-less accelerator with this stage's kernels.

        §7.2: accelerators are configured through register writes and
        logic installation, not instructions.  Kernel compilation also
        re-checks that every operator *has* a kernel form — stateful
        operators reaching a programmable device is a placement bug.
        """
        from ..engine.kernels import (
            KernelUnsupported,
            compile_kernel,
            install_kernel,
        )
        for op in self.ops:
            try:
                kernel = compile_kernel(op)
            except KernelUnsupported as exc:
                raise RuntimeError(
                    f"stage {self.name!r}: operator {op.name!r} "
                    f"cannot run on programmable device "
                    f"{self.device.name!r}: {exc}") from exc
            yield from install_kernel(self.device, kernel)

    def _run_source(self) -> Generator:
        for index, chunk in enumerate(self.source_table.chunks):
            if chunk.num_rows == 0 or index in self.skip:
                continue
            if self.medium is not None:
                yield from self.medium.read(chunk.nbytes)
            yield from self._process(chunk)

    def _run_consumer(self) -> Generator:
        remaining = len(self.inputs)
        if remaining == 0:
            raise RuntimeError(
                f"stage {self.name!r} has no inputs and no source")
        sim, trace, inbox = self.graph.sim, self.graph.trace, self.inbox
        fast = self.graph.fast
        # Prebound series list + inlined tick: one sample per message.
        # (A consumer always samples at least once — one END per
        # input — so creating the series entry up front adds no key.)
        samples = trace.series[self._inbox_series]
        while remaining > 0:
            if fast and inbox.items and not inbox._putters:
                # Message already queued: pop it directly and claim
                # the StoreGet success slot with a bare timeout —
                # same (time, seq) position, no event dispatch.
                channel, payload = inbox.items.pop(0)
                yield sim.timeout(0.0)
            else:
                channel, payload = yield inbox.get()
            now = sim.now
            if now > trace.clock:
                trace.clock = now
            samples.append((now, len(inbox)))
            if payload is END:
                remaining -= 1
            else:
                yield from self._process(payload)
            channel.ack()

    def _process(self, chunk: Chunk) -> Generator:
        self.rows_in += chunk.num_rows
        self.chunks_in += 1
        # A busy span per chunk: the per-stage utilization and
        # critical-path evidence the paper's offloading argument needs.
        trace = self.graph.trace
        span = trace.open_span(self._metric, self.graph.sim.now)
        try:
            emits = yield from self._apply(self.ops, chunk)
        finally:
            trace.close_span(span, self.graph.sim.now)
        yield from self._route(emits)

    def _charge(self, kind: str, nbytes: float) -> Generator:
        """Charge the stage device, attributing slot-wait as a stall.

        The difference between the measured execute time and the
        device's uncontended :meth:`~repro.hardware.device.Device.
        service_time` is time spent queued behind other work on the
        device — the "device-busy" bucket of the backpressure report.
        """
        before = self.graph.sim.now
        yield from self.device.execute(kind, nbytes)
        stall = ((self.graph.sim.now - before)
                 - self.device.service_time(kind, nbytes))
        if stall > 1e-12:
            if self._stall_device is None:
                self._stall_device = CounterHandle(
                    self.graph.trace.counters,
                    f"{self._metric}.stall.device_s")
            self._stall_device.add(stall)

    def _apply(self, ops: Sequence[PhysicalOp], chunk: Chunk) -> Generator:
        """Run ``chunk`` through ``ops``; returns the resulting emits."""
        emits, charges = run_chain(ops, chunk)
        if self.device is not None:
            for kind, nbytes in charges:
                yield from self._charge(kind, nbytes)
        return emits

    def _flush(self) -> Generator:
        """End of stream: flush stateful operators in chain order."""
        for index, op in enumerate(self.ops):
            tail = self.ops[index + 1:]
            for emit in op.finish():
                if self.device is not None:
                    yield from self._charge(op.kind, emit.chunk.nbytes)
                downstream = [emit]
                if tail:
                    downstream = yield from self._apply(tail, emit.chunk)
                yield from self._route(downstream)

    def _route(self, emits: list[Emit]) -> Generator:
        for emit in emits:
            self.rows_out += emit.chunk.num_rows
            self.chunks_out += 1
            if self.is_sink or not self.outputs:
                # Settled: a kept view would pin its source window.
                self.collected.append(emit.chunk.materialize())
                continue
            # Lazy chunks cross the channel as they are: ``nbytes`` is
            # logical, and the consumer gathers the columns it reads.
            nbytes = float(emit.chunk.nbytes)
            if self.router == "single":
                yield from self.outputs[0].send(emit.chunk, nbytes)
            elif self.router == "round_robin":
                out = self.outputs[next(self._rr) % len(self.outputs)]
                yield from out.send(emit.chunk, nbytes)
            elif self.router == "broadcast":
                for out in self.outputs:
                    yield from out.send(emit.chunk, nbytes)
            elif self.router == "partition":
                if emit.route is None:
                    raise RuntimeError(
                        f"stage {self.name!r}: partition router needs "
                        f"routed emits (last op must be a PartitionOp)")
                if emit.route >= len(self.outputs):
                    raise RuntimeError(
                        f"stage {self.name!r}: route {emit.route} but "
                        f"only {len(self.outputs)} outputs")
                yield from self.outputs[emit.route].send(emit.chunk, nbytes)

    # -- results ---------------------------------------------------------

    def result_table(self) -> Table:
        """Collected chunks as a table (sinks only)."""
        if not self.collected:
            raise RuntimeError(
                f"stage {self.name!r} collected nothing "
                "(not a sink, or the query produced no rows)")
        table = Table(self.collected[0].schema)
        for chunk in self.collected:
            table.append(chunk)
        return table

    def __repr__(self):
        return f"<Stage {self.name} @ {self.location}>"


@dataclass
class FlowResult:
    """Outcome of running a stage graph."""

    tables: dict[str, Table]
    elapsed: float
    started_at: float
    finished_at: float
    trace: Trace
    stages: dict[str, "Stage"] = field(default_factory=dict)

    def table(self, sink: str = "") -> Table:
        """The (single, by default) sink's result table."""
        if sink:
            return self.tables[sink]
        if len(self.tables) != 1:
            raise ValueError(
                f"specify a sink: have {sorted(self.tables)}")
        return next(iter(self.tables.values()))


class StageGraph:
    """A set of stages plus the channels wiring them together."""

    def __init__(self, fabric, name: str = "q0",
                 default_credits: int = 8, qid: int = 0):
        self.fabric = fabric
        self.sim: Simulator = fabric.sim
        self.trace: Trace = fabric.trace
        self.name = name
        # Query context id (serving runs): stage processes run scoped
        # under it so every event they cause — including ones emitted
        # from shared hardware code — is tenant-attributable.
        self.qid = qid
        self.default_credits = default_credits
        # The flow fast-path switch, read once for every stage and
        # channel of this graph.
        self.fast = flow_fast_path()
        #: The engine recipe this graph is an instance of (None for a
        #: hand-wired graph); set by the compiler that built it.
        self.recipe = None
        self.stages: dict[str, Stage] = {}
        self.channels: list[CreditChannel] = []
        self.started_at: Optional[float] = None
        self._started = False
        self._span = None

    # -- construction ------------------------------------------------------

    def _add(self, stage: Stage) -> Stage:
        if stage.name in self.stages:
            raise ValueError(f"duplicate stage name {stage.name!r}")
        self.stages[stage.name] = stage
        return stage

    def source(self, name: str, table: Table,
               medium: Optional[StorageMedium] = None,
               location: Optional[str] = None,
               site: Optional[str] = None,
               ops: Sequence[PhysicalOp] = (),
               router: str = "single",
               skip: frozenset = frozenset()) -> Stage:
        """A stage that reads ``table`` (off ``medium`` if given) but
        the chunks at the indices in ``skip`` (zone-map pruning).

        ``site`` optionally charges the ops to a fabric device (e.g.
        a storage CU filtering as it reads); otherwise ops are free —
        pass none in that case.
        """
        device = self.fabric.site_device(site) if site else None
        if location is None:
            location = (self.fabric.site_location(site) if site
                        else self.fabric.storage_location)
        return self._add(Stage(self, name, device, location, ops=ops,
                               router=router, source_table=table,
                               medium=medium, skip=skip))

    def stage(self, name: str, site: str,
              ops: Sequence[PhysicalOp],
              router: str = "single",
              depends_on: Iterable[Event] = (),
              is_sink: bool = False) -> Stage:
        """A processing stage pinned to a fabric site."""
        device = self.fabric.site_device(site)
        location = self.fabric.site_location(site)
        return self._add(Stage(self, name, device, location, ops=ops,
                               router=router, depends_on=depends_on,
                               is_sink=is_sink))

    def sink(self, name: str, site: str,
             ops: Sequence[PhysicalOp] = (),
             depends_on: Iterable[Event] = ()) -> Stage:
        """A terminal stage that collects its output chunks."""
        return self.stage(name, site, ops, depends_on=depends_on,
                          is_sink=True)

    def connect(self, src: Stage, dst: Stage,
                credits: Optional[int] = None,
                cpu_mediator: Optional[Device] = None) -> CreditChannel:
        """Wire ``src`` to ``dst`` across the fabric route between them."""
        links = self.fabric.route(src.location, dst.location)
        channel = CreditChannel(
            self.sim, self.trace,
            name=f"{self.name}.{src.name}->{dst.name}",
            links=links, inbox=dst.inbox,
            credits=credits if credits is not None else
            self.default_credits,
            cpu_mediator=cpu_mediator,
            actor=f"{self.name}.{src.name}",
            direction=f"{src.location}->{dst.location}",
            qid=self.qid, fast=self.fast)
        src.outputs.append(channel)
        dst.inputs.append(channel)
        self.channels.append(channel)
        return channel

    # -- execution ---------------------------------------------------------

    def start(self) -> None:
        """Launch every stage as a simulation process."""
        if self._started:
            raise RuntimeError("stage graph already started")
        self._validate()
        self._started = True
        self.started_at = self.sim.now
        self._span = self.trace.open_span(f"graph.{self.name}",
                                          self.sim.now)
        self.trace.add(f"graph.{self.name}.stages", len(self.stages))
        self.trace.add(f"graph.{self.name}.channels",
                       len(self.channels))
        for stage in self.stages.values():
            proc = self.sim.process(stage.run(),
                                    name=f"{self.name}.{stage.name}")
            if self.qid:
                # Serving context: tag every event this stage's
                # process (and the device/storage code it drives)
                # emits with the owning query.  The kernel sets/
                # resets ``current_qid`` around each resume, so the
                # tag covers exactly the process's dynamic extent.
                proc._scope = (self.trace, self.qid)

    def _validate(self) -> None:
        for stage in self.stages.values():
            if stage.source_table is None and not stage.inputs:
                raise RuntimeError(
                    f"stage {stage.name!r} has no inputs; "
                    "connect it or make it a source")

    def result(self) -> FlowResult:
        """Collect results (call after the simulator has run)."""
        finished = [s.done_at for s in self.stages.values()]
        if any(t is None for t in finished):
            unfinished = [s.name for s in self.stages.values()
                          if s.done_at is None]
            raise RuntimeError(f"stages never finished: {unfinished} "
                               "(likely a wiring or deadlock problem)")
        tables = {s.name: s.result_table()
                  for s in self.stages.values()
                  if s.is_sink and s.collected}
        finished_at = max(finished)
        if self._span is not None and self._span.end is None:
            self.trace.close_span(self._span, finished_at)
        return FlowResult(tables=tables,
                          elapsed=finished_at - self.started_at,
                          started_at=self.started_at,
                          finished_at=finished_at,
                          trace=self.trace,
                          stages=dict(self.stages))

    def run(self) -> FlowResult:
        """Start, run the fabric to completion, and collect results."""
        self.start()
        self.fabric.run()
        return self.result()
