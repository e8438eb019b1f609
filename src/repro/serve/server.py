"""The long-lived query server: one warm fabric, many tenants.

:class:`QueryServer` is the simulation-domain core of serving: it
accepts submissions *while the simulator is running* (unlike the
batch :class:`~repro.scheduler.scheduler.Scheduler`), pushes them
through admission control and the per-tenant weighted fair queue,
plans them via the plan cache, and executes admitted queries on the
shared fabric through the interference-aware
:class:`~repro.scheduler.scheduler.QueryExecutor`.

Every query leaves a :class:`ServeRecord`; :meth:`QueryServer.report`
aggregates them into the ``repro.bench/v3`` serving record (latency
percentiles, goodput, shed and SLO-violation counts, per-tenant
breakdowns), and :meth:`QueryServer.accounting_violations`
recomputes every aggregate from the raw records so CI can assert the
bookkeeping is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..analysis.critical_path import WinnerTimeline
from ..analysis.observatory import Observatory
from ..engine.logical import Query
from ..hardware.presets import HeterogeneousFabric
from ..obs import columns_checksum, combine_checksums, content_key
from ..relational.catalog import Catalog
from ..scheduler.scheduler import QueryExecutor
from ..sim import EventKind
from .admission import AdmissionController
from .fairqueue import WeightedFairQueue
from .plancache import PlanCache
from .telemetry import ServeTelemetry
from .tenants import TenantClass

__all__ = ["QueryServer", "ServeConfig", "ServeRecord",
           "latency_percentile"]


def latency_percentile(latencies: list[float], q: float) -> float:
    """Deterministic nearest-rank percentile (q in (0, 1])."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))
    rank = min(len(ordered), max(1, rank))
    return ordered[rank - 1]


@dataclass(frozen=True)
class ServeConfig:
    """Server-wide knobs.

    The ``telemetry`` flag gates only the *derived* telemetry
    (windowing, sketches, exemplars, burn-rate alerts) — the serve
    lifecycle events and trace contexts are always recorded, and the
    observer-effect CI gate asserts that flipping the flag changes
    neither checksums nor completion order.
    """

    max_concurrency: int = 4
    max_queue: int = 32
    telemetry: bool = True
    #: The saturation observatory (windowed fabric attribution, bound
    #: classifier, placement regret) — pure observer like telemetry,
    #: gated by its own observer-effect CI leg.
    observatory: bool = True


@dataclass
class ServeRecord:
    """One query's trip through the server."""

    name: str
    tenant: str
    template: str
    arrival: float
    slo_s: float
    qid: int = 0                  # trace context id (tenant lanes)
    admitted: bool = True
    retry_after_s: float = 0.0
    plan_cache: str = ""          # "hit" | "miss" ("" for shed)
    variant_name: str = ""
    started: float = 0.0
    finished: float = 0.0
    checksum: str = ""
    table: Optional[object] = None

    @property
    def latency(self) -> float:
        return self.finished - self.arrival

    @property
    def queued_s(self) -> float:
        return self.started - self.arrival

    @property
    def completed(self) -> bool:
        return self.admitted and self.finished > 0.0

    @property
    def slo_violated(self) -> bool:
        return self.completed and self.latency > self.slo_s

    def to_dict(self) -> dict:
        return {
            "name": self.name, "tenant": self.tenant,
            "template": self.template, "arrival": self.arrival,
            "qid": self.qid,
            "admitted": self.admitted,
            "retry_after_s": self.retry_after_s,
            "plan_cache": self.plan_cache,
            "variant": self.variant_name,
            "started": self.started, "finished": self.finished,
            "latency_s": self.latency if self.completed else None,
            "slo_s": self.slo_s,
            "slo_violated": self.slo_violated,
            "checksum": self.checksum,
        }


@dataclass
class _Pending:
    record: ServeRecord
    query: Query
    variants: list
    cost_s: float
    on_done: Optional[Callable[[ServeRecord], None]]


class QueryServer:
    """Serves tenant query streams on one shared warm fabric."""

    def __init__(self, fabric: HeterogeneousFabric, catalog: Catalog,
                 tenants: list[TenantClass],
                 templates: dict[str, Callable[[], Query]],
                 config: Optional[ServeConfig] = None):
        self.fabric = fabric
        self.catalog = catalog
        self.config = config or ServeConfig()
        self.tenants = {t.name: t for t in tenants}
        if len(self.tenants) != len(tenants):
            raise ValueError("duplicate tenant names")
        self.templates = dict(templates)
        #: One ``Query`` per template name, built at its first admitted
        #: submission: the plan instance its plan-cache entry is stored
        #: with, so a hit hands back the entry's own prepared variants.
        self._queries: dict[str, Query] = {}
        for tenant in tenants:
            missing = set(tenant.templates) - set(self.templates)
            if missing:
                raise ValueError(
                    f"tenant {tenant.name!r} references unknown "
                    f"templates {sorted(missing)}")
        self.executor = QueryExecutor(fabric, catalog)
        self.admission = AdmissionController(
            self.config.max_queue, self.config.max_concurrency)
        self.queue = WeightedFairQueue()
        self.plan_cache = PlanCache()
        self.records: list[ServeRecord] = []
        #: Completion order by record name — bit-identical between
        #: telemetry-on and telemetry-off runs (observer-effect gate).
        self.completion_order: list[str] = []
        self.telemetry: Optional[ServeTelemetry] = None
        if self.config.telemetry:
            self.telemetry = ServeTelemetry(self.tenants, fabric.trace)
        self.observatory: Optional[Observatory] = None
        if self.config.observatory:
            bandwidth = {link.name: link.bandwidth for link in fabric.links()}
            self.observatory = Observatory(
                self.tenants, fabric.trace, link_bandwidth=bandwidth)
        #: Checksum per distinct answer content (``obs.content_key``):
        #: a run asks a few templates many times, so most answers
        #: repeat an earlier one and are not rendered again.
        self._checksums: dict[tuple, str] = {}
        self._running: set[str] = set()
        self._backlog_cost_s = 0.0
        self._seq = 0
        self._first_arrival: Optional[float] = None
        self._last_finish = 0.0

    # -- submission (call at the arrival's simulated time) -----------------

    def submit(self, tenant_name: str, template: str,
               on_done: Optional[Callable[[ServeRecord], None]] = None
               ) -> ServeRecord:
        """Admit-or-shed one query arriving *now* (``sim.now``).

        Returns the record immediately; for admitted queries the
        terminal fields are filled in when execution finishes and
        ``on_done`` (if given) fires.  For shed queries ``on_done``
        fires before this returns, with ``retry_after_s`` set.
        """
        tenant = self.tenants[tenant_name]
        if template not in self.templates:
            raise ValueError(f"unknown template {template!r}")
        sim = self.fabric.sim
        self._seq += 1
        record = ServeRecord(
            name=f"{tenant_name}.{template}#{self._seq}",
            tenant=tenant_name, template=template,
            arrival=sim.now, slo_s=tenant.slo_s)
        self.records.append(record)
        if self._first_arrival is None:
            self._first_arrival = sim.now
        trace = self.fabric.trace
        record.qid = trace.register_context(record.name,
                                            tenant=tenant_name)
        trace.add("serve.submitted", 1)
        trace.add(f"serve.tenant.{tenant_name}.submitted", 1)
        trace.emit(sim.now, EventKind.SERVE_ARRIVE,
                   f"serve.{tenant_name}", label=template,
                   qid=record.qid)
        if self.telemetry is not None:
            self.telemetry.on_arrival(record, len(self.queue))

        decision = self.admission.decide(
            queued=len(self.queue), running=len(self._running),
            backlog_cost_s=self._backlog_cost_s)
        if not decision.admitted:
            record.admitted = False
            record.retry_after_s = decision.retry_after_s
            trace.add("serve.shed", 1)
            trace.add(f"serve.tenant.{tenant_name}.shed", 1)
            trace.emit(sim.now, EventKind.SERVE_SHED,
                       f"serve.{tenant_name}", label=template,
                       qid=record.qid)
            if self.telemetry is not None:
                self.telemetry.on_shed(record)
            if on_done is not None:
                on_done(record)
            return record

        query = self._queries.get(template)
        if query is None:
            query = self._queries[template] = self.templates[template]()
        variants = self.plan_cache.lookup(query, self.catalog,
                                          self.fabric)
        if variants is None:
            record.plan_cache = "miss"
            variants = self.executor.plan_variants(query)
            self.plan_cache.store(query, self.catalog, self.fabric,
                                  variants)
        else:
            record.plan_cache = "hit"
        trace.add(f"serve.plan_cache.{record.plan_cache}", 1)

        cost_s = variants[0].cost.bottleneck_time
        pending = _Pending(record, query, variants, cost_s, on_done)
        self.queue.push(tenant_name, tenant.weight, cost_s, pending)
        self._backlog_cost_s += cost_s
        self._dispatch()
        return record

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self) -> None:
        """Start queued queries while execution slots are free."""
        sim = self.fabric.sim
        while (len(self._running) < self.config.max_concurrency
               and len(self.queue)):
            _tenant, pending = self.queue.pop()
            self._backlog_cost_s -= pending.cost_s
            if not len(self.queue):
                self._backlog_cost_s = 0.0  # absorb float drift
            self._running.add(pending.record.name)
            sim.process(self._run(pending),
                        name=f"serve.{pending.record.name}")

    def _run(self, pending: _Pending):
        record = pending.record
        sim = self.fabric.sim
        trace = self.fabric.trace
        trace.emit(sim.now, EventKind.SERVE_START,
                   f"serve.{record.tenant}", label=record.name,
                   qid=record.qid)
        if self.telemetry is not None:
            self.telemetry.on_start(record, len(self.queue), sim.now)
        yield from self.executor.execute(
            record.name, pending.query, pending.variants, record,
            qid=record.qid)
        record.checksum = self._checksum(record.table)
        self._last_finish = max(self._last_finish, record.finished)
        self._running.discard(record.name)
        self.completion_order.append(record.name)
        trace.add("serve.completed", 1)
        trace.add(f"serve.tenant.{record.tenant}.completed", 1)
        if record.slo_violated:
            trace.add("serve.slo_violations", 1)
        trace.emit(sim.now, EventKind.SERVE_DONE,
                   f"serve.{record.tenant}", label=record.name,
                   dur=record.latency, qid=record.qid)
        if self.telemetry is not None:
            self.telemetry.on_complete(record)
        decision = self.executor.decisions.pop(record.name, None)
        if self.observatory is not None:
            self.observatory.on_complete(record, pending.variants,
                                         decision)
        if pending.on_done is not None:
            pending.on_done(record)
        self._dispatch()

    def _checksum(self, table) -> str:
        """``table_checksum(table)``, rendered once per distinct content."""
        names = table.schema.names
        columns = [table.column(name) for name in names]
        key = content_key(names, columns)
        checksum = self._checksums.get(key) if key is not None else None
        if checksum is None:
            checksum = columns_checksum(names, columns)
            if key is not None:
                self._checksums[key] = checksum
        return checksum

    # -- state -------------------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when nothing is queued or running."""
        return not self._running and not len(self.queue)

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict:
        """Aggregate serving metrics over all records so far."""
        completed = [r for r in self.records if r.completed]
        shed = [r for r in self.records if not r.admitted]
        latencies = [r.latency for r in completed]
        violations = sum(1 for r in completed if r.slo_violated)
        makespan = (self._last_finish - self._first_arrival
                    if completed and self._first_arrival is not None
                    else 0.0)
        good = sum(1 for r in completed if not r.slo_violated)
        per_tenant = {}
        for name, tenant in sorted(self.tenants.items()):
            mine = [r for r in self.records if r.tenant == name]
            mine_done = [r for r in mine if r.completed]
            lat = [r.latency for r in mine_done]
            per_tenant[name] = {
                "weight": tenant.weight,
                "slo_s": tenant.slo_s,
                "submitted": len(mine),
                "completed": len(mine_done),
                "shed": sum(1 for r in mine if not r.admitted),
                "slo_violations": sum(1 for r in mine_done
                                      if r.slo_violated),
                "p50_s": latency_percentile(lat, 0.50),
                "p99_s": latency_percentile(lat, 0.99),
                "mean_queued_s": (sum(r.queued_s for r in mine_done)
                                  / len(mine_done) if mine_done
                                  else 0.0),
            }
        return {
            "queries": len(self.records),
            "completed": len(completed),
            "shed": len(shed),
            "slo_violations": violations,
            "latency": {
                "p50_s": latency_percentile(latencies, 0.50),
                "p99_s": latency_percentile(latencies, 0.99),
                "p999_s": latency_percentile(latencies, 0.999),
                "mean_s": (sum(latencies) / len(latencies)
                           if latencies else 0.0),
                "max_s": max(latencies, default=0.0),
            },
            "goodput_qps": good / makespan if makespan > 0 else 0.0,
            "makespan_s": makespan,
            "tenants": per_tenant,
            "plan_cache": self.plan_cache.counters(),
            "admission": self.admission.counters(),
            "queue_max_depth": self.queue.max_depth,
        }

    def report(self, name: str) -> dict:
        """The ``repro.bench/v3`` serving record."""
        checksums = {r.name: r.checksum for r in self.records
                     if r.completed and r.checksum}
        record = {
            "name": name,
            "sim_time_s": self.fabric.sim.now,
            "checksum": combine_checksums(checksums),
            "records": [r.to_dict() for r in self.records],
            "completion_order": list(self.completion_order),
        }
        record.update(self.metrics())
        self._finalize_observers()
        if self.telemetry is not None:
            record["telemetry"] = self.telemetry.payload()
            record["telemetry_digest"] = self.telemetry.digest()
        if self.observatory is not None:
            record["observatory"] = self.observatory.payload()
            record["observatory_digest"] = self.observatory.digest()
        return record

    def _finalize_observers(self) -> None:
        """Finalize both observers over the run's one winner timeline.

        One ``raw_intervals`` pass and one priority sweep per drained
        run; the telemetry's exemplars and every observatory window
        and query window are slices of it.  The sweep reads the ring
        as the run left it, before the telemetry's closing windows
        emit their last alerts (which are not interval sources).
        Idempotent, like the observers' own ``finalize``.
        """
        observers = [o for o in (self.telemetry, self.observatory)
                     if o is not None]
        if observers and all(o.timeline is None for o in observers):
            timeline = WinnerTimeline(self.fabric.trace)
            for observer in observers:
                observer.timeline = timeline
        for observer in observers:
            observer.finalize(self.fabric.sim.now)

    def accounting_violations(self) -> list[str]:
        """Recompute every aggregate from raw records; [] = exact.

        The serve-smoke CI job asserts this is empty: percentiles,
        goodput, shed and SLO counts must all be re-derivable from
        the per-query records with zero discrepancy.
        """
        errors: list[str] = []
        metrics = self.metrics()
        completed = [r for r in self.records if r.completed]
        shed = [r for r in self.records if not r.admitted]
        pending = len(self.records) - len(completed) - len(shed)
        if self.idle and pending:
            errors.append(f"{pending} records neither completed nor "
                          "shed on an idle server")
        if metrics["completed"] != len(completed):
            errors.append("completed count mismatch")
        if metrics["shed"] != len(shed) or \
                metrics["shed"] != self.admission.shed:
            errors.append(
                f"shed count mismatch (metrics {metrics['shed']}, "
                f"records {len(shed)}, "
                f"admission {self.admission.shed})")
        if self.admission.admitted != len(self.records) - len(shed):
            errors.append("admission admitted != submitted - shed")
        violations = sum(1 for r in completed if r.slo_violated)
        if metrics["slo_violations"] != violations:
            errors.append("slo violation count mismatch")
        per_tenant_total = sum(t["slo_violations"]
                               for t in metrics["tenants"].values())
        if per_tenant_total != violations:
            errors.append("per-tenant slo violations do not sum to "
                          "the total")
        for r in completed:
            if not (r.arrival <= r.started <= r.finished):
                errors.append(f"{r.name}: arrival/started/finished "
                              "not monotone")
            if r.slo_violated != (r.latency > r.slo_s):
                errors.append(f"{r.name}: slo flag inconsistent")
        latencies = sorted(r.latency for r in completed)
        for key, q in (("p50_s", 0.50), ("p99_s", 0.99),
                       ("p999_s", 0.999)):
            expect = latency_percentile(latencies, q)
            if metrics["latency"][key] != expect:
                errors.append(f"latency {key} mismatch")
        if latencies and metrics["latency"]["max_s"] != latencies[-1]:
            errors.append("latency max mismatch")
        cache = self.plan_cache.counters()
        planned = sum(1 for r in self.records
                      if r.plan_cache in ("hit", "miss"))
        if cache["hits"] + cache["misses"] != planned:
            errors.append("plan cache hits+misses != planned queries")
        finishes = {r.name: r.finished for r in completed}
        if sorted(self.completion_order) != sorted(finishes):
            errors.append("completion order does not cover exactly "
                          "the completed records")
        else:
            seq = [finishes[name] for name in self.completion_order]
            if seq != sorted(seq):
                errors.append("completion order not monotone in "
                              "finish time")
        return errors

    def telemetry_violations(self) -> list[str]:
        """Telemetry invariant check ([] when telemetry is off).

        Finalizes the telemetry if needed and recomputes every
        windowed aggregate, alert, sketch percentile and exemplar
        attribution from the raw records — the serve-smoke CI job
        asserts this is empty.
        """
        if self.telemetry is None:
            return []
        self._finalize_observers()
        return self.telemetry.telemetry_violations(self.records)

    def observatory_violations(self) -> list[str]:
        """Observatory invariant check ([] when it is off).

        Finalizes the observatory if needed and recomputes every
        window attribution through the reference pass, the
        telescoped horizon sum, per-query reconciliation, and the
        bound/regret entries — the serve-smoke CI job asserts this
        is empty.
        """
        if self.observatory is None:
            return []
        self._finalize_observers()
        return self.observatory.observatory_violations(self.records)
