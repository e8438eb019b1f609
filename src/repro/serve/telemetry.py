"""Continuous serving telemetry: windows, sketches, exemplars, alerts.

The serving stack answers *whether* the run met its SLOs; this module
answers *when it started going wrong and why* — continuously, as the
virtual clock advances, the way a production serving system's
telemetry pipeline would:

* **Per-tenant tumbling windows.**  Every arrival / shed / start /
  completion is folded into the window ``int(ts / WINDOW_S)`` of the
  tenant that caused it.  Windows are *dense*: quiet windows exist
  with zero counts, which is what lets the burn-rate monitor resolve
  alerts during lulls and lets CI replay the alert stream from the
  series alone.
* **Mergeable quantile sketch.**  Per-window latency distributions are
  held in :class:`QuantileSketch` — exact (bit-equal to
  :func:`~repro.serve.server.latency_percentile`) until a window
  exceeds the sketch capacity, after which compression kicks in with a
  *self-documented* accumulated rank-error bound.  Sketches merge, so
  whole-run percentiles come from folding window sketches without
  keeping every latency.
* **Tail exemplars.**  The K worst completions per window keep their
  full per-query event slice (by trace context id) and an exact
  critical-path attribution of ``[arrival, finished]`` against the
  shared fabric — the "what was the fabric doing while my p99 query
  waited" view.  Each attribution is a slice of the run's one
  :class:`~repro.analysis.critical_path.WinnerTimeline` and
  reconciles with the window width exactly (tolerance 0, CI-gated).
* **Burn-rate alerts.**  One
  :class:`~repro.analysis.slo.BurnRateMonitor` per tenant watches the
  dense windows; fired/resolved transitions are emitted into the
  event ring as :attr:`~repro.sim.EventKind.ALERT` events and
  collected for the payload.

Determinism: everything here folds events in simulation order and
iterates tenants/windows in sorted order, so the
``repro.serve-telemetry/v1`` payload — and its digest — is
byte-identical for a given seed regardless of host or ``--jobs``
(each scenario's telemetry is computed inside its own deterministic
run).  Telemetry is pure observation: it never yields, never touches
the simulator, and the observer-effect CI gate asserts checksums and
completion order are bit-identical with telemetry on and off.

A note on clock edges: an alert's timestamp is the *closing edge* of
the window that triggered it, so the final partial window's alerts
may carry a timestamp slightly past the last completion — the window
closes at its nominal boundary, not at the last event.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from ..analysis.critical_path import WinnerTimeline
from ..analysis import slo
from ..analysis.slo import WINDOW_S, BurnRateMonitor, alert_mismatches
from ..sim import EventKind, Trace
from .server import nearest_rank

__all__ = ["QuantileSketch", "ServeTelemetry", "TELEMETRY_SCHEMA"]

TELEMETRY_SCHEMA = "repro.serve-telemetry/v1"

#: The exemplar budget, per window and per run.
EXEMPLARS_PER_WINDOW = 2
MAX_EXEMPLARS = 32

#: Distinct points a :class:`QuantileSketch` holds exactly.
SKETCH_CAPACITY = 256


class QuantileSketch:
    """Deterministic mergeable nearest-rank quantile sketch.

    Holds ``(value, weight)`` points.  While the number of distinct
    points is within :data:`SKETCH_CAPACITY` the sketch is *exact*:
    quantiles use
    the same integer nearest-rank formula as the serving report, so
    they agree bit for bit.  Past capacity, a deterministic
    compression pass groups weight-adjacent points and keeps each
    group's weighted-median value; every such pass adds
    ``ceil(W / SKETCH_CAPACITY)`` to :attr:`rank_error_bound` — the sketch
    carries its own worst-case rank error, and the telemetry
    validation checks observed percentiles against exact ones within
    exactly that bound.

    Merging settles both sides, concatenates, coalesces equal values
    and re-compresses; bounds add.  All operations are pure integer /
    float-comparison arithmetic — no randomness, no hashing — so the
    result is reproducible across hosts.
    """

    def __init__(self):
        self._points: list[tuple[float, int]] = []  # settled, sorted
        self._buffer: list[float] = []              # unsorted adds
        self.count = 0            # total weight
        self.rank_error_bound = 0  # accumulated worst-case rank error
        self.compactions = 0

    # -- building ----------------------------------------------------------

    def add(self, value: float) -> None:
        self._buffer.append(value)
        self.count += 1
        if len(self._buffer) + len(self._points) > 4 * SKETCH_CAPACITY:
            self._settle()

    def _settle(self) -> None:
        """Fold the buffer in: sort, coalesce, compress if needed."""
        if self._buffer:
            merged = self._points + [(v, 1) for v in self._buffer]
            self._buffer = []
            merged.sort(key=lambda p: p[0])
            self._points = _coalesce(merged)
        if len(self._points) > SKETCH_CAPACITY:
            self._compress()

    def _compress(self) -> None:
        """Group weight-adjacent points down to the capacity.

        Deterministic: greedy groups of cumulative weight
        ``ceil(W / capacity)``; each group is represented by its
        weighted-median point with the group's total weight.  Any
        rank query moves by at most the group weight, hence the bound.
        """
        target = -(-self.count // SKETCH_CAPACITY)  # ceil
        groups: list[list[tuple[float, int]]] = []
        acc = 0
        for point in self._points:
            if not groups or acc >= target:
                groups.append([])
                acc = 0
            groups[-1].append(point)
            acc += point[1]
        out: list[tuple[float, int]] = []
        for group in groups:
            weight = sum(w for _, w in group)
            mid = (weight + 1) // 2
            running = 0
            value = group[-1][0]
            for v, w in group:
                running += w
                if running >= mid:
                    value = v
                    break
            out.append((value, weight))
        self._points = _coalesce(out)
        self.rank_error_bound += target
        self.compactions += 1

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` in (returns self)."""
        self._settle()
        other._settle()
        merged = _coalesce(sorted(self._points + other._points,
                                  key=lambda p: p[0]))
        self._points = merged
        self.count += other.count
        self.rank_error_bound += other.rank_error_bound
        self.compactions += other.compactions
        if len(self._points) > SKETCH_CAPACITY:
            self._compress()
        return self

    # -- querying ----------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (bit-exact while uncompressed)."""
        self._settle()
        rank = nearest_rank(self.count, q)
        if rank == 0:
            return 0.0
        running = 0
        for value, weight in self._points:
            running += weight
            if running >= rank:
                return value
        return self._points[-1][0]

    @property
    def exact(self) -> bool:
        """True while no compression has happened (bound is 0)."""
        return self.rank_error_bound == 0

    def to_dict(self) -> dict:
        """Canonical JSON form (settled, sorted, coalesced)."""
        self._settle()
        return {
            "capacity": SKETCH_CAPACITY,
            "count": self.count,
            "rank_error_bound": self.rank_error_bound,
            "compactions": self.compactions,
            "points": [[value, weight]
                       for value, weight in self._points],
        }


def _coalesce(points: list[tuple[float, int]]
              ) -> list[tuple[float, int]]:
    """Sum weights of equal adjacent values (input sorted)."""
    out: list[tuple[float, int]] = []
    for value, weight in points:
        if out and out[-1][0] == value:
            out[-1] = (value, out[-1][1] + weight)
        else:
            out.append((value, weight))
    return out


@dataclass
class _Window:
    """One tenant's counters for one tumbling window."""

    arrivals: int = 0
    sheds: int = 0
    starts: int = 0
    completions: int = 0
    violations: int = 0
    queue_depth_max: int = 0
    sketch: QuantileSketch = field(default_factory=QuantileSketch)

    def series_entry(self, index: int) -> dict:
        entry = {
            "window": index,
            "arrivals": self.arrivals,
            "sheds": self.sheds,
            "starts": self.starts,
            "completions": self.completions,
            "violations": self.violations,
            "queue_depth_max": self.queue_depth_max,
        }
        if self.sketch.count:
            entry["p50_s"] = self.sketch.quantile(0.50)
            entry["p99_s"] = self.sketch.quantile(0.99)
        return entry


@dataclass
class _Exemplar:
    """A tail candidate kept until finalize fills in its payload."""

    window: int
    latency: float
    record: object  # ServeRecord (kept untyped: no import cycle)


class ServeTelemetry:
    """Streaming per-tenant serving telemetry for one server run.

    The :class:`~repro.serve.server.QueryServer` calls the ``on_*``
    hooks at the simulated instant each lifecycle event happens; this
    object folds them into dense tumbling windows, drives one
    burn-rate monitor per tenant as windows close, and keeps tail
    candidates.  :meth:`finalize` closes the last partial window and
    builds exemplar payloads; :meth:`payload` / :meth:`digest` produce
    the ``repro.serve-telemetry/v1`` artifact.

    Purely observational: no simulator interaction, ever.
    """

    def __init__(self, tenants: dict[str, "object"], trace: Trace):
        self.trace = trace
        self.monitors: dict[str, BurnRateMonitor] = {}
        #: tenant -> dense list of closed windows (index = position).
        self.closed: dict[str, list[_Window]] = {}
        self._open: dict[str, dict[int, _Window]] = {}
        self._next_window = 0   # first window not yet closed
        self.alerts: list[dict] = []
        self._candidates: list[_Exemplar] = []
        self.exemplars: list[dict] = []
        #: The run's winner timeline, sliced per exemplar.  Swept by
        #: :meth:`finalize` unless the server set the shared one.
        self.timeline: Optional[WinnerTimeline] = None
        self._finalized = False
        for name in sorted(tenants):
            self.monitors[name] = BurnRateMonitor()
            self.closed[name] = []
            self._open[name] = {}

    # -- window plumbing ---------------------------------------------------

    def _index(self, ts: float) -> int:
        return int(ts / WINDOW_S)

    def _window(self, tenant: str, ts: float) -> _Window:
        index = self._index(ts)
        self._close_through(index - 1)
        window = self._open[tenant].get(index)
        if window is None:
            window = _Window()
            self._open[tenant][index] = window
        return window

    def _close_through(self, last: int) -> None:
        """Close windows densely up to and including index ``last``."""
        while self._next_window <= last:
            index = self._next_window
            closing = (index + 1) * WINDOW_S
            for tenant in sorted(self.monitors):
                window = self._open[tenant].pop(index, None)
                if window is None:
                    window = _Window()
                self.closed[tenant].append(window)
                alert = self.monitors[tenant].observe(
                    index, window.completions, window.violations,
                    at=closing)
                if alert is not None:
                    alert = {"tenant": tenant, **alert}
                    self.alerts.append(alert)
                    self.trace.emit(
                        closing, EventKind.ALERT, f"slo.{tenant}",
                        label=alert["kind"])
            self._next_window = index + 1

    # -- lifecycle hooks (called by QueryServer at sim time) ---------------

    def on_arrival(self, record, queue_depth: int) -> None:
        window = self._window(record.tenant, record.arrival)
        window.arrivals += 1
        window.queue_depth_max = max(window.queue_depth_max,
                                     queue_depth)

    def on_shed(self, record) -> None:
        window = self._window(record.tenant, record.arrival)
        window.sheds += 1

    def on_start(self, record, queue_depth: int, now: float) -> None:
        # ``now`` is passed explicitly: the executor fills in
        # ``record.started`` only once its process first resumes, and
        # hooks must be fed in nondecreasing time order.
        window = self._window(record.tenant, now)
        window.starts += 1
        window.queue_depth_max = max(window.queue_depth_max,
                                     queue_depth)

    def on_complete(self, record) -> None:
        window = self._window(record.tenant, record.finished)
        window.completions += 1
        if record.slo_violated:
            window.violations += 1
        window.sketch.add(record.latency)
        self._candidates.append(_Exemplar(
            self._index(record.finished), record.latency, record))

    # -- finalize ----------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Close through the window containing ``now``; build exemplars.

        Idempotent per run; call once the server is idle.  The window
        containing ``now`` closes at its *nominal* boundary even if
        partial — see the module docstring on clock edges.
        """
        if self._finalized:
            return
        last = max([self._index(now)]
                   + [i for open_ in self._open.values()
                      for i in open_])
        self._close_through(last)
        if self.timeline is None:
            self.timeline = WinnerTimeline(self.trace)
        self._build_exemplars()
        self._finalized = True

    def _build_exemplars(self) -> None:
        """Top-K worst completions per window, fully attributed."""
        by_window: dict[int, list[_Exemplar]] = {}
        for candidate in self._candidates:
            by_window.setdefault(candidate.window, []).append(
                candidate)
        chosen: list[_Exemplar] = []
        for index in sorted(by_window):
            ranked = sorted(by_window[index],
                            key=lambda c: (-c.latency, c.record.name))
            chosen.extend(ranked[:EXEMPLARS_PER_WINDOW])
        if len(chosen) > MAX_EXEMPLARS:
            chosen = sorted(chosen,
                            key=lambda c: (-c.latency,
                                           c.record.name))
            chosen = chosen[:MAX_EXEMPLARS]
            chosen.sort(key=lambda c: (c.window, -c.latency,
                                       c.record.name))

        # One pass over the ring groups event slices by context id;
        # the one winner timeline serves every attribution.
        slices: dict[int, list] = {
            c.record.qid: [] for c in chosen if c.record.qid}
        oldest_ts: Optional[float] = None
        for event in self.trace.events:
            if oldest_ts is None:
                oldest_ts = event.ts
            if event.qid in slices:
                slices[event.qid].append(event)
        dropped = self.trace.events.dropped

        self.exemplars = []
        for candidate in chosen:
            record = candidate.record
            window = [e for e in slices.get(record.qid, [])
                      if record.arrival <= e.ts <= record.finished]
            complete = (dropped == 0
                        or (oldest_ts is not None
                            and oldest_ts <= record.arrival))
            attribution = self.timeline.attribute(record.arrival,
                                                  record.finished)
            self.exemplars.append({
                "name": record.name,
                "tenant": record.tenant,
                "template": record.template,
                "window": candidate.window,
                "qid": record.qid,
                "latency_s": record.latency,
                "queued_s": record.queued_s,
                "slo_s": record.slo_s,
                "violated": record.slo_violated,
                "slice_complete": complete,
                "events": [e.to_dict() for e in window],
                "attribution": attribution.to_dict(),
            })

    # -- artifacts ---------------------------------------------------------

    def payload(self) -> dict:
        """The canonical ``repro.serve-telemetry/v1`` document."""
        if not self._finalized:
            raise RuntimeError("finalize() the telemetry first")
        tenants = {}
        for name in sorted(self.closed):
            windows = self.closed[name]
            merged = QuantileSketch()
            for window in windows:
                merged.merge(window.sketch)
            tenants[name] = {
                "policy": {
                    "target": slo.SLO_TARGET,
                    "threshold": slo.BURN_THRESHOLD,
                    "fast_windows": slo.FAST_WINDOWS,
                    "slow_windows": slo.SLOW_WINDOWS,
                },
                "series": [w.series_entry(i)
                           for i, w in enumerate(windows)],
                "sketch": merged.to_dict(),
                "p50_s": merged.quantile(0.50),
                "p99_s": merged.quantile(0.99),
                "burning": self.monitors[name].burning,
            }
        return {
            "schema": TELEMETRY_SCHEMA,
            "window_s": WINDOW_S,
            "windows": self._next_window,
            "tenants": tenants,
            "alerts": list(self.alerts),
            "exemplars": list(self.exemplars),
        }

    def digest(self) -> str:
        """SHA-256 over the canonical JSON payload (bit-reproducible)."""
        canon = json.dumps(self.payload(), sort_keys=True,
                           separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- self-validation ---------------------------------------------------

    def telemetry_violations(self, records: list) -> list[str]:
        """Every telemetry invariant, recomputed from scratch.

        [] = exact.  Checks (all CI-gated via serve-smoke):

        * per-tenant series sums equal the record-derived counts;
        * every alert is reconstructible from the windowed series
          (and no replayed alert is missing from the live stream);
        * sketch percentiles match exact nearest-rank percentiles
          within each sketch's own ``rank_error_bound`` (bit-equal
          when the bound is 0);
        * every exemplar's critical-path attribution reconciles
          exactly (tolerance 0) and its latency matches its record.
        """
        errors: list[str] = []
        if not self._finalized:
            return ["telemetry never finalized"]
        by_tenant: dict[str, list] = {t: [] for t in self.closed}
        # Completed latencies by (tenant, window), indexed as
        # :meth:`on_complete` indexed them.
        latencies: dict[tuple[str, int], list[float]] = {}
        for record in records:
            by_tenant.setdefault(record.tenant, []).append(record)
            if record.completed:
                latencies.setdefault(
                    (record.tenant, self._index(record.finished)),
                    []).append(record.latency)
        for tenant in sorted(self.closed):
            windows = self.closed[tenant]
            mine = by_tenant.get(tenant, [])
            done = [r for r in mine if r.completed]
            sums = {
                "arrivals": sum(w.arrivals for w in windows),
                "sheds": sum(w.sheds for w in windows),
                "completions": sum(w.completions for w in windows),
                "violations": sum(w.violations for w in windows),
            }
            expect = {
                "arrivals": len(mine),
                "sheds": sum(1 for r in mine if not r.admitted),
                "completions": len(done),
                "violations": sum(1 for r in done
                                  if r.slo_violated),
            }
            for key in sums:
                if sums[key] != expect[key]:
                    errors.append(
                        f"{tenant}: windowed {key} sum to "
                        f"{sums[key]}, records say {expect[key]}")
            # Sketch vs exact nearest-rank, per window and merged.
            merged = QuantileSketch()
            all_latencies: list[float] = []
            for i, window in enumerate(windows):
                if not window.sketch.count:
                    continue
                merged.merge(window.sketch)
                mine_here = latencies.get((tenant, i), [])
                all_latencies.extend(mine_here)
                errors.extend(self._sketch_errors(
                    f"{tenant} window {i}", window.sketch, mine_here))
            if merged.count:
                errors.extend(self._sketch_errors(
                    f"{tenant} merged", merged, all_latencies))
        series = {t: [w.series_entry(i)
                      for i, w in enumerate(ws)]
                  for t, ws in self.closed.items()}
        errors.extend(alert_mismatches(series, self.alerts, WINDOW_S))
        for exemplar in self.exemplars:
            label = exemplar["name"]
            if not exemplar["attribution"]["exact"]:
                errors.append(f"exemplar {label}: attribution does "
                              "not reconcile exactly")
            width = (exemplar["attribution"]["finished_at"]
                     - exemplar["attribution"]["started_at"])
            if width != exemplar["latency_s"]:
                errors.append(f"exemplar {label}: attribution window "
                              "!= latency")
        return errors

    @staticmethod
    def _sketch_errors(label: str, sketch: QuantileSketch,
                       latencies: list[float]) -> list[str]:
        """Compare sketch quantiles against exact nearest-rank ones."""
        errors: list[str] = []
        ordered = sorted(latencies)
        if sketch.count != len(ordered):
            return [f"{label}: sketch count {sketch.count} != "
                    f"{len(ordered)} latencies"]
        for q in (0.50, 0.99):
            got = sketch.quantile(q)
            rank = nearest_rank(len(ordered), q)
            exact = ordered[rank - 1]
            if sketch.exact:
                if got != exact:
                    errors.append(
                        f"{label}: p{int(q * 100)} sketch {got!r} != "
                        f"exact {exact!r} with zero error bound")
                continue
            lo = max(0, rank - 1 - sketch.rank_error_bound)
            hi = min(len(ordered) - 1,
                     rank - 1 + sketch.rank_error_bound)
            if not (ordered[lo] <= got <= ordered[hi]):
                errors.append(
                    f"{label}: p{int(q * 100)} sketch {got!r} outside "
                    f"rank-error bound ±{sketch.rank_error_bound} "
                    f"([{ordered[lo]!r}, {ordered[hi]!r}])")
        return errors
