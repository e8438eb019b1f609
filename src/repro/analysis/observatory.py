"""The runtime saturation observatory: continuous bound-resource view.

The what-if profiler (PR 5) proves which resource *one* query was
bound on; the serving telemetry (PR 7) proves *when* a tenant started
missing its SLO.  This module closes the remaining gap for ROADMAP
item 5 (feedback-driven re-placement): a runtime-wide, continuously
windowed view of what the fabric itself was doing while a serving
workload ran, derived purely from records the run already produces.

Three derived products, all pure observation:

* **Saturation series.**  The run's horizon is tiled into tumbling
  windows and every window is a slice of the run's one
  :class:`~repro.analysis.critical_path.WinnerTimeline` — the exact
  critical-path priority sweep, done once for the whole run.  Per window
  and per device pool that yields busy seconds, the queueing-delay
  contribution (``wait:other``), the credit-stall share
  (``wait:credit``) and wire time — and, from the clipped ``link.*``
  serialization spans times each link's bandwidth, bytes moved per
  link.  Window sums reconcile with the reference pass and telescope
  to the whole-horizon attribution *exactly* (integer ticks,
  tolerance 0, CI-gated).
* **Bound-resource classifier.**  Every completed query is tagged
  with the dominant bucket of its ``[arrival, finished]`` attribution
  (``device`` / ``storage`` / ``nic`` / ``link`` / ``wait:*``),
  rolled up into per-tenant × per-resource bound-share series.
* **Placement regret.**  The executed plan variant is re-scored
  against the cost model's alternatives on the *observed* fabric
  state: each variant's per-resource demand is inflated by the
  saturation actually measured over the query's execution window
  (``eff = max_r T_r / (1 - min(rho_r, RHO_CAP)) + latency``), and
  the regret is the gap between the chosen variant's effective cost
  and the observed-best one — exactly the ranking signal a
  feedback-driven optimizer consumes.

Observer effect: the observatory never touches the simulator, never
yields, and — unlike the telemetry's burn-rate alerts — never emits
into the event ring, so a run with it disabled is bit-identical in
checksums, completion order, *and* ring contents (CI-gated).

When the bounded event ring has dropped events the wire/credit
interval sources are incomplete; every attribution is then marked
``partial`` (with a reason string) and the payload carries the same
flag, so nothing silently reconciles over a truncated window.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import partial
from typing import Optional

import numpy as np

from ..sim import Trace
from .critical_path import (Attribution, WinnerTimeline,
                            attribute_windows, partial_reason, summed)
from .slo import WINDOW_S

__all__ = ["Observatory", "OBSERVATORY_SCHEMA", "bound_class",
           "effective_cost", "render_top"]

OBSERVATORY_SCHEMA = "repro.observatory/v1"

RHO_CAP = 0.95
"""Saturation is capped here before inflating a variant's cost, so a
fully-saturated pool inflates by at most ``1 / (1 - RHO_CAP)`` = 20x
instead of dividing by zero."""

REGRET_LEADERS = 10
"""How many worst-regret queries the payload keeps ranked."""

QUERY_SAMPLE = 25
"""Completed queries whose timeline slices the self-check re-derives."""

TOP_POOLS = 12
"""Pools ``repro top`` lists."""


def bound_class(bucket: str) -> str:
    """Collapse a dominant bucket to its resource class.

    ``device:compute0.cpu`` -> ``device``; wait buckets keep their
    reason (``wait:other`` stays ``wait:other``) since *which* wait
    dominated is the interesting part.
    """
    if bucket.startswith("wait:"):
        return bucket
    return bucket.split(":", 1)[0]


def _matching_pools(pools, kind: str, key: str) -> tuple[str, ...]:
    """The observed pool(s) among ``pools`` a cost-model key maps to.

    ``device_time`` keys are *site* names; the observed pools carry
    span-derived names (``device:compute0.nic.proc``,
    ``nic:compute0.nic.dma``, ``storage:storage.media``), so a site
    matches any pool it prefixes.  ``link_time`` keys are link names
    and match exactly.
    """
    if kind == "link":
        return (f"link:{key}",)
    exact = (f"device:{key}", f"storage:{key}")
    prefixes = (f"device:{key}.", f"nic:{key}", f"storage:{key}.")
    return tuple(pool for pool in pools
                 if pool in exact or pool.startswith(prefixes))


def effective_cost(cost, shares: dict[str, float],
                   pools_of=None) -> float:
    """A plan variant's bottleneck time on the *observed* fabric.

    The cost model's per-resource busy seconds, each inflated by the
    measured saturation of the pool it lands on::

        eff = max_r  T_r / (1 - min(rho_r, RHO_CAP))  +  latency

    Several matching pools take the max — the variant queues behind
    the most saturated one.  With every ``rho`` at 0 this reduces
    exactly to :attr:`~repro.optimizer.cost.PlanCost.bottleneck_time`.
    ``pools_of(kind, key)`` (an observatory's index) names the pools a
    key lands on; by default they are matched against ``shares``.
    """
    if pools_of is None:
        pools_of = partial(_matching_pools, shares)
    get = shares.get
    floor = 1.0 - RHO_CAP
    worst = 0.0
    for kind, times in (("device", cost.device_time),
                        ("link", cost.link_time)):
        for key, seconds in times.items():
            rho = 0.0       # builtin max/min calls cost most of a term
            for pool in pools_of(kind, key):
                share = get(pool, 0.0)
                if share > rho:
                    rho = share
            slack = 1.0 - (rho if rho < RHO_CAP else RHO_CAP)
            term = seconds / (slack if slack > floor else floor)
            if term > worst:
                worst = term
    return worst + cost.latency


class Observatory:
    """Continuous saturation/bound/regret view over one serving run.

    The :class:`~repro.serve.server.QueryServer` hands every completed
    query (record, planned variants, the executor's variant decision)
    to :meth:`on_complete`; :meth:`finalize` derives every series as
    slices of :attr:`timeline` (the server hands the drained run's one
    timeline to both observers; a standalone observatory sweeps its
    own).  :meth:`payload` / :meth:`digest` produce the
    ``repro.observatory/v1`` artifact and
    :meth:`observatory_violations` recomputes everything, the windows
    and a query sample in one reference pass, at tolerance 0.
    """

    def __init__(self, tenants, trace: Trace,
                 link_bandwidth: Optional[dict[str, float]] = None):
        self.trace = trace
        self.link_bandwidth = dict(link_bandwidth or {})
        self.tenant_names = sorted(tenants)
        #: (record, variants, decision) per completed query, in
        #: completion order.
        self._completed: list[tuple] = []
        self._finalized = False
        self._edges: list[float] = []
        #: The exact attribution of every tumbling window.
        self._windows: list[Attribution] = []
        #: (kind, cost-model key) -> the observed pools it lands on.
        self._pool_index: dict[tuple[str, str], tuple[str, ...]] = {}
        #: (start, end) -> its slice's (ticks, denom), sliced once.
        self._slices: dict[tuple[float, float], tuple[dict, int]] = {}
        self._link_bytes: list[dict[str, float]] = []
        self._bound: list[dict] = []
        self._regret: list[dict] = []
        self._horizon = 0.0
        #: The run's winner timeline; every window and query window
        #: is a slice of it.  Swept by :meth:`finalize` unless set.
        self.timeline: Optional[WinnerTimeline] = None
        self._canon = ""

    # -- lifecycle hook (called by QueryServer at completion) --------------

    def on_complete(self, record, variants=None, decision=None) -> None:
        """Remember one completed query; all derivation is deferred."""
        self._completed.append((record, variants or [], decision))

    # -- derivation --------------------------------------------------------

    def _windows_of(self, instants) -> list[int]:
        """Each instant's window, read off the (rounded) edges."""
        return np.clip(np.searchsorted(self._edges, instants, "right") - 1,
                       0, max(len(self._edges) - 2, 0)).tolist()

    def _pools_of(self, kind: str, key: str) -> tuple[str, ...]:
        """The pools a cost-model key lands on, matched once per key."""
        pools = self._pool_index.get((kind, key))
        if pools is None:
            pools = self._pool_index[kind, key] = _matching_pools(
                self.timeline.buckets, kind, key)
        return pools

    def finalize(self, now: float) -> None:
        """Derive every series from the trace; idempotent per run."""
        if self._finalized:
            return
        self._horizon = max(now, self.trace.clock)
        self._dropped = self.trace.events.dropped
        if self.timeline is None:
            self.timeline = WinnerTimeline(self.trace)
        self._edges = self._tile(self._horizon)
        self._windows = [self.timeline.attribute(w0, w1) for w0, w1
                         in zip(self._edges, self._edges[1:])]
        self._link_bytes = self._fold_link_bytes()
        tags = self._tags = self._windows_of([r.finished for r, _v, _d
                                              in self._completed])
        self._classify(tags)
        self._score_regret(tags)
        # Nothing changes after this point: one canonical document
        # serves every payload() and digest() call.
        self._canon = json.dumps(self._payload(), sort_keys=True,
                                 separators=(",", ":"))
        self._finalized = True

    def _tile(self, horizon: float) -> list[float]:
        """Window edges tiling ``[0, horizon]`` exactly."""
        if horizon <= 0:
            return []
        edges = [0.0]
        i = 1
        while i * WINDOW_S < horizon:
            edges.append(i * WINDOW_S)
            i += 1
        edges.append(horizon)
        return edges

    def _fold_link_bytes(self) -> list[dict[str, float]]:
        """Per-window bytes per link from clipped serialization spans.

        Every ``link.*`` span is one chunk's serialization window
        (width = nbytes / bandwidth), so clipped width × bandwidth is
        exactly the bytes that crossed the link inside the window —
        a chunk straddling an edge splits its bytes proportionally.
        ``np.bincount`` sums each cell's pieces in interval order, as a
        per-span loop would: the same floats.
        """
        timeline, windows = self.timeline, len(self._edges) - 1
        out: list[dict[str, float]] = [{} for _ in range(windows)]
        rate = np.array([self.link_bandwidth.get(b[5:], math.nan)
                         if b.startswith("link:") else math.nan
                         for _prio, b in timeline.keys])[timeline.key]
        mine = ~np.isnan(rate) & (timeline.end < math.inf)
        if windows <= 0 or not mine.any():
            return out
        start, end = timeline.start[mine], timeline.end[mine]
        edges = np.array(self._edges)
        first = np.clip(np.searchsorted(edges, start, side="right") - 1,
                        0, windows - 1)
        count = np.maximum(np.minimum(np.searchsorted(edges, end) - 1,
                                      windows - 1) - first + 1, 0)
        span = np.repeat(np.arange(len(count)), count)
        window = first[span] + np.arange(len(span)) \
            - np.repeat(np.cumsum(count) - count, count)
        overlap = np.minimum(end[span], edges[window + 1]) \
            - np.maximum(start[span], edges[window])
        cut = overlap > 0
        keys = len(timeline.keys)
        cell = (window * keys + timeline.key[mine][span])[cut]
        sums = np.bincount(cell, (overlap * rate[mine][span])[cut],
                           minlength=windows * keys).tolist()
        for c in np.unique(cell).tolist():      # link name after "link:"
            out[c // keys][timeline.keys[c % keys][1][5:]] = sums[c]
        return out

    def _query_attribution(self, record, started: float,
                           finished: float) -> Attribution:
        if (started, finished) not in self._slices:
            self._slices[started, finished] = self.timeline.charges(
                started, finished)
        return Attribution(started, finished,
                           *self._slices[started, finished])

    def _classify(self, tags: list[int]) -> None:
        """Tag every completed query with its dominant bound bucket."""
        for (record, _v, _d), window in zip(self._completed, tags):
            att = self._query_attribution(record, record.arrival,
                                          record.finished)
            dominant = att.dominant()
            self._bound.append({
                "name": record.name,
                "tenant": record.tenant,
                "window": window,
                "bucket": dominant,
                "class": bound_class(dominant),
                "share": (att.ticks[dominant] / sum(att.ticks.values())
                          if att.ticks else 0.0),
            })

    def _regret_entry(self, record, window: int, variants, decision,
                      effs: Optional[list[float]] = None) -> dict:
        """Score one executed query from its variants' ``effs``; by
        default the reference :meth:`_score_regret` is checked against,
        one :func:`effective_cost` per variant."""
        if effs is None:
            shares = self._query_attribution(record, record.started,
                                             record.finished).shares()
            effs = [effective_cost(v.cost, shares, self._pools_of)
                    for v in variants]
        chosen_name = (decision.chosen if decision is not None
                       else record.variant_name)
        effs = list(zip(effs, (v.placement.name for v in variants)))
        chosen_eff = next((eff for eff, name in effs
                           if name == chosen_name), effs[0][0])
        best_eff, best_name = min(effs)
        regret = chosen_eff - best_eff
        return {
            "name": record.name,
            "tenant": record.tenant,
            "window": window,
            "chosen": chosen_name,
            "best": best_name,
            "chosen_eff_s": chosen_eff,
            "best_eff_s": best_eff,
            "regret_s": regret,
            "regret_ratio": regret / best_eff if best_eff > 0 else 0.0,
        }

    def _score_regret(self, tags: list[int]) -> None:
        """Score every query with alternatives, a numpy pass per list.

        Queries sharing a variant list get a saturation row each; every
        variant's terms, resolved to pool columns once, run down the
        rows in :func:`effective_cost`'s float64 operations and order.
        """
        column = {pool: j for j, pool in enumerate(sorted(
            self.timeline.buckets))}
        groups: dict[int, list[int]] = {}
        for i, (_record, variants, _d) in enumerate(self._completed):
            if variants:
                groups.setdefault(id(variants), []).append(i)
        scored: dict[int, dict] = {}
        for rows in groups.values():
            variants = self._completed[rows[0]][1]
            saturation = np.zeros((len(rows), len(column)))
            for row, i in enumerate(rows):
                record = self._completed[i][0]
                ticks = self._query_attribution(
                    record, record.started, record.finished).ticks
                total = sum(ticks.values())
                for pool, t in ticks.items():
                    saturation[row, column[pool]] = t / total
            effs = np.zeros((len(rows), len(variants)))
            for j, variant in enumerate(variants):
                for kind, times in (("device", variant.cost.device_time),
                                    ("link", variant.cost.link_time)):
                    for key, seconds in times.items():
                        rho = saturation[:, [
                            column[pool] for pool in self._pools_of(kind, key)
                            if pool in column]].max(axis=1, initial=0.0)
                        np.maximum(effs[:, j], seconds / np.maximum(
                            1.0 - np.minimum(rho, RHO_CAP), 1.0 - RHO_CAP),
                            out=effs[:, j])
                effs[:, j] += variant.cost.latency
            for i, row in zip(rows, effs.tolist()):
                record, _variants, decision = self._completed[i]
                scored[i] = self._regret_entry(record, tags[i], variants,
                                               decision, row)
        self._regret = [scored[i] for i in sorted(scored)]

    # -- artifacts ---------------------------------------------------------

    @property
    def windows(self) -> int:
        return max(len(self._edges) - 1, 0)

    def _series(self) -> list[dict]:
        # Key order is the canonical JSON's (sorted) in every payload.
        return [{
            "window": i,
            "start": att.started_at,
            "end": att.finished_at,
            "pools": att.bucket_seconds(),
            "saturation": att.shares(),
            "link_bytes": self._link_bytes[i],
        } for i, att in enumerate(self._windows)]

    def _bound_rollup(self) -> dict:
        by_tenant: dict[str, dict[str, int]] = {
            t: {} for t in self.tenant_names}
        series: list[dict] = [
            {"window": i, "tenants": {}} for i in range(self.windows)]
        for entry in self._bound:
            tenant, cls = entry["tenant"], entry["class"]
            cell = by_tenant.setdefault(tenant, {})
            cell[cls] = cell.get(cls, 0) + 1
            windowed = series[entry["window"]]["tenants"]
            wcell = windowed.setdefault(tenant, {})
            wcell[cls] = wcell.get(cls, 0) + 1
        return {
            "queries": list(self._bound),
            "by_tenant": {t: dict(sorted(c.items()))
                          for t, c in sorted(by_tenant.items())},
            "series": series,
        }

    def _regret_rollup(self) -> dict:
        by_tenant: dict[str, dict] = {}
        for entry in self._regret:
            cell = by_tenant.setdefault(entry["tenant"], {
                "queries": 0, "switch_opportunities": 0,
                "total_regret_s": 0.0, "max_regret_s": 0.0})
            cell["queries"] += 1
            if entry["best"] != entry["chosen"]:
                cell["switch_opportunities"] += 1
            cell["total_regret_s"] += entry["regret_s"]
            cell["max_regret_s"] = max(cell["max_regret_s"],
                                       entry["regret_s"])
        leaders = sorted(self._regret,
                         key=lambda e: (-e["regret_s"], e["name"]))
        return {
            "rho_cap": RHO_CAP,
            "queries": list(self._regret),
            "by_tenant": dict(sorted(by_tenant.items())),
            "leaders": leaders[:REGRET_LEADERS],
        }

    def _payload(self) -> dict:
        dropped = self._dropped
        totals = summed(self._windows, 0.0, self._horizon)
        return {
            "schema": OBSERVATORY_SCHEMA,
            "window_s": WINDOW_S,
            "windows": self.windows,
            "horizon_s": self._horizon,
            "events_dropped": dropped,
            "partial": dropped > 0,
            "partial_reason": partial_reason(dropped),
            "pools": sorted(totals.ticks),
            "totals": totals.bucket_seconds(),
            "series": self._series(),
            "bound": self._bound_rollup(),
            "regret": self._regret_rollup(),
        }

    def payload(self) -> dict:
        """The canonical ``repro.observatory/v1`` document.

        Built once by :meth:`finalize`; every call parses a fresh copy
        of the canonical JSON, so a caller editing its copy cannot
        reach the digest or the next caller.
        """
        if not self._finalized:
            raise RuntimeError("finalize() the observatory first")
        return json.loads(self._canon)

    def digest(self) -> str:
        """SHA-256 over the canonical JSON payload (bit-reproducible)."""
        if not self._finalized:
            raise RuntimeError("finalize() the observatory first")
        return hashlib.sha256(self._canon.encode()).hexdigest()

    # -- self-validation ---------------------------------------------------

    def observatory_violations(self, records) -> list[str]:
        """Every observatory invariant, recomputed from scratch.

        [] = exact.  All at tolerance 0 (exact values):

        * every window's timeline slice equals the reference
          (:func:`~repro.analysis.critical_path.attribute_windows`) and
          tiles its window exactly;
        * window sums telescope to the reference's whole-horizon
          attribution;
        * the first :data:`QUERY_SAMPLE` completed queries' timeline
          slices equal their own reference attributions and their
          window-clipped sums;
        * every bound tag, regret entry (by the scalar reference) and
          link-byte cell is reproduced by a recomputation;
        * the ``partial`` flag the payload was built from agrees with
          the ring's drop counter.

        The reference answers every window, the horizon and the
        sampled queries in one pass.
        """
        if not self._finalized:
            return ["observatory never finalized"]
        errors: list[str] = []
        windows = list(zip(self._edges, self._edges[1:]))
        horizon = [(self._edges[0], self._edges[-1])] if windows else []
        sampled = self._completed[:QUERY_SAMPLE]
        references = attribute_windows(
            self.trace, windows + horizon
            + [(r.arrival, r.finished) for r, _v, _d in sampled],
            intervals=self.timeline.intervals)
        for i, (att, reference) in enumerate(zip(self._windows,
                                                 references)):
            if att != reference:
                errors.append(
                    f"window {i}: timeline slice diverges from the "
                    "reference")
            if not att.exact:
                errors.append(f"window {i}: buckets do not tile the "
                              "window exactly")
        if horizon and (summed(self._windows, *horizon[0]).buckets
                        != references[len(windows)].buckets):
            errors.append("window sums do not telescope to the "
                          "whole-horizon attribution")
        errors.extend(self._query_reconciliation(
            sampled, references[len(windows) + len(horizon):]))
        errors.extend(self._classifier_violations(records))
        errors.extend(self._regret_violations())
        for i, (cell, fresh) in enumerate(zip(self._link_bytes,
                                              self._fold_link_bytes())):
            links = sorted(k for k in cell | fresh
                           if cell.get(k) != fresh.get(k))
            if links:
                errors.append(f"window {i}: link bytes on "
                              f"{', '.join(links)} not reproduced")
        if (self.trace.events.dropped > 0) != (self._dropped > 0):
            errors.append("partial flag disagrees with the ring's "
                          "drop counter")
        return errors

    def _query_reconciliation(self, sampled, references) -> list[str]:
        """Sampled queries: slice == reference == window-clipped sums."""
        errors: list[str] = []
        for (record, _v, _d), whole in zip(sampled, references):
            sliced = self.timeline.attribute(record.arrival,
                                             record.finished)
            if sliced != whole:
                errors.append(
                    f"{record.name}: timeline slice diverges from "
                    "the reference")
            pieces = []
            lo, hi = self._windows_of([record.arrival, record.finished])
            for i in range(lo, hi + 1):
                q0 = max(record.arrival, self._edges[i])
                q1 = min(record.finished, self._edges[i + 1])
                if q1 > q0:
                    pieces.append(self.timeline.attribute(q0, q1))
            if summed(pieces, record.arrival,
                      record.finished).buckets != whole.buckets:
                errors.append(
                    f"{record.name}: per-query attribution does not "
                    "equal its window-clipped sums")
        return errors

    def _classifier_violations(self, records) -> list[str]:
        errors: list[str] = []
        completed = [r for r in records if r.completed]
        if len(self._bound) != len(completed):
            errors.append(
                f"bound classifier tagged {len(self._bound)} queries "
                f"but {len(completed)} completed")
        tagged = sum(count
                     for cell in self._bound_rollup()[
                         "by_tenant"].values()
                     for count in cell.values())
        if tagged != len(self._bound):
            errors.append("per-tenant bound counts do not sum to the "
                          "tagged query count")
        by_name = {r.name: r for r, _v, _d in self._completed}
        for entry in self._bound:
            record = by_name.get(entry["name"])
            if record is None:
                errors.append(f"bound entry {entry['name']} has no "
                              "completion record")
                continue
            att = self._query_attribution(record, record.arrival,
                                          record.finished)
            if att.dominant() != entry["bucket"]:
                errors.append(
                    f"{entry['name']}: recorded bound bucket "
                    f"{entry['bucket']} != recomputed "
                    f"{att.dominant()}")
        return errors

    def _regret_violations(self) -> list[str]:
        errors: list[str] = []
        by_name = {entry["name"]: entry for entry in self._regret}
        for i, (record, variants, decision) in enumerate(self._completed):
            entry = by_name.get(record.name)
            if not variants:
                if entry is not None:
                    errors.append(f"{record.name}: regret entry for "
                                  "a query with no variants")
                continue
            if entry != self._regret_entry(record, self._tags[i], variants,
                                           decision):
                errors.append(f"{record.name}: regret entry is not "
                              "reproduced by recomputation")
                continue
            if entry["regret_s"] < 0:
                errors.append(f"{record.name}: negative regret")
        return errors


# ---------------------------------------------------------------------------
# repro top — text rendering (from the payload alone)
# ---------------------------------------------------------------------------

def _fmt_bytes(value: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:,.0f} {unit}" if unit == "B" \
                else f"{value:,.1f} {unit}"
        value /= 1024
    return f"{value:,.1f} GiB"


def render_top(payload: dict, name: str = "",
               follow: bool = False) -> str:
    """Render one ``repro.observatory/v1`` payload as a text snapshot.

    Needs nothing but the payload (zero external fetches): the pool
    saturation table, the hottest tenants by bound class, and the
    regret leaderboard.  With ``follow``, a per-window playback of
    the snapshot precedes the summary.
    """
    lines: list[str] = []
    title = f"observatory — {name}" if name else "observatory"
    lines.append(f"{title}   {payload.get('schema', '')}")
    status = ("PARTIAL: " + payload.get("partial_reason", "")
              if payload.get("partial") else "ring complete")
    lines.append(
        f"horizon {payload.get('horizon_s', 0.0):.6f}s · "
        f"{payload.get('windows', 0)} windows × "
        f"{payload.get('window_s', 0.0) * 1e3:g} ms · {status}")
    series = payload.get("series", [])
    horizon = payload.get("horizon_s", 0.0) or 1.0
    totals = payload.get("totals", {})

    if follow and series:
        lines.append("")
        lines.append(f"{'win':>4} {'start (s)':>10} {'hottest pool':32}"
                     f" {'sat':>6} {'queue':>6} {'bytes moved':>14}")
        for entry in series:
            saturation = entry.get("saturation", {})
            busy = [(share, pool) for pool, share
                    in saturation.items()
                    if not pool.startswith("wait:")]
            top_share, top_pool = max(busy, default=(0.0, "-"))
            queue = saturation.get("wait:other", 0.0)
            moved = sum(entry.get("link_bytes", {}).values())
            lines.append(
                f"{entry['window']:>4} {entry['start']:>10.6f} "
                f"{top_pool:32} {top_share:>6.1%} {queue:>6.1%} "
                f"{_fmt_bytes(moved):>14}")

    lines.append("")
    lines.append(f"{'pool':34} {'busy (s)':>12} {'share':>7} "
                 f"{'peak win':>9} {'peak sat':>9}")
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    for pool, seconds in ranked[:TOP_POOLS]:
        peak_win, peak_sat = 0, 0.0
        for entry in series:
            sat = entry.get("saturation", {}).get(pool, 0.0)
            if sat > peak_sat:
                peak_win, peak_sat = entry["window"], sat
        lines.append(f"{pool:34} {seconds:>12.6f} "
                     f"{seconds / horizon:>7.1%} {peak_win:>9} "
                     f"{peak_sat:>9.1%}")

    bound = payload.get("bound", {})
    by_tenant = bound.get("by_tenant", {})
    if by_tenant:
        classes = sorted({cls for cell in by_tenant.values()
                          for cls in cell})
        lines.append("")
        lines.append("bound queries by tenant (dominant resource "
                     "class):")
        header = f"{'tenant':12}" + "".join(f"{c:>14}"
                                            for c in classes)
        lines.append(header + f"{'total':>8}")
        hottest = sorted(by_tenant.items(),
                         key=lambda kv: (-sum(kv[1].values()), kv[0]))
        for tenant, cell in hottest:
            row = f"{tenant:12}" + "".join(
                f"{cell.get(c, 0):>14}" for c in classes)
            lines.append(row + f"{sum(cell.values()):>8}")

    regret = payload.get("regret", {})
    leaders = regret.get("leaders", [])
    lines.append("")
    lines.append("placement-regret leaders (effective cost on the "
                 "observed fabric):")
    if not leaders:
        lines.append("  none — no completed query had plan "
                     "alternatives to regret")
    else:
        lines.append(f"  {'query':30} {'tenant':10} {'chosen':10} "
                     f"{'best':10} {'regret (s)':>12} {'ratio':>7}")
        for entry in leaders:
            lines.append(
                f"  {entry['name']:30} {entry['tenant']:10} "
                f"{entry['chosen']:10} {entry['best']:10} "
                f"{entry['regret_s']:>12.9f} "
                f"{entry['regret_ratio']:>7.1%}")
        by_tenant_regret = regret.get("by_tenant", {})
        switches = sum(c.get("switch_opportunities", 0)
                       for c in by_tenant_regret.values())
        total = sum(c.get("total_regret_s", 0.0)
                    for c in by_tenant_regret.values())
        lines.append(
            f"  total regret {total:.9f}s over "
            f"{len(regret.get('queries', []))} scored queries "
            f"({switches} switch opportunities)")
    return "\n".join(lines)
