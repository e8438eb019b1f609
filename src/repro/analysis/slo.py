"""Multi-window SLO burn-rate monitoring for serving runs.

The serving telemetry (:mod:`repro.serve.telemetry`) folds every
completion into tumbling virtual-time windows of :data:`WINDOW_S`
(the observatory tiles the run with the same width); this module
watches those windows and answers the on-call question: *is this
tenant spending its error budget faster than it can afford?*

The mechanics are the standard SRE multi-window burn-rate alert, with
one policy for every tenant (the module constants below):

* A tenant's **error budget** is ``1 - SLO_TARGET`` — the fraction of
  completions allowed to miss their latency SLO.
* The **burn rate** over a span of windows is the observed violation
  fraction divided by the budget: burn 1.0 means the budget is being
  spent exactly as provisioned; burn 2.0 means twice as fast.
* An alert **fires** when the burn rate over the *fast* span (last
  ``FAST_WINDOWS`` windows) **and** the *slow* span (last
  ``SLOW_WINDOWS`` windows) both reach ``BURN_THRESHOLD`` — the fast
  span makes the alert responsive, the slow span keeps one bad window
  from paging — and **resolves** when either drops back below it.

Edge semantics (pinned by tests):

* burn rates compare with ``>=`` — a tenant burning *exactly* at the
  threshold is alerting, not "one violation away";
* a span with zero completions has burn 0.0 — empty windows are
  silence, not division by zero (and an ongoing alert resolves);
* a zero budget makes any violation in the span an infinite burn;
* a tenant that never completes anything never alerts.

Everything here is pure arithmetic over the windowed series, so the
alert stream is *reconstructible*: :func:`replay_alerts` recomputes
it from the series alone, and the serve-smoke CI gate asserts the
live monitor and the replay agree alert for alert.
"""

from __future__ import annotations

__all__ = ["BurnRateMonitor", "burn_rate", "replay_alerts",
           "alert_mismatches", "WINDOW_S"]

WINDOW_S = 0.005
"""Tumbling-window width (simulated seconds) of both serving observers."""
SLO_TARGET = 0.99
"""Fraction of a tenant's completions that must meet the latency SLO."""
BURN_THRESHOLD = 1.0
"""Burn rate at or above which an alert fires."""
FAST_WINDOWS = 3
"""The responsive span, in windows."""
SLOW_WINDOWS = 12
"""The confirmation span, in windows."""


def burn_rate(violations: int, completions: int,
              budget: float) -> float:
    """Observed violation fraction over ``budget`` (0.0 if idle)."""
    if completions <= 0:
        return 0.0
    fraction = violations / completions
    if budget <= 0.0:
        return float("inf") if fraction > 0.0 else 0.0
    return fraction / budget


class BurnRateMonitor:
    """Streaming multi-window burn-rate state machine (one tenant).

    Feed it *dense* windows in index order via :meth:`observe` — one
    call per tumbling window, empty windows included.  Each call
    returns the alert transition it caused (a dict) or ``None``.
    The windowed series a report serializes carries everything needed
    to replay the alert stream (:func:`replay_alerts`).
    """

    def __init__(self):
        self.burning = False
        self._completions: list[int] = []
        self._violations: list[int] = []

    def _span_burn(self, span: int) -> float:
        completions = sum(self._completions[-span:])
        violations = sum(self._violations[-span:])
        return burn_rate(violations, completions, 1.0 - SLO_TARGET)

    def observe(self, index: int, completions: int, violations: int,
                at: float) -> dict | None:
        """Fold window ``index`` in; returns a fired/resolved alert.

        ``at`` is the window's closing timestamp, carried onto the
        alert for trace emission.  Windows must arrive densely and in
        order (the telemetry layer guarantees this).
        """
        if index != len(self._completions):
            raise ValueError(
                f"windows must be observed densely in order: got "
                f"index {index}, expected {len(self._completions)}")
        self._completions.append(completions)
        self._violations.append(violations)
        fast = self._span_burn(FAST_WINDOWS)
        slow = self._span_burn(SLOW_WINDOWS)
        burning = fast >= BURN_THRESHOLD and slow >= BURN_THRESHOLD
        if burning == self.burning:
            return None
        self.burning = burning
        return {
            "window": index,
            "ts": at,
            "kind": "fired" if burning else "resolved",
            "fast_burn": fast,
            "slow_burn": slow,
            "threshold": BURN_THRESHOLD,
        }


def replay_alerts(series: list[dict], window_s: float) -> list[dict]:
    """Recompute one tenant's alert stream from its windowed series.

    ``series`` is the dense per-window list the telemetry payload
    carries (each entry holding ``window``, ``completions`` and
    ``violations``).  Pure arithmetic — the reconstruction the
    alert-accounting CI gate diffs against the live alerts.
    """
    monitor = BurnRateMonitor()
    out: list[dict] = []
    for entry in series:
        index = entry["window"]
        alert = monitor.observe(index, entry["completions"],
                                entry["violations"],
                                at=(index + 1) * window_s)
        if alert is not None:
            out.append(alert)
    return out


def alert_mismatches(tenant_series: dict[str, list[dict]],
                     alerts: list[dict], window_s: float) -> list[str]:
    """Diff a live alert stream against the series replay.

    ``alerts`` carry a ``tenant`` key; every alert must be
    reconstructible (same window, kind, and burn values) from the
    windowed series alone — and vice versa.  Returns human-readable
    mismatch strings ([] = exact).
    """
    errors: list[str] = []
    for tenant in sorted(tenant_series):
        expected = replay_alerts(tenant_series[tenant], window_s)
        got = [
            {k: v for k, v in alert.items() if k != "tenant"}
            for alert in alerts if alert.get("tenant") == tenant]
        if expected != got:
            errors.append(
                f"{tenant}: alert stream not reconstructible from "
                f"windowed series (replay {len(expected)} alerts, "
                f"live {len(got)})")
    known = set(tenant_series)
    for alert in alerts:
        if alert.get("tenant") not in known:
            errors.append(f"alert for unknown tenant "
                          f"{alert.get('tenant')!r}")
    return errors
