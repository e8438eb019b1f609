"""Self-contained HTML serving dashboard (``repro serve --report``).

Renders one serving record (with its ``repro.serve-telemetry/v1``
section) into a single HTML file with zero external fetches — inline
CSS, inline SVG sparklines, no scripts, no fonts — so the file works
as a CI artifact viewed offline.  The machine-readable telemetry JSON
is written alongside the HTML for ``repro bench --serve --compare``
and the serve-smoke gates.

Layout: a header strip of whole-run aggregates, one section per
tenant (SLO policy, per-window sparklines of arrivals / completions /
sheds / violations / queue depth, sketch percentiles, burn state),
the alert log, and the tail-exemplar table with per-exemplar
critical-path attribution bars.
"""

from __future__ import annotations

from ..analysis.report import (
    _CSS as _REPORT_CSS,
    _badge,
    _esc,
    _page_head,
    _write_page,
)
from .telemetry import TELEMETRY_SCHEMA

__all__ = ["render_dashboard", "write_dashboard"]

_CSS = _REPORT_CSS + """\
.spark { vertical-align: middle; background: #fff;
         border: 1px solid #d0d7de; }
.kpi { display: inline-block; margin-right: 1.6rem; }
.kpi b { font-size: 1.15rem; }
"""


def _sparkline(values: list[float], color: str) -> str:
    """An inline SVG sparkline, 28 px high, over per-window values."""
    height = 28
    n = len(values)
    if not n:
        return '<span class="meta">no windows</span>'
    width = max(40, min(480, 6 * n))
    top = max(values)
    if top <= 0:
        top = 1.0
    step = width / n
    points = []
    for i, value in enumerate(values):
        x = (i + 0.5) * step
        y = height - 2 - (height - 4) * (value / top)
        points.append(f"{x:.1f},{y:.1f}")
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{" ".join(points)}"/></svg> '
        f'<span class="meta">max {top:g}</span>')


def _kpis(record: dict) -> str:
    latency = record.get("latency", {})
    items = [
        ("queries", f"{record.get('queries', 0):,}"),
        ("completed", f"{record.get('completed', 0):,}"),
        ("shed", f"{record.get('shed', 0):,}"),
        ("SLO violations", f"{record.get('slo_violations', 0):,}"),
        ("p50", f"{latency.get('p50_s', 0.0) * 1e3:.3f} ms"),
        ("p99", f"{latency.get('p99_s', 0.0) * 1e3:.3f} ms"),
        ("goodput", f"{record.get('goodput_qps', 0.0):,.0f} q/s"),
    ]
    return "<p>" + "".join(
        f'<span class="kpi">{_esc(label)}<br><b>{_esc(value)}</b>'
        "</span>" for label, value in items) + "</p>"


_SERIES_ROWS = (
    ("arrivals", "arrivals", "#4078c0"),
    ("completions", "completions", "#1a7f37"),
    ("sheds", "sheds", "#9a6700"),
    ("violations", "SLO violations", "#d1242f"),
    ("queue_depth_max", "queue depth (max)", "#57606a"),
)


def _tenant_section(name: str, data: dict) -> list[str]:
    policy = data.get("policy", {})
    series = data.get("series", [])
    sketch = data.get("sketch", {})
    out = [f"<h2>tenant <code>{_esc(name)}</code> "
           + _badge(not data.get("burning", False),
                    "within budget", "BURNING")
           + "</h2>"]
    out.append(
        "<p class=meta>"
        f"SLO target {policy.get('target', 0.0):.4g} &middot; "
        f"burn threshold &ge;{policy.get('threshold', 0.0):g} "
        f"(fast {policy.get('fast_windows', 0)}w / slow "
        f"{policy.get('slow_windows', 0)}w) &middot; "
        f"p50 {data.get('p50_s', 0.0) * 1e3:.3f} ms &middot; "
        f"p99 {data.get('p99_s', 0.0) * 1e3:.3f} ms &middot; "
        f"sketch {sketch.get('count', 0)} points, rank error "
        f"&le;{sketch.get('rank_error_bound', 0)}</p>")
    out.append("<table>")
    for key, label, color in _SERIES_ROWS:
        values = [float(entry.get(key, 0)) for entry in series]
        out.append(f"<tr><td class=name>{_esc(label)}</td>"
                   f"<td>{sum(values):g}</td>"
                   f"<td style='text-align:left'>"
                   f"{_sparkline(values, color)}</td></tr>")
    out.append("</table>")
    return out


def _alerts_section(alerts: list[dict], window_s: float) -> list[str]:
    out = ["<h2>burn-rate alerts</h2>"]
    if not alerts:
        out.append("<p class=meta>no alerts fired — every tenant "
                   "stayed within its error budget</p>")
        return out
    out.append("<table><tr><th class=name>tenant</th><th>window</th>"
               "<th>at (s)</th><th class=name>kind</th>"
               "<th>fast burn</th><th>slow burn</th>"
               "<th>threshold</th></tr>")
    for alert in alerts:
        fired = alert.get("kind") == "fired"
        out.append(
            f"<tr><td class=name>{_esc(alert.get('tenant'))}</td>"
            f"<td>{alert.get('window', 0)}</td>"
            f"<td>{alert.get('ts', 0.0):.6f}</td>"
            f"<td class=name>"
            + _badge(not fired, alert.get("kind", ""),
                     alert.get("kind", ""))
            + f"</td><td>{alert.get('fast_burn', 0.0):.2f}</td>"
            f"<td>{alert.get('slow_burn', 0.0):.2f}</td>"
            f"<td>{alert.get('threshold', 0.0):g}</td></tr>")
    out.append("</table>")
    out.append(f"<p class=meta>windows are {window_s * 1e3:g} ms of "
               "virtual time; an alert's timestamp is the closing "
               "edge of the window that triggered it</p>")
    return out


def _attribution_bars(attribution: dict) -> str:
    elapsed = attribution.get("elapsed_s", 0.0) or 1.0
    parts = []
    for bucket, seconds in list(
            attribution.get("buckets", {}).items())[:4]:
        share = seconds / elapsed
        wait = " wait" if bucket.startswith("wait:") else ""
        width = max(1, round(share * 120))
        parts.append(
            f'<span class="bar{wait}" style="width:{width}px" '
            f'title="{_esc(bucket)}"></span>'
            f"{_esc(bucket)} {share * 100:.0f}%")
    return "<br>".join(parts)


def _exemplars_section(exemplars: list[dict]) -> list[str]:
    out = ["<h2>tail exemplars</h2>"]
    if not exemplars:
        out.append("<p class=meta>no completions — nothing to "
                   "exemplify</p>")
        return out
    out.append(
        "<table><tr><th class=name>query</th><th>window</th>"
        "<th>latency (ms)</th><th>queued (ms)</th><th>SLO</th>"
        "<th>events</th><th class=name>critical path</th></tr>")
    for exemplar in exemplars:
        attribution = exemplar.get("attribution", {})
        out.append(
            f"<tr><td class=name>{_esc(exemplar.get('name'))}</td>"
            f"<td>{exemplar.get('window', 0)}</td>"
            f"<td>{exemplar.get('latency_s', 0.0) * 1e3:.3f}</td>"
            f"<td>{exemplar.get('queued_s', 0.0) * 1e3:.3f}</td>"
            "<td>"
            + _badge(not exemplar.get("violated", False), "met",
                     "violated")
            + "</td>"
            f"<td>{len(exemplar.get('events', []))}"
            + ("" if exemplar.get("slice_complete", True)
               else ' <span class="badge off">truncated</span>')
            + "</td>"
            f"<td class=name style='text-align:left'>"
            + _badge(attribution.get("exact", False), "exact",
                     "INEXACT")
            + "<br>" + _attribution_bars(attribution)
            + "</td></tr>")
    out.append("</table>")
    return out


def _observatory_section(observatory: dict) -> list[str]:
    """The saturation / bound / regret panel (observatory payload)."""
    out = ["<h2>saturation observatory</h2>"]
    status = _badge(not observatory.get("partial", False),
                    "ring complete",
                    "PARTIAL: "
                    + observatory.get("partial_reason", ""))
    out.append(
        "<p class=meta>"
        f"schema {_esc(observatory.get('schema', ''))} &middot; "
        f"{observatory.get('windows', 0)} windows of "
        f"{observatory.get('window_s', 0.0) * 1e3:g} ms over "
        f"{observatory.get('horizon_s', 0.0):.6f} s &middot; "
        + status + "</p>")

    series = observatory.get("series", [])
    totals = observatory.get("totals", {})
    horizon = observatory.get("horizon_s", 0.0) or 1.0
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    out.append("<table><tr><th class=name>pool</th>"
               "<th>busy (s)</th><th>share</th>"
               "<th>saturation per window</th></tr>")
    for pool, seconds in ranked[:10]:
        values = [entry.get("saturation", {}).get(pool, 0.0)
                  for entry in series]
        color = "#d1242f" if pool.startswith("wait:") else "#4078c0"
        out.append(f"<tr><td class=name>{_esc(pool)}</td>"
                   f"<td>{seconds:.6f}</td>"
                   f"<td>{seconds / horizon * 100:.1f}%</td>"
                   f"<td style='text-align:left'>"
                   f"{_sparkline(values, color)}</td></tr>")
    out.append("</table>")

    moved = [sum(entry.get("link_bytes", {}).values())
             for entry in series]
    out.append("<p class=meta>bytes moved per window (all links): "
               + _sparkline(moved, "#9a6700") + "</p>")

    by_tenant = observatory.get("bound", {}).get("by_tenant", {})
    if by_tenant:
        classes = sorted({cls for cell in by_tenant.values()
                          for cls in cell})
        out.append("<h3>bound queries by tenant (dominant resource "
                   "class)</h3>")
        out.append("<table><tr><th class=name>tenant</th>"
                   + "".join(f"<th>{_esc(c)}</th>" for c in classes)
                   + "<th>total</th></tr>")
        for tenant in sorted(by_tenant):
            cell = by_tenant[tenant]
            out.append(
                f"<tr><td class=name>{_esc(tenant)}</td>"
                + "".join(f"<td>{cell.get(c, 0)}</td>"
                          for c in classes)
                + f"<td>{sum(cell.values())}</td></tr>")
        out.append("</table>")

    regret = observatory.get("regret", {})
    leaders = regret.get("leaders", [])
    out.append("<h3>placement-regret leaders</h3>")
    if not leaders:
        out.append("<p class=meta>no completed query had plan "
                   "alternatives to regret</p>")
        return out
    out.append("<table><tr><th class=name>query</th>"
               "<th class=name>tenant</th><th class=name>chosen</th>"
               "<th class=name>observed best</th>"
               "<th>regret (ms)</th><th>ratio</th></tr>")
    for entry in leaders:
        out.append(
            f"<tr><td class=name>{_esc(entry.get('name'))}</td>"
            f"<td class=name>{_esc(entry.get('tenant'))}</td>"
            f"<td class=name>{_esc(entry.get('chosen'))}</td>"
            f"<td class=name>{_esc(entry.get('best'))}</td>"
            f"<td>{entry.get('regret_s', 0.0) * 1e3:.6f}</td>"
            f"<td>{entry.get('regret_ratio', 0.0) * 100:.1f}%"
            "</td></tr>")
    out.append("</table>")
    by_tenant_regret = regret.get("by_tenant", {})
    switches = sum(c.get("switch_opportunities", 0)
                   for c in by_tenant_regret.values())
    total = sum(c.get("total_regret_s", 0.0)
                for c in by_tenant_regret.values())
    out.append(f"<p class=meta>total regret {total:.6f} s over "
               f"{len(regret.get('queries', []))} scored queries "
               f"&middot; {switches} switch opportunities "
               "(observed best differs from the chosen variant) "
               "&mdash; the ranking signal for feedback-driven "
               "re-placement</p>")
    return out


def render_dashboard(record: dict,
                     title: str = "Serving dashboard") -> str:
    """Render one serving record as a self-contained HTML page."""
    telemetry = record.get("telemetry", {})
    parts = _page_head(title, _CSS) + [
        f"<h1>{_esc(title)} &mdash; {_esc(record.get('name'))}</h1>",
        "<p class=meta>"
        f"schema {_esc(telemetry.get('schema', TELEMETRY_SCHEMA))} "
        f"&middot; {telemetry.get('windows', 0)} windows of "
        f"{telemetry.get('window_s', 0.0) * 1e3:g} ms &middot; "
        f"simulated {record.get('sim_time_s', 0.0):.6f} s &middot; "
        f"digest <code>"
        f"{_esc(record.get('telemetry_digest', '')[:16])}&hellip;"
        "</code></p>",
        _kpis(record),
    ]
    tenants = telemetry.get("tenants", {})
    for name in sorted(tenants):
        parts += _tenant_section(name, tenants[name])
    observatory = record.get("observatory")
    if observatory:
        parts += _observatory_section(observatory)
    parts += _alerts_section(telemetry.get("alerts", []),
                             telemetry.get("window_s", 0.0))
    parts += _exemplars_section(telemetry.get("exemplars", []))
    parts.append("</body></html>")
    return "\n".join(parts)


def write_dashboard(path: str, record: dict,
                    title: str = "Serving dashboard"
                    ) -> tuple[str, str]:
    """Write the HTML dashboard and its telemetry JSON twin.

    The JSON lands next to the HTML (same basename, ``.json``) and
    carries the raw ``repro.serve-telemetry/v1`` payload plus the
    digest, for ``bench --serve --compare`` and CI consumption.
    """
    return _write_page(
        path, render_dashboard(record, title=title),
        {"schema": TELEMETRY_SCHEMA,
         "name": record.get("name", ""),
         "digest": record.get("telemetry_digest", ""),
         "telemetry": record.get("telemetry", {}),
         "observatory": record.get("observatory", {}),
         "observatory_digest": record.get("observatory_digest", "")})
