"""Self-contained HTML attribution reports (``repro report``).

Renders the what-if payloads of :mod:`repro.analysis.whatif` into a
single HTML file with zero external dependencies — inline CSS, no
scripts, no fonts — so the file works as a CI artifact viewed
offline.  A machine-readable ``repro.whatif/v1`` JSON with the same
content is written alongside the HTML.
"""

from __future__ import annotations

import html
import json
import os
from typing import Sequence

from .whatif import WHATIF_SCHEMA

__all__ = ["render_report", "write_report"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1c2733;
       background: #fafbfc; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #d0d7de;
     padding-bottom: .4rem; }
h2 { font-size: 1.2rem; margin-top: 2.2rem; }
h3 { font-size: 1rem; color: #57606a; }
table { border-collapse: collapse; margin: .6rem 0 1.2rem;
        font-size: .85rem; }
th, td { border: 1px solid #d0d7de; padding: .3rem .6rem;
         text-align: right; }
th { background: #eef1f4; }
td.name, th.name { text-align: left; font-family: ui-monospace,
                   'SF Mono', Menlo, monospace; }
.bar { display: inline-block; height: .7rem; background: #4078c0;
       vertical-align: middle; margin-right: .4rem; }
.bar.wait { background: #d1242f; }
.badge { display: inline-block; padding: .1rem .45rem;
         border-radius: .6rem; font-size: .75rem; color: #fff; }
.badge.ok { background: #1a7f37; }
.badge.bad { background: #d1242f; }
.badge.off { background: #9a6700; }
.meta { color: #57606a; font-size: .85rem; }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _badge(ok: bool, yes: str, no: str) -> str:
    cls, text = ("ok", yes) if ok else ("bad", no)
    return f'<span class="badge {cls}">{_esc(text)}</span>'


def _attribution_table(attribution: dict) -> list[str]:
    elapsed = attribution.get("elapsed_s", 0.0) or 1.0
    out = ["<table><tr><th class=name>bucket</th>"
           "<th>seconds</th><th>share</th><th class=name></th></tr>"]
    for bucket, seconds in attribution.get("buckets", {}).items():
        share = seconds / elapsed
        wait = " wait" if bucket.startswith("wait:") else ""
        width = max(1, round(share * 240))
        out.append(
            f"<tr><td class=name>{_esc(bucket)}</td>"
            f"<td>{seconds:.9f}</td><td>{share * 100:.2f}%</td>"
            f'<td class=name><span class="bar{wait}" '
            f'style="width:{width}px"></span></td></tr>')
    out.append("</table>")
    return out


def _sensitivity_table(payload: dict) -> list[str]:
    factors = [f"{f:g}" for f in payload.get("factors", [])]
    out = ["<table><tr><th class=name>resource</th>"]
    out += [f"<th>&times;{_esc(f)}</th>" for f in factors]
    out.append("<th>max speedup</th><th>verdict</th></tr>")
    for row in payload.get("sensitivity", []):
        cells = "".join(
            f"<td>{row['speedups'].get(f, 1.0):.3f}&times;</td>"
            for f in factors)
        verdict = ('<span class="badge ok">on-path</span>'
                   if row.get("on_path")
                   else '<span class="badge off">off-path</span>')
        out.append(
            f"<tr><td class=name>{_esc(row['resource'])}</td>{cells}"
            f"<td>{row['max_speedup']:.3f}&times;</td>"
            f"<td>{verdict}</td></tr>")
    out.append("</table>")
    return out


def _stalls_table(stalls: dict) -> list[str]:
    if not stalls:
        return ["<p class=meta>no stalls recorded — the pipeline "
                "never blocked</p>"]
    out = ["<table><tr><th class=name>stage</th>"
           "<th>credit-starved</th><th>downstream-full</th>"
           "<th>device-busy</th><th>total</th></tr>"]
    for stage, stats in stalls.items():
        out.append(
            f"<tr><td class=name>{_esc(stage)}</td>"
            f"<td>{stats.get('credit_starved_s', 0.0):.6f}</td>"
            f"<td>{stats.get('downstream_full_s', 0.0):.6f}</td>"
            f"<td>{stats.get('device_busy_s', 0.0):.6f}</td>"
            f"<td>{stats.get('total_s', 0.0):.6f}</td></tr>")
    out.append("</table>")
    return out


def _ledger_table(ledger: list, max_rows: int = 30) -> list[str]:
    if not ledger:
        return ["<p class=meta>no link crossings recorded</p>"]
    out = ["<table><tr><th class=name>link</th>"
           "<th class=name>operator</th><th class=name>direction</th>"
           "<th>bytes</th><th>chunks</th></tr>"]
    for row in ledger[:max_rows]:
        out.append(
            f"<tr><td class=name>{_esc(row['link'])}</td>"
            f"<td class=name>{_esc(row['actor'])}</td>"
            f"<td class=name>{_esc(row['direction'])}</td>"
            f"<td>{row['bytes']:,.0f}</td>"
            f"<td>{row['chunks']:,.0f}</td></tr>")
    out.append("</table>")
    if len(ledger) > max_rows:
        out.append(f"<p class=meta>&hellip; {len(ledger)} ledger "
                   "rows total</p>")
    return out


def _query_section(payload: dict) -> list[str]:
    baseline = payload.get("baseline", {})
    attribution = baseline.get("attribution", {})
    out = [f"<h2>{_esc(payload.get('query'))} &mdash; "
           f"{_esc(payload.get('title', ''))}</h2>"]
    out.append(
        "<p class=meta>"
        f"engine {_esc(payload.get('engine'))} &middot; "
        f"{payload.get('rows', 0):,} rows &middot; "
        f"simulated {baseline.get('sim_time_s', 0.0):.6f} s &middot; "
        f"checksum <code>{_esc(baseline.get('checksum', '')[:12])}"
        "&hellip;</code> "
        + _badge(baseline.get("verified_identical", False),
                 "baseline bit-identical", "baseline NOT identical")
        + " "
        + _badge(attribution.get("exact", False),
                 "attribution exact", "attribution NOT exact")
        + "</p>")
    out.append("<h3>critical-path attribution</h3>")
    out += _attribution_table(attribution)
    out.append("<h3>per-resource sensitivity (virtual speedups)</h3>")
    out += _sensitivity_table(payload)
    off_path = payload.get("off_path", [])
    if off_path:
        out.append("<p class=meta>off-path (&lt;2% gain even at the "
                   "largest factor): "
                   + ", ".join(f"<code>{_esc(r)}</code>"
                               for r in off_path)
                   + "</p>")
    out.append("<h3>backpressure stalls</h3>")
    out += _stalls_table(baseline.get("stalls", {}))
    out.append("<h3>movement ledger</h3>")
    out += _ledger_table(baseline.get("ledger", []))
    return out


def _page_head(title: str, css: str = _CSS) -> list[str]:
    """The opening of every page this package writes, up to <body>."""
    return [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{css}</style></head><body>",
    ]


def _write_page(path: str, html_text: str, twin: dict) -> tuple[str, str]:
    """Write a page and its JSON twin (same basename, ``.json``)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(html_text)
    json_path = os.path.splitext(path)[0] + ".json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(twin, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path, json_path


def render_report(payloads: Sequence[dict],
                  title: str = "Bottleneck attribution report") -> str:
    """Render what-if payloads as one self-contained HTML page."""
    parts = _page_head(title) + [
        f"<h1>{_esc(title)}</h1>",
        f"<p class=meta>schema {_esc(WHATIF_SCHEMA)} &middot; "
        f"{len(payloads)} quer"
        f"{'y' if len(payloads) == 1 else 'ies'}</p>",
    ]
    for payload in payloads:
        parts += _query_section(payload)
    parts.append("</body></html>")
    return "\n".join(parts)


def write_report(path: str, payloads: Sequence[dict],
                 title: str = "Bottleneck attribution report"
                 ) -> tuple[str, str]:
    """Write the HTML report and its JSON twin; return both paths.

    The JSON lands next to the HTML (same basename, ``.json``) and
    carries the raw ``repro.whatif/v1`` payloads for CI consumption.
    """
    return _write_page(path, render_report(payloads, title=title),
                       {"schema": WHATIF_SCHEMA, "title": title,
                        "queries": list(payloads)})
