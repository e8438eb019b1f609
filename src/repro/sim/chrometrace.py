"""Chrome / Perfetto ``trace_events`` exporter.

Renders a :class:`~repro.sim.trace.Trace` as the JSON object format
understood by ``chrome://tracing`` and https://ui.perfetto.dev: a
``traceEvents`` array of phase-coded records with microsecond
timestamps.  Devices, stages, links and queries become *process*
tracks (``pid``); each span name or event actor becomes a *thread*
row (``tid``) inside its track.

Mapping:

* closed **spans** → complete slices (``ph: "X"`` with ``dur``);
* **events** with a duration (credit stalls, DMA windows) → complete
  slices on their actor's row;
* instantaneous **events** → instants (``ph: "i"``);
* ``chunk_emit`` / ``chunk_recv`` pairs sharing a ``flow_id`` → flow
  arrows (``ph: "s"`` / ``ph: "f"``) so a chunk's journey between
  stages is drawn as a connecting arc;
* serving lifecycle events → a *tenants* track with one lane per
  tenant: ``serve_start`` / ``serve_done`` pairs (matched by query
  context id) become per-query slices, arrivals / sheds / alerts
  become instants — so interleaved queries from many tenants render
  as parallel lanes instead of a single muddled row;
* ``M``-phase metadata names every process and thread.

Multi-query rings are safe: flow arrows are emitted only when both
ends of the pair survive in the bounded ring, and serve slices only
when both ``serve_start`` and ``serve_done`` are present for the
context — a query cut short (or half-evicted) renders as instants,
never as a dangling arrow or an unterminated slice.

Simulated seconds are scaled by 1e6 to the format's microseconds, so
one simulated second reads as one second in the viewer.
"""

from __future__ import annotations

import json

from .events import EventKind
from .trace import Trace

__all__ = ["chrome_trace", "export_chrome_trace"]

_US = 1e6  # simulated seconds -> trace_events microseconds

# Process-track ids, in display order.
_PID_QUERIES = 1
_PID_DEVICES = 2
_PID_STAGES = 3
_PID_CHANNELS = 4
_PID_LINKS = 5
_PID_OTHER = 6
_PID_TENANTS = 7

_PID_NAMES = {
    _PID_QUERIES: "queries",
    _PID_DEVICES: "devices",
    _PID_STAGES: "stages",
    _PID_CHANNELS: "channels",
    _PID_LINKS: "links",
    _PID_OTHER: "other",
    _PID_TENANTS: "tenants",
}

_EVENT_ACTOR_PIDS = {
    EventKind.CHUNK_EMIT: _PID_CHANNELS,
    EventKind.CHUNK_RECV: _PID_CHANNELS,
    EventKind.CREDIT_GRANT: _PID_CHANNELS,
    EventKind.CREDIT_STALL: _PID_CHANNELS,
    EventKind.DMA_ISSUE: _PID_LINKS,
    EventKind.DMA_COMPLETE: _PID_LINKS,
}

# Serving lifecycle events render on the tenants track, handled by
# the dedicated lane builder rather than the generic event loop.
_SERVE_KINDS = (EventKind.SERVE_ARRIVE, EventKind.SERVE_SHED,
                EventKind.SERVE_START, EventKind.SERVE_DONE,
                EventKind.ALERT)


def _span_pid(name: str) -> int:
    if name.startswith(("query.", "sched.")):
        # Batch queries open ``query.*`` spans; scheduled and served
        # queries open ``sched.query.*`` — both are query timelines.
        return _PID_QUERIES
    if name.startswith("device."):
        return _PID_DEVICES
    if name.startswith("stage."):
        return _PID_STAGES
    if name.startswith(("link.", "storage.", "nic.")):
        return _PID_LINKS
    return _PID_OTHER


def _event_pid(event) -> int:
    pid = _EVENT_ACTOR_PIDS.get(event.kind)
    if pid is not None:
        return pid
    if event.actor.startswith("device."):
        return _PID_DEVICES
    if event.actor.startswith(("stage.", "query.")):
        return _PID_STAGES if event.actor.startswith("stage.") \
            else _PID_QUERIES
    return _PID_OTHER


class _Tids:
    """Stable thread-row ids per (pid, row-name)."""

    def __init__(self):
        self._ids: dict[tuple[int, str], int] = {}
        self.names: dict[tuple[int, int], str] = {}

    def get(self, pid: int, name: str) -> int:
        key = (pid, name)
        tid = self._ids.get(key)
        if tid is None:
            tid = len([k for k in self._ids if k[0] == pid]) + 1
            self._ids[key] = tid
            self.names[(pid, tid)] = name
        return tid


def _tenant_lane_records(trace: Trace, tids: "_Tids") -> list[dict]:
    """The tenants track: one lane per tenant, one slice per query.

    ``serve_start`` / ``serve_done`` events are matched by query
    context id (``qid``); only complete pairs become slices, so a
    half-evicted or still-running query never leaves an unterminated
    slice.  Arrivals, sheds and burn-rate alerts render as instants
    on the same lanes.
    """
    records: list[dict] = []
    starts: dict[int, object] = {}
    dones: dict[int, object] = {}
    for event in trace.events:
        if event.kind == EventKind.SERVE_START and event.qid:
            starts[event.qid] = event
        elif event.kind == EventKind.SERVE_DONE and event.qid:
            dones[event.qid] = event

    def lane(event) -> tuple[int, str]:
        context = trace.contexts.get(event.qid, {})
        tenant = context.get("tenant", "")
        if not tenant and event.actor.startswith("serve."):
            tenant = event.actor[len("serve."):]
        name = f"tenant:{tenant}" if tenant else (event.actor
                                                  or "serve")
        return tids.get(_PID_TENANTS, name), name

    for qid in sorted(starts.keys() & dones.keys()):
        start, done = starts[qid], dones[qid]
        tid, _ = lane(start)
        context = trace.contexts.get(qid, {})
        records.append({
            "name": context.get("name", f"qid{qid}"), "ph": "X",
            "cat": "serve", "ts": start.ts * _US,
            "dur": max(done.ts - start.ts, 0.0) * _US,
            "pid": _PID_TENANTS, "tid": tid,
            "args": {"qid": qid,
                     "latency_s": done.dur}})
    for event in trace.events:
        if event.kind not in (EventKind.SERVE_ARRIVE,
                              EventKind.SERVE_SHED, EventKind.ALERT):
            continue
        if event.kind == EventKind.ALERT:
            tenant = event.actor[len("slo."):] \
                if event.actor.startswith("slo.") else event.actor
            tid = tids.get(_PID_TENANTS, f"tenant:{tenant}")
        else:
            tid, _ = lane(event)
        record = {"name": event.kind, "ph": "i", "s": "t",
                  "cat": "serve", "ts": event.ts * _US,
                  "pid": _PID_TENANTS, "tid": tid}
        if event.label:
            record["args"] = {"label": event.label}
        records.append(record)
    return records


def _paired_flow_ids(trace: Trace) -> set[int]:
    """Flow ids with both a ``chunk_emit`` and a ``chunk_recv``.

    A send whose receive fell out of the (bounded) event ring — or
    never happened because the run was cut short — must not emit a
    dangling flow arrow: Perfetto renders an unmatched ``ph: "s"`` as
    an arrow into nowhere and some validators reject it outright.
    """
    emitted: set[int] = set()
    received: set[int] = set()
    for event in trace.events:
        if not event.flow_id:
            continue
        if event.kind == EventKind.CHUNK_EMIT:
            emitted.add(event.flow_id)
        elif event.kind == EventKind.CHUNK_RECV:
            received.add(event.flow_id)
    return emitted & received


def chrome_trace(trace: Trace) -> dict:
    """``trace`` rendered as a Chrome ``trace_events`` JSON object."""
    tids = _Tids()
    records: list[dict] = []
    paired = _paired_flow_ids(trace)

    for name, spans in sorted(trace.spans.items()):
        pid = _span_pid(name)
        tid = tids.get(pid, name)
        for span in spans:
            end = span.end if span.end is not None else trace.clock
            records.append({
                "name": name, "ph": "X", "cat": "span",
                "ts": span.start * _US,
                "dur": max(end - span.start, 0.0) * _US,
                "pid": pid, "tid": tid,
            })

    records.extend(_tenant_lane_records(trace, tids))

    for event in trace.events:
        if event.kind in _SERVE_KINDS:
            continue  # rendered on the tenants track above
        pid = _event_pid(event)
        tid = tids.get(pid, event.actor or event.kind)
        args: dict = {}
        if event.label:
            args["label"] = event.label
        if event.nbytes:
            args["nbytes"] = event.nbytes
        if event.qid:
            args["qid"] = event.qid
        base = {"name": event.kind, "cat": "event",
                "pid": pid, "tid": tid}
        if args:
            base["args"] = args
        if event.dur > 0:
            records.append({**base, "ph": "X",
                            "ts": event.ts * _US,
                            "dur": event.dur * _US})
        else:
            records.append({**base, "ph": "i", "s": "t",
                            "ts": event.ts * _US})
        if event.flow_id in paired and event.kind in (
                EventKind.CHUNK_EMIT, EventKind.CHUNK_RECV):
            ph = "s" if event.kind == EventKind.CHUNK_EMIT else "f"
            flow = {"name": "chunk", "cat": "flow", "ph": ph,
                    "id": event.flow_id,
                    "ts": (event.ts + event.dur) * _US,
                    "pid": pid, "tid": tid}
            if ph == "f":
                flow["bp"] = "e"
            records.append(flow)

    records.sort(key=lambda r: (r["ts"], r["pid"], r["tid"]))

    # Metadata records carry ts/tid too so every traceEvents entry is
    # uniformly shaped (harmless to viewers, kind to validators).
    metadata: list[dict] = []
    used_pids = sorted({r["pid"] for r in records})
    for pid in used_pids:
        metadata.append({"name": "process_name", "ph": "M", "ts": 0,
                         "pid": pid, "tid": 0,
                         "args": {"name": _PID_NAMES[pid]}})
        metadata.append({"name": "process_sort_index", "ph": "M",
                         "ts": 0, "pid": pid, "tid": 0,
                         "args": {"sort_index": pid}})
    for (pid, tid), name in sorted(tids.names.items()):
        metadata.append({"name": "thread_name", "ph": "M", "ts": 0,
                         "pid": pid, "tid": tid,
                         "args": {"name": name}})

    return {"traceEvents": metadata + records,
            "displayTimeUnit": "ms",
            "otherData": {"event_ring": trace.events.stats()}}


def export_chrome_trace(trace: Trace, path: str) -> dict:
    """Write :func:`chrome_trace` output as JSON to ``path``."""
    payload = chrome_trace(trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    return payload
