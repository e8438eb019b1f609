"""Multi-tenant query serving: the long-lived server mode.

The paper's engines are long-lived streaming data-flow processors,
not one-shot query runners; this package makes the reproduction
behave that way.  A :class:`~repro.serve.server.QueryServer` keeps
one warm fabric + catalog and serves whole simulated user
populations through three layers:

* **admission** — a bounded waiting room: a query arriving when it is
  full and every slot is busy is shed with a retry-after hint;
* **per-tenant weighted fair queueing** — start-time fair queueing
  over tenant classes so no tenant starves
  (:mod:`repro.serve.fairqueue`);
* **prepared templates** — each template's ``Query`` is built and its
  variants ranked once, at its first admitted submission, and every
  later submission reuses them.

The server keeps one record per query, and the records are the
ledger: admitted and shed counts, plan-cache hits and misses and the
makespan are all read off them.

Admitted queries run through the existing interference-aware
:class:`~repro.scheduler.scheduler.QueryExecutor` on the shared
fabric.  Clients run on the same simulator as everything else:
open arrivals are absolute-time kernel callbacks and closed-loop
clients are simulator processes (:mod:`repro.serve.scenarios`), so
serving runs are bit-reproducible under a fixed seed.
"""

from .. import _lazy_exports

_EXPORTS = {
    "Arrival": "loadgen",
    "ArrivalSpec": "tenants",
    "QuantileSketch": "telemetry",
    "QueryServer": "server",
    "SERVE_SCENARIOS": "scenarios",
    "ServeConfig": "tenants",
    "ServeRecord": "server",
    "ServeTelemetry": "telemetry",
    "TELEMETRY_SCHEMA": "telemetry",
    "TenantClass": "tenants",
    "WeightedFairQueue": "fairqueue",
    "open_arrivals": "loadgen",
    "render_dashboard": "dashboard",
    "run_scenario": "scenarios",
    "serve_scenario": "scenarios",
    "schedule_for": "loadgen",
    "serve_scenario_server": "scenarios",
    "serve_templates": "scenarios",
    "write_dashboard": "dashboard",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
