"""Multi-tenant query serving: the long-lived server mode.

The paper's engines are long-lived streaming data-flow processors,
not one-shot query runners; this package makes the reproduction
behave that way.  A :class:`~repro.serve.server.QueryServer` keeps
one warm fabric + catalog and serves whole simulated user
populations through three layers:

* **admission control** — a bounded queue with load shedding and
  retry-after hints (:mod:`repro.serve.admission`);
* **per-tenant weighted fair queueing** — start-time fair queueing
  over tenant classes so no tenant starves
  (:mod:`repro.serve.fairqueue`);
* **plan caching** — repeat queries skip optimization entirely via a
  cache keyed by each template's plan object and checked against the
  schema and placement context its ranking read
  (:mod:`repro.serve.plancache`).

Admitted queries run through the existing interference-aware
:class:`~repro.scheduler.scheduler.QueryExecutor` on the shared
fabric.  Clients run on the same simulator as everything else:
open arrivals are absolute-time kernel callbacks and closed-loop
clients are simulator processes (:mod:`repro.serve.scenarios`), so
serving runs are bit-reproducible under a fixed seed.
"""

from .admission import AdmissionController, AdmissionDecision
from .dashboard import render_dashboard, write_dashboard
from .fairqueue import WeightedFairQueue
from .loadgen import Arrival, open_arrivals, schedule_for
from .plancache import PlanCache
from .scenarios import SERVE_SCENARIOS, run_scenario, \
    serve_scenario, serve_scenario_server, serve_templates
from .server import QueryServer, ServeConfig, ServeRecord
from .telemetry import QuantileSketch, ServeTelemetry, \
    TELEMETRY_SCHEMA
from .tenants import ArrivalSpec, TenantClass

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "Arrival",
    "ArrivalSpec",
    "PlanCache",
    "QuantileSketch",
    "QueryServer",
    "SERVE_SCENARIOS",
    "ServeConfig",
    "ServeRecord",
    "ServeTelemetry",
    "TELEMETRY_SCHEMA",
    "TenantClass",
    "WeightedFairQueue",
    "open_arrivals",
    "render_dashboard",
    "run_scenario",
    "serve_scenario",
    "schedule_for",
    "serve_scenario_server",
    "serve_templates",
    "write_dashboard",
]
