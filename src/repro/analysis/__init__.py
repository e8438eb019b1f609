"""Post-hoc analysis of simulated runs (critical path, what-if).

Three layers on top of the observability substrate:

* :mod:`critical_path` — walk a query's event/span window and
  attribute every instant of simulated time to a
  ``device | link | wait-reason`` bucket, with the bucket sums
  reconciling *exactly* (integer ticks of a power-of-two
  denominator) to the query's elapsed time.
* :mod:`whatif` — the causal profiler: re-run the deterministic
  simulation with one resource scaled at a time and measure the real
  speedup, COZ-style but exact because the simulator is a model we
  can actually perturb.
* :mod:`report` — self-contained HTML attribution report plus the
  ``repro.whatif/v1`` JSON artifact for CI.
* :mod:`observatory` — continuous per-window saturation series,
  bound-resource classification, and placement-regret scoring over a
  serving run (the ``repro.observatory/v1`` artifact and ``repro
  top``).
* :mod:`slo` — multi-window SLO burn-rate monitoring over the serving
  telemetry's per-tenant windowed series, with a pure replay path so
  CI can assert the live alert stream is reconstructible.
"""

from .critical_path import (
    Attribution,
    WinnerTimeline,
    attribute,
    attribute_query,
    attribute_windows,
    raw_intervals,
)
from .observatory import (
    OBSERVATORY_SCHEMA,
    Observatory,
    bound_class,
    effective_cost,
    render_top,
)
from .slo import (
    BurnRateMonitor,
    SLOPolicy,
    alert_mismatches,
    burn_rate,
    replay_alerts,
)
from .scenarios import (
    QUERIES,
    SCENARIOS,
    Scenario,
    ScenarioRun,
    figure_scenario,
    run_digest,
    run_scenario,
)
from .whatif import (
    DEFAULT_FACTORS,
    OFFPATH_GAIN,
    WHATIF_SCHEMA,
    optimizer_crosscheck,
    parse_vary,
    run_whatif,
    whatif_violations,
)
from .report import render_report, write_report

__all__ = [
    "Attribution",
    "attribute",
    "attribute_query",
    "attribute_windows",
    "WinnerTimeline",
    "raw_intervals",
    "OBSERVATORY_SCHEMA",
    "Observatory",
    "bound_class",
    "effective_cost",
    "render_top",
    "BurnRateMonitor",
    "SLOPolicy",
    "alert_mismatches",
    "burn_rate",
    "replay_alerts",
    "QUERIES",
    "SCENARIOS",
    "Scenario",
    "ScenarioRun",
    "figure_scenario",
    "run_digest",
    "run_scenario",
    "DEFAULT_FACTORS",
    "OFFPATH_GAIN",
    "WHATIF_SCHEMA",
    "optimizer_crosscheck",
    "parse_vary",
    "run_whatif",
    "whatif_violations",
    "render_report",
    "write_report",
]
