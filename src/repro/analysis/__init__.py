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

from .. import _lazy_exports

_EXPORTS = {
    "Attribution": "critical_path",
    "attribute": "critical_path",
    "attribute_query": "critical_path",
    "attribute_windows": "critical_path",
    "WinnerTimeline": "critical_path",
    "raw_intervals": "critical_path",
    "OBSERVATORY_SCHEMA": "observatory",
    "Observatory": "observatory",
    "bound_class": "observatory",
    "effective_cost": "observatory",
    "render_top": "observatory",
    "BurnRateMonitor": "slo",
    "alert_mismatches": "slo",
    "burn_rate": "slo",
    "replay_alerts": "slo",
    "QUERIES": "scenarios",
    "SCENARIOS": "scenarios",
    "Scenario": "scenarios",
    "ScenarioRun": "scenarios",
    "figure_scenario": "scenarios",
    "run_digest": "scenarios",
    "run_scenario": "scenarios",
    "DEFAULT_FACTORS": "whatif",
    "OFFPATH_GAIN": "whatif",
    "WHATIF_SCHEMA": "whatif",
    "optimizer_crosscheck": "whatif",
    "parse_vary": "whatif",
    "run_whatif": "whatif",
    "whatif_violations": "whatif",
    "render_report": "report",
    "write_report": "report",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
