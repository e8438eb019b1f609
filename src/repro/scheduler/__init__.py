"""Interference-aware multi-query scheduling (§7.3)."""

from .. import _lazy_exports

_EXPORTS = {
    "LoadTracker": "interference",
    "POLICIES": "scheduler",
    "QueryExecutor": "scheduler",
    "ScheduledQuery": "scheduler",
    "Scheduler": "scheduler",
    "bursty_arrivals": "workloads",
    "demand_vector": "interference",
    "diurnal_arrivals": "workloads",
    "poisson_arrivals": "workloads",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
