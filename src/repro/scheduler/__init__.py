"""Interference-aware multi-query scheduling (§7.3)."""

from .interference import LoadTracker, demand_vector
from .scheduler import POLICIES, QueryExecutor, ScheduledQuery, Scheduler
from .workloads import bursty_arrivals, diurnal_arrivals, poisson_arrivals

__all__ = [
    "LoadTracker",
    "POLICIES",
    "QueryExecutor",
    "ScheduledQuery",
    "Scheduler",
    "bursty_arrivals",
    "demand_vector",
    "diurnal_arrivals",
    "poisson_arrivals",
]
