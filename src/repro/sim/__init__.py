"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.kernel`) provides the event loop and
process model; :mod:`repro.sim.resources` provides queues and counted
resources; :mod:`repro.sim.trace` provides metric collection.
"""

from .kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .chrometrace import chrome_trace, export_chrome_trace
from .events import EventKind, EventRing, TraceEvent
from .resources import Resource, Store
from .trace import Span, Trace

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "EventKind",
    "EventRing",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Span",
    "Store",
    "Timeout",
    "Trace",
    "TraceEvent",
    "chrome_trace",
    "export_chrome_trace",
]
