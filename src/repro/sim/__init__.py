"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.kernel`) provides the event loop and
process model; :mod:`repro.sim.resources` provides queues and counted
resources; :mod:`repro.sim.trace` provides metric collection.
"""

from .. import _lazy_exports

_EXPORTS = {
    "AllOf": "kernel",
    "AnyOf": "kernel",
    "Event": "kernel",
    "EventKind": "events",
    "EventRing": "events",
    "Interrupt": "kernel",
    "Process": "kernel",
    "Resource": "resources",
    "SimulationError": "kernel",
    "Simulator": "kernel",
    "Span": "trace",
    "Store": "resources",
    "Timeout": "kernel",
    "Trace": "trace",
    "TraceEvent": "events",
    "chrome_trace": "chrometrace",
    "export_chrome_trace": "chrometrace",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
