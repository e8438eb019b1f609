"""Host-side tracing for the traced run: spans, counts, profile buckets.

Nothing under ``src/`` is instrumented.  :class:`Tracer` wraps the
package's public entry points from the outside while a traced window
runs and takes the wrappers off again for the untraced windows, so the
timed run never sees them.  Spans stay in memory until the run ends.

A span records name, layer, start, end, parent span and window id; a
span's self time is its duration minus its children's.  The profile
pass charges every function's self time to one layer by file path, so
the layer shares sum to 1.
"""

from __future__ import annotations

import cProfile
import functools
import sys
import time
from collections import Counter

__all__ = ["Tracer", "LAYERS", "layer_shares", "self_times"]

# Package directory -> layer.  ``obs.py`` holds the result checksum, which
# the engines' results call, so it is charged to the engine layer.
_PACKAGE_LAYERS = {
    "sim": "sim", "flow": "flow", "hardware": "hardware",
    "relational": "relational", "engine": "engine",
    "optimizer": "optimizer", "scheduler": "scheduler",
    "serve": "serve", "analysis": "analysis", "obs.py": "engine",
}
LAYERS = ("sim", "flow", "hardware", "relational", "numpy", "engine",
          "optimizer", "scheduler", "serve", "analysis", "fractions",
          "asyncio", "networkx", "harness", "python_other")


def _layer_of(code, harness_dir: str):
    """The layer that owns ``code``, or None for code without a home.

    Builtins such as ``dict.get`` and generated functions such as a
    dataclass ``__init__`` have no file of their own; their self time
    belongs to whoever called them.
    """
    if isinstance(code, str):               # a C function
        return "numpy" if "numpy" in code else None
    path = code.co_filename.replace("\\", "/")
    if "/repro/" in path:
        head = path.split("/repro/", 1)[1].split("/", 1)[0]
        return _PACKAGE_LAYERS.get(head, "python_other")
    if path.startswith("<repro-kernel"):    # generated query kernels
        return "engine"
    if path.startswith("<"):
        return None
    if "/numpy/" in path:
        return "numpy"
    if path.endswith("/fractions.py"):
        return "fractions"
    if "/asyncio/" in path:
        return "asyncio"
    if "/networkx/" in path:
        return "networkx"
    if path.startswith(harness_dir):
        return "harness"
    return "python_other"


def layer_shares(profile: cProfile.Profile, harness_dir: str) -> dict:
    """Each layer's share of the profile's total self time.

    Homeless code is charged to its caller's layer by the self time the
    profiler measured on that caller-callee edge; what homeless code
    calls of its own kind is left in ``python_other``.
    """
    totals = dict.fromkeys(LAYERS, 0.0)
    whole = 0.0
    for entry in profile.getstats():
        whole += entry.inlinetime
        layer = _layer_of(entry.code, harness_dir)
        if layer is None:
            continue
        totals[layer] += entry.inlinetime
        for callee in entry.calls or ():
            if _layer_of(callee.code, harness_dir) is None:
                totals[layer] += callee.inlinetime
    totals["python_other"] += whole - sum(totals.values())
    return {layer: value / (whole or 1.0)
            for layer, value in totals.items()}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the duration of its direct children."""
    out = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] -= span["end"] - span["start"]
    return out


class Tracer:
    """Span wrappers around the package's entry points."""

    def __init__(self):
        self.spans: list[dict] = []
        self.calls: Counter = Counter()
        self.fabrics: list = []         # fabrics built in this window
        self.window = -1
        self._first = 0                 # first span of the latest window
        self._stack: list[int] = []
        #: (owner, attribute, original, wrapper) of every patch point.
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str, layer: str) -> dict:
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "start": time.perf_counter(), "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "window": self.window}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, function, name: str, layer: str, keep=None):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(span)
            if keep is not None:
                keep.append(result)
            return result
        return wrapper

    def _counted(self, function, name: str):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _plan_method(self, cls, attribute: str, layer: str) -> None:
        original = cls.__dict__[attribute]
        self._patches.append((cls, attribute, original, self._spanned(
            original, f"{cls.__name__}.{attribute}", layer)))

    def _plan_functions(self, wrappers: dict) -> None:
        """Replace each function in every module that imported it."""
        by_id = {id(function): wrapper         # not every value hashes
                 for function, wrapper in wrappers.items()}
        for module in list(sys.modules.values()):
            for attribute, value in list(getattr(module, "__dict__",
                                                 {}).items()):
                if id(value) in by_id:
                    self._patches.append(
                        (module, attribute, value, by_id[id(value)]))

    def plan(self) -> None:
        """Work out the wrappers once; ``install`` then only assigns."""
        from repro import DataflowEngine, Optimizer, VolcanoEngine, \
            build_fabric
        from repro.analysis.critical_path import attribute
        from repro.analysis.observatory import Observatory
        from repro.obs import table_checksum
        from repro.serve import ServeTelemetry, run_scenario

        self._plan_method(DataflowEngine, "compile", "engine")
        self._plan_method(DataflowEngine, "execute", "engine")
        self._plan_method(VolcanoEngine, "execute", "engine")
        # ``optimize`` and the serve path's ``plan_variants`` both rank.
        self._plan_method(Optimizer, "rank", "optimizer")
        self._plan_method(ServeTelemetry, "finalize", "analysis")
        self._plan_method(Observatory, "finalize", "analysis")
        self._plan_functions({
            build_fabric: self._spanned(build_fabric, "build_fabric",
                                        "hardware", keep=self.fabrics),
            table_checksum: self._spanned(table_checksum, "table_checksum",
                                          "engine"),
            run_scenario: self._spanned(run_scenario, "run_scenario",
                                        "serve"),
            # Called thousands of times per serve run: counted, not
            # spanned.
            attribute: self._counted(attribute, "critical_path.attribute"),
        })

    def install(self) -> None:
        for owner, attribute, _original, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapper in self._patches:
            setattr(owner, attribute, original)

    # -- per-window summaries -----------------------------------------------

    def begin_window(self, window: int) -> dict:
        self.window = window
        self.fabrics.clear()
        self.calls.clear()
        self._first = len(self.spans)
        return self.open("window", "harness")

    def span_ms(self, *names: str) -> float:
        """Summed duration of the latest window's spans called ``names``."""
        return 1e3 * sum(span["end"] - span["start"]
                         for span in self.spans[self._first:]
                         if span["name"] in names)

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans[self._first:]
                   if span["name"] == name)

    def fabric_counts(self) -> dict:
        """Exact simulated counts over the window's fabrics."""
        events = chunks = link_chunks = 0
        moved = sim_s = 0.0
        for fabric in self.fabrics:
            trace = fabric.trace
            stats = trace.event_stats()
            events += stats["recorded"] + stats["dropped"]
            # Chunks that entered a flow-control stage; the Volcano
            # engine has no stages, so this is 0 when flow is bypassed.
            chunks += sum(int(value) for key, value in trace.counters.items()
                          if key.startswith("stage.")
                          and key.endswith(".chunks_in"))
            link_chunks += sum(int(link["chunks"])
                               for link in trace.link_report().values())
            moved += trace.total("movement.")
            sim_s += fabric.sim.now
        return {"sim.events": events, "flow.chunks": chunks,
                "hardware.link_chunks": link_chunks,
                "hardware.bytes_moved": moved,
                "hardware.sim_time_us": sim_s * 1e6}
