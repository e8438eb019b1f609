"""Query results with movement and utilization accounting.

Both engines return a :class:`QueryResult`.  Because multiple queries
can share one fabric (the scheduler does exactly that), per-query
numbers are computed as *deltas* of the fabric trace between query
start and finish, via :class:`TraceSnapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..relational.table import Table
from ..sim import Trace

__all__ = ["TraceSnapshot", "QueryResult"]


class TraceSnapshot:
    """Counter snapshot for computing per-query deltas."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self._at = dict(trace.counters)

    def delta_prefix(self, prefix: str) -> dict[str, float]:
        out = {}
        for key, value in self.trace.counters.items():
            if key.startswith(prefix):
                diff = value - self._at.get(key, 0.0)
                if diff:
                    out[key[len(prefix):]] = diff
        return out

    def busy_delta(self) -> dict[str, float]:
        """Per-device busy seconds accumulated since the snapshot.

        Parsed from the cumulative ``device.<name>.busy_s`` counters,
        so it works even when several queries share one fabric.
        """
        out = {}
        for key, value in self.delta_prefix("device.").items():
            if key.endswith(".busy_s"):
                out[key[:-len(".busy_s")]] = value
        return out

    def utilization_delta(self, elapsed: float,
                          slots: Optional[dict[str, int]] = None
                          ) -> dict[str, float]:
        """Per-device busy fraction over ``elapsed`` seconds, in [0, 1].

        ``slots`` maps device name to its parallel slot count (busy
        seconds accrue per slot); unknown devices assume one slot.
        """
        if elapsed <= 0:
            return {}
        slots = slots or {}
        out = {}
        for name, busy in self.busy_delta().items():
            capacity = elapsed * max(1, slots.get(name, 1))
            out[name] = min(1.0, max(0.0, busy / capacity))
        return out


@dataclass
class QueryResult:
    """Outcome of executing one query on one engine."""

    table: Table
    elapsed: float
    engine: str
    movement: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    peak_compute_dram: float = 0.0
    utilization: dict[str, float] = field(default_factory=dict)
    #: Simulation-clock query window (span boundaries).  Several
    #: queries can share one fabric clock, so the critical-path walker
    #: needs the absolute window, not just its width:
    #: ``finished_at - started_at == elapsed`` exactly.
    started_at: float = 0.0
    finished_at: float = 0.0
    _rendered: tuple = field(default=(None, ""), init=False, repr=False,
                            compare=False)

    def checksum(self) -> str:
        """Canonical content hash of the result table.

        Identical across engines and placements for the same logical
        answer (row order and float summation order are normalized).
        Rendered once, and again only if ``table`` is replaced.
        """
        from ..obs import table_checksum
        if self._rendered[0] is not self.table:
            self._rendered = self.table, table_checksum(self.table)
        return self._rendered[1]

    @property
    def rows(self) -> int:
        return self.table.num_rows

    @property
    def total_bytes_moved(self) -> float:
        """Bytes moved across all segments (each hop counted once)."""
        return sum(self.movement.values())

    def bytes_on(self, segment: str) -> float:
        """Bytes moved on one segment class (``network``, ``pcie``...)."""
        return self.movement.get(f"{segment}.bytes", 0.0)
