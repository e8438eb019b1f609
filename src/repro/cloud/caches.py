"""Cloud caching layers and the result cache (§7.5).

The paper's position: caching *base tables* in fast media near the
CPU papers over the broken bring-everything-to-the-CPU model and
wastes the data center's most expensive resource; caching *results*
still makes sense.  Both layers are implemented so bench C6 can
compare them against the active-pipeline alternative.

:class:`DataCache` is a byte-budgeted LRU over opaque blobs (base
table chunks, in the bench) parked on a faster medium in front of the
object store.  :class:`ResultCache` memoizes whole query results
keyed by a plan fingerprint.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..engine.logical import (
    Aggregate,
    Filter,
    Join,
    Limit,
    PlanNode,
    Project,
    Scan,
    Sort,
)
from ..relational.table import Table
from ..sim import EventKind, Trace

__all__ = ["DataCache", "ResultCache", "plan_fingerprint"]


class DataCache:
    """A byte-budgeted LRU cache of opaque payloads."""

    def __init__(self, capacity_bytes: int, name: str = "datacache",
                 trace: Optional[Trace] = None):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.trace = trace
        self._entries: OrderedDict[str, int] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, key: str) -> bool:
        """Touch ``key``; True on hit."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            if self.trace is not None:
                self.trace.add(f"cache.{self.name}.hits", 1)
                self.trace.emit(self.trace.clock, EventKind.CACHE_HIT,
                                f"cache.{self.name}", label=key)
            return True
        self.misses += 1
        if self.trace is not None:
            self.trace.add(f"cache.{self.name}.misses", 1)
            self.trace.emit(self.trace.clock, EventKind.CACHE_MISS,
                            f"cache.{self.name}", label=key)
        return False

    def insert(self, key: str, nbytes: int) -> None:
        """Admit ``key`` (``nbytes`` big), evicting LRU entries."""
        if nbytes > self.capacity_bytes:
            return  # too big to cache at all
        if key in self._entries:
            self.used_bytes -= self._entries.pop(key)
        while self.used_bytes + nbytes > self.capacity_bytes:
            _victim, victim_bytes = self._entries.popitem(last=False)
            self.used_bytes -= victim_bytes
            self.evictions += 1
            if self.trace is not None:
                self.trace.add(f"cache.{self.name}.evictions", 1)
        self._entries[key] = nbytes
        self.used_bytes += nbytes

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def plan_fingerprint(plan: PlanNode) -> str:
    """A structural fingerprint of a logical plan (cache key)."""
    parts = []
    for node in plan.walk():
        if isinstance(node, Scan):
            parts.append(f"scan:{node.table}:{node.columns}")
        elif isinstance(node, Filter):
            parts.append(f"filter:{node.predicate!r}")
        elif isinstance(node, Project):
            parts.append(f"project:{node.columns}")
        elif isinstance(node, Aggregate):
            parts.append(
                f"agg:{node.group_by}:"
                f"{[(a.op, a.column, a.alias) for a in node.aggs]}")
        elif isinstance(node, Join):
            parts.append(f"join:{node.left_key}:{node.right_key}")
        elif isinstance(node, Sort):
            parts.append(f"sort:{node.keys}")
        elif isinstance(node, Limit):
            parts.append(f"limit:{node.n}")
        else:
            parts.append(type(node).__name__)
    return "|".join(parts)


class ResultCache:
    """Memoizes query result tables by plan fingerprint."""

    def __init__(self, capacity_bytes: int = 64 << 20,
                 trace: Optional[Trace] = None):
        self.capacity_bytes = capacity_bytes
        self.trace = trace
        self._tables: OrderedDict[str, Table] = OrderedDict()
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, plan: PlanNode) -> Optional[Table]:
        key = plan_fingerprint(plan)
        if key in self._tables:
            self._tables.move_to_end(key)
            self.hits += 1
            if self.trace is not None:
                self.trace.add("resultcache.hits", 1)
                self.trace.emit(self.trace.clock, EventKind.CACHE_HIT,
                                "resultcache")
            return self._tables[key]
        self.misses += 1
        if self.trace is not None:
            self.trace.add("resultcache.misses", 1)
            self.trace.emit(self.trace.clock, EventKind.CACHE_MISS,
                            "resultcache")
        return None

    def put(self, plan: PlanNode, table: Table) -> None:
        nbytes = table.nbytes
        if nbytes > self.capacity_bytes:
            return
        key = plan_fingerprint(plan)
        if key in self._tables:
            self.used_bytes -= self._tables.pop(key).nbytes
        while self.used_bytes + nbytes > self.capacity_bytes:
            _k, victim = self._tables.popitem(last=False)
            self.used_bytes -= victim.nbytes
            if self.trace is not None:
                self.trace.add("resultcache.evictions", 1)
        self._tables[key] = table
        self.used_bytes += nbytes
        if self.trace is not None:
            self.trace.add("resultcache.stored_bytes", nbytes)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
