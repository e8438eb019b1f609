"""The plan cache: a served template is planned and prepared once.

Optimization (placement enumeration + costing) dominates the
server-side CPU cost of a small query, what follows from its result
(demand vectors, schemas, the stage graph's shape) is as fixed as the
result, and serving workloads repeat the same templates thousands of
times.  The server keeps one ``Query`` per template, so an entry is
keyed by the plan object it was planned for: a lookup with that very
instance returns the entry's ranked variants as they were stored, and
with them what later layers keep there: the scheduler's demand
vector on each cost, the engine's pipeline recipe on each variant
(which checks for itself that catalog version, fabric and engine
options still hold).  Any other instance, even of an equal plan,
misses.

An entry also holds the context its ranking read, by value: each
scanned table's fields (name, dtype, width), rows and bytes, and the
fabric's spec and site names.  A lookup under another catalog version
or fabric compares that context afresh; a schema change, a data
change, or a different fabric invalidates the entry (dropped and
counted) instead of silently replaying a wrong placement, while a
same-shaped swap keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine.logical import PlanNode, Query, Scan
from ..optimizer.optimizer import RankedPlacement

__all__ = ["PlanCache"]


def _context(plan: PlanNode, catalog, fabric) -> tuple:
    """Exactly what ranking ``plan`` read of the catalog and fabric."""
    tables = []
    for name in sorted({node.table for node in plan.walk()
                        if isinstance(node, Scan)}):
        stats = catalog.stats(name)
        tables.append((name, tuple((f.name, f.dtype, f.width)
                                   for f in catalog.schema(name).fields),
                       stats.rows, stats.nbytes))
    return (tuple(tables), tuple(sorted(vars(fabric.spec).items())),
            tuple(sorted(fabric.sites)))


@dataclass
class _CacheEntry:
    ranked: list[RankedPlacement]
    context: tuple
    #: (catalog, its version, fabric) the context last held under: a
    #: hit under the same three compares nothing.
    held_under: tuple


@dataclass
class PlanCache:
    """Ranked variant sets keyed by the plan they were planned for."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    _entries: dict[PlanNode, _CacheEntry] = field(default_factory=dict)

    def lookup(self, plan, catalog, fabric
               ) -> Optional[list[RankedPlacement]]:
        """The variants stored for this very ``plan``, or None on miss.

        An entry planned under a different schema or fabric context
        is *invalidated* (dropped and counted) rather than returned.
        """
        plan = plan.plan if isinstance(plan, Query) else plan
        entry = self._entries.get(plan)
        if entry is None:
            self.misses += 1
            return None
        under = (catalog, catalog.version, fabric)
        if entry.held_under != under:
            if entry.context != _context(plan, catalog, fabric):
                del self._entries[plan]
                self.invalidations += 1
                self.misses += 1
                return None
            entry.held_under = under
        self.hits += 1
        return entry.ranked

    def store(self, plan, catalog, fabric,
              ranked: list[RankedPlacement]) -> None:
        plan = plan.plan if isinstance(plan, Query) else plan
        self._entries[plan] = _CacheEntry(
            ranked, _context(plan, catalog, fabric),
            (catalog, catalog.version, fabric))

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "entries": len(self._entries)}
