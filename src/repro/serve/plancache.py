"""The plan cache: repeat queries skip optimization entirely.

Optimization (placement enumeration + costing) dominates the
server-side CPU cost of a small query, and serving workloads repeat
the same templates thousands of times.  The cache is keyed on the
*logical query fingerprint* plus the *context fingerprint* (schema +
statistics of the referenced tables, and the fabric's shape) so a
schema change, a data change, or a different fabric invalidates
stale entries instead of silently replaying a wrong placement.

Placements are stored in a plan-instance-independent form: node ids
are rebased onto the plan's deterministic walk order, so a cached
entry re-binds onto the *fresh* plan object each submission builds
(fresh plans keep node ids unique across concurrent queries).  A hit
therefore yields placements and costs bit-identical to what the
optimizer would have produced — cached and uncached runs simulate
identically, which the tests pin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from ..engine.logical import PlanNode, Query, Scan
from ..engine.placement import Placement
from ..optimizer.optimizer import RankedPlacement

__all__ = ["PlanCache", "plan_fingerprint", "schema_fingerprint",
           "fabric_fingerprint"]


def fabric_fingerprint(fabric) -> str:
    """Hash of the fabric's spec and site map (the placement context).

    A different fabric generation — other sites, other link speeds —
    must not reuse placements planned for this one.
    """
    digest = hashlib.sha256()
    spec = fabric.spec
    for key in sorted(vars(spec)):
        digest.update(f"{key}={vars(spec)[key]!r};".encode())
    for site in sorted(fabric.sites):
        digest.update(f"{site}\x1f".encode())
    return digest.hexdigest()


def _plan_of(plan) -> PlanNode:
    return plan.plan if isinstance(plan, Query) else plan


def plan_fingerprint(plan) -> str:
    """Structural hash of a logical plan (node-id independent).

    Two plans built from the same template produce the same
    fingerprint even though their node ids differ; any change to an
    operator, predicate, column list, or tree shape changes it.
    The digest is cached on the root node: logical trees are
    immutable once built (the cache already relies on lookup-time
    and store-time fingerprints agreeing), and serving templates
    reuse one plan object across every query.
    """
    root = _plan_of(plan)
    cached = root.__dict__.get("_fingerprint")
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for node in root.walk():
        digest.update(type(node).__name__.encode())
        digest.update(b"\x1f")
        digest.update(node.describe().encode())
        digest.update(f"\x1e{len(node.children)}\x1d".encode())
    fingerprint = digest.hexdigest()
    root._fingerprint = fingerprint
    return fingerprint


def referenced_tables(plan) -> list[str]:
    """The base tables a plan scans, sorted."""
    return sorted({node.table for node in _plan_of(plan).walk()
                   if isinstance(node, Scan)})


def schema_fingerprint(catalog, tables: list[str]) -> str:
    """Hash of the schemas + statistics of the referenced tables.

    Covers field names, dtypes, widths, row counts, and byte counts —
    the inputs the optimizer's cost model actually reads — so
    re-registering a table with different data or shape invalidates
    dependent cache entries.
    """
    digest = hashlib.sha256()
    for name in tables:
        schema = catalog.schema(name)
        stats = catalog.stats(name)
        digest.update(name.encode())
        for f in schema.fields:
            digest.update(
                f"|{f.name}:{f.dtype}:{f.width}".encode())
        digest.update(f"#{stats.rows}:{stats.nbytes}\x1e".encode())
    return digest.hexdigest()


@dataclass
class _CachedVariant:
    """One placement in walk-order (instance-independent) form."""

    chains: list[list[str]]
    result_site: str
    partitions: int
    name: str
    cost: object  # PlanCost — plan-instance independent


@dataclass
class _CacheEntry:
    context: str
    variants: list[_CachedVariant]
    hits: int = 0


def _detach(plan: PlanNode,
            ranked: list[RankedPlacement]) -> list[_CachedVariant]:
    """Rebase placements from node ids onto walk order."""
    order = {node.node_id: i for i, node in enumerate(plan.walk())}
    variants = []
    for candidate in ranked:
        chains: list[Optional[list[str]]] = [None] * len(order)
        for node_id, chain in candidate.placement.sites.items():
            index = order.get(node_id)
            if index is None:
                raise ValueError(
                    "placement does not bind to this plan instance; "
                    "store() must receive the same plan object the "
                    "variants were planned for")
            chains[index] = list(chain)
        variants.append(_CachedVariant(
            chains=chains,
            result_site=candidate.placement.result_site,
            partitions=candidate.placement.partitions,
            name=candidate.placement.name,
            cost=candidate.cost))
    return variants


def _rebind(plan: PlanNode,
            variants: list[_CachedVariant]) -> list[RankedPlacement]:
    """Bind cached placements onto a fresh plan instance."""
    nodes = list(plan.walk())
    ranked = []
    for variant in variants:
        if len(variant.chains) != len(nodes):
            raise ValueError("cached placement does not match plan "
                             "shape")
        sites = {nodes[i].node_id: list(chain)
                 for i, chain in enumerate(variant.chains)
                 if chain is not None}
        ranked.append(RankedPlacement(
            Placement(sites=sites, result_site=variant.result_site,
                      partitions=variant.partitions,
                      name=variant.name),
            variant.cost))
    return ranked


@dataclass
class PlanCache:
    """Variant sets keyed on (query, schema, placement context)."""

    capacity: int = 256
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    _entries: dict[str, _CacheEntry] = field(default_factory=dict)
    #: Memoized context keys: (catalog id+version, tables, fabric id)
    #: -> digest.  Serving recomputes the same context per query;
    #: the catalog version bump keeps invalidation semantics intact.
    _context_memo: dict = field(default_factory=dict, repr=False)

    def context_key(self, catalog, fabric, plan) -> str:
        tables = tuple(referenced_tables(plan))
        memo_key = (id(catalog), catalog.version, tables, id(fabric))
        cached = self._context_memo.get(memo_key)
        if cached is not None:
            return cached
        context = (schema_fingerprint(catalog, list(tables))
                   + ":" + fabric_fingerprint(fabric))
        if len(self._context_memo) >= 64:
            self._context_memo.clear()
        self._context_memo[memo_key] = context
        return context

    def lookup(self, plan, catalog, fabric
               ) -> Optional[list[RankedPlacement]]:
        """Cached variants re-bound to ``plan``, or None on miss.

        An entry planned under a different schema or fabric context
        is *invalidated* (dropped and counted) rather than returned.
        """
        plan = _plan_of(plan)
        key = plan_fingerprint(plan)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.context != self.context_key(catalog, fabric, plan):
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        entry.hits += 1
        self.hits += 1
        return _rebind(plan, entry.variants)

    def store(self, plan, catalog, fabric,
              ranked: list[RankedPlacement]) -> None:
        plan = _plan_of(plan)
        key = plan_fingerprint(plan)
        if len(self._entries) >= self.capacity \
                and key not in self._entries:
            # Evict the least-hit (then oldest) entry.
            victim = min(self._entries,
                         key=lambda k: (self._entries[k].hits, k))
            del self._entries[victim]
        self._entries[key] = _CacheEntry(
            context=self.context_key(catalog, fabric, plan),
            variants=_detach(plan, ranked))

    def invalidate_all(self) -> None:
        self.invalidations += len(self._entries)
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "entries": len(self._entries)}
