"""The plan cache: a served template is planned and prepared once.

Optimization (placement enumeration + costing) dominates the
server-side CPU cost of a small query, what follows from its result
(demand vectors, schemas, the stage graph's shape) is as fixed as the
result, and serving workloads repeat the same templates thousands of
times.  The cache is keyed on the *logical query fingerprint* plus
the *context fingerprint* (schema + statistics of the referenced
tables, and the fabric's shape) so a schema change, a data change, or
a different fabric invalidates stale entries instead of silently
replaying a wrong placement.

An entry holds the plan it was stored with and that plan's ranked
variants as they are.  A lookup with the same plan instance (the
server keeps one ``Query`` per template) returns those very objects,
and with them what later layers keep there: the scheduler's demand
vector on each cost, the engine's pipeline recipe on each variant
(which checks for itself that catalog version, fabric and engine
options still hold).  Eviction and invalidation drop it all.

Placements are also stored in a plan-instance-independent form (node
ids rebased onto the plan's deterministic walk order), so a lookup
with a *different* instance of an equal plan re-binds the entry onto
it.  Either way a hit yields placements and costs bit-identical to
what the optimizer would have produced — cached and uncached runs
simulate identically, which the tests pin.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

from ..engine.logical import PlanNode, Query, Scan
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
    and store-time fingerprints agreeing), and the server reuses one
    plan object per template across every query.
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


def _context(catalog, fabric, tables: list[str]) -> str:
    return (schema_fingerprint(catalog, tables) + ":"
            + fabric_fingerprint(fabric))


@dataclass
class _CachedVariant:
    """One placement's site chains in walk order: the one part of a
    ranked variant that is bound to a plan instance (by node id)."""

    chains: list[Optional[list[str]]]


@dataclass
class _CacheEntry:
    context: str
    variants: list[_CachedVariant]
    #: The plan instance the entry was stored with, its base tables,
    #: and its ranked variants exactly as stored.
    plan: PlanNode
    tables: list[str]
    ranked: list[RankedPlacement]
    #: (catalog, its version, fabric) the context last held under: a
    #: hit under the same three re-derives no digest.
    held_under: tuple
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
        variants.append(_CachedVariant(chains))
    return variants


def _rebind(plan: PlanNode, entry: "_CacheEntry") -> list[RankedPlacement]:
    """Bind an entry's placements onto another instance of its plan."""
    nodes = list(plan.walk())
    ranked = []
    for variant, stored in zip(entry.variants, entry.ranked):
        if len(variant.chains) != len(nodes):
            raise ValueError("cached placement does not match plan "
                             "shape")
        sites = {nodes[i].node_id: list(chain)
                 for i, chain in enumerate(variant.chains)
                 if chain is not None}
        ranked.append(RankedPlacement(
            replace(stored.placement, sites=sites), stored.cost))
    return ranked


@dataclass
class PlanCache:
    """Variant sets keyed on (query, schema, placement context)."""

    capacity: int = 256
    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    _entries: dict[str, _CacheEntry] = field(default_factory=dict)

    def lookup(self, plan, catalog, fabric
               ) -> Optional[list[RankedPlacement]]:
        """Cached variants bound to ``plan``, or None on miss.

        The entry's own variants when ``plan`` is the instance it was
        stored with, otherwise a re-binding onto ``plan``.  An entry
        planned under a different schema or fabric context is
        *invalidated* (dropped and counted) rather than returned.
        """
        plan = _plan_of(plan)
        key = plan_fingerprint(plan)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        under = (catalog, catalog.version, fabric)
        if entry.held_under != under:
            # Equal fingerprints scan equal tables: the entry's serve.
            if entry.context != _context(catalog, fabric, entry.tables):
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None
            entry.held_under = under
        entry.hits += 1
        self.hits += 1
        if plan is entry.plan:
            return entry.ranked
        return _rebind(plan, entry)

    def store(self, plan, catalog, fabric,
              ranked: list[RankedPlacement]) -> None:
        plan = _plan_of(plan)
        key = plan_fingerprint(plan)
        if len(self._entries) >= self.capacity \
                and key not in self._entries:
            # Evict the least-hit entry, the oldest among equals:
            # ``min`` keeps the first it sees and ``_entries`` is in
            # insertion order.
            victim = min(self._entries,
                         key=lambda k: self._entries[k].hits)
            del self._entries[victim]
        tables = referenced_tables(plan)
        self._entries[key] = _CacheEntry(
            context=_context(catalog, fabric, tables),
            variants=_detach(plan, ranked), plan=plan, tables=tables,
            ranked=ranked, held_under=(catalog, catalog.version, fabric))

    def counters(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "entries": len(self._entries)}
