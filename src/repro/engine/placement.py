"""Operator placement onto fabric sites.

A :class:`Placement` maps each logical plan node to the site chain
that will host it.  Most nodes get one site; an Aggregate gets a
*chain* — partial aggregation at the first site, merge stages at the
middle sites, the final (stateful) merge at the last — which is how
§4.4's staged group-by pipeline is expressed.

Policies:

* :func:`cpu_only` — everything on the host CPU: the conventional
  engine's placement, the baseline of every experiment.
* :func:`pushdown` — greedy offload: each streamable operator is
  placed at the *earliest* site along the data path that supports its
  operation kind, so reductive work happens as close to the data's
  origin as possible (§3–§5).  Stateful operators stay on the CPU,
  except scalar COUNT/aggregates, which §4.4 argues can complete on
  the receiving NIC.

The optimizer (:mod:`repro.optimizer`) enumerates many placements and
ranks them; these two are the endpoints of that spectrum.
:func:`place` is the one switch from a policy name (:data:`POLICIES`)
to a placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.device import OpKind
from ..hardware.presets import HeterogeneousFabric
from ..relational.catalog import Catalog
from .logical import (Aggregate, Filter, Join, Limit, Map, PlanNode,
                      Project, Query, Scan, Sort)

__all__ = ["Placement", "check_chain", "data_path_sites", "cpu_only",
           "pushdown", "place", "POLICIES", "PlacementError"]

POLICIES = ("optimize", "pushdown", "cpu")
"""The placement policies :func:`place` knows, by name."""


class PlacementError(Exception):
    """A placement references a missing site or an unsupported kind."""


@dataclass
class Placement:
    """Assignment of logical nodes to site chains."""

    sites: dict[int, list[str]] = field(default_factory=dict)
    result_site: str = "compute0.cpu"
    partitions: int = 1          # n-way distributed join (F4)
    name: str = "custom"

    def chain(self, node: PlanNode) -> list[str]:
        if node.node_id not in self.sites:
            raise PlacementError(
                f"no placement for node {node!r}")
        return self.sites[node.node_id]

    def site(self, node: PlanNode) -> str:
        """The single (last) site of a node's chain."""
        return self.chain(node)[-1]

    def used_sites(self) -> list[str]:
        """Every site some chain names, sorted."""
        return sorted({site for chain in self.sites.values()
                       for site in chain})

    def validate(self, plan: PlanNode,
                 fabric: HeterogeneousFabric) -> None:
        """Check that every referenced site exists and supports its op."""
        for node in plan.walk():
            if not isinstance(node, Scan):
                check_chain(node, self.chain(node), fabric)


def check_chain(node: PlanNode, chain: list[str],
                fabric: HeterogeneousFabric) -> None:
    """Raise unless every site of ``chain`` exists and can run ``node``.

    A property of one (node, chain) option, whatever the rest of the
    placement says, so enumeration checks options, not products.
    """
    kind = _node_kind(node)
    for site in chain:
        if not fabric.has_site(site):
            raise PlacementError(
                f"site {site!r} absent from fabric (node {node!r})")
        if not fabric.site_device(site).supports(kind):
            raise PlacementError(
                f"device at {site!r} does not support "
                f"{kind!r} (node {node!r})")


def _node_kind(node: PlanNode) -> str:
    """The device capability a node's operator needs."""
    if isinstance(node, Filter):
        return node.predicate.op_kind()
    if isinstance(node, (Project, Map)):
        return OpKind.PROJECT
    if isinstance(node, Aggregate):
        return OpKind.AGGREGATE
    if isinstance(node, Join):
        return OpKind.JOIN_PROBE
    if isinstance(node, Sort):
        return OpKind.SORT
    return OpKind.GENERIC               # Limit, and any other node


def data_path_sites(fabric: HeterogeneousFabric) -> list[str]:
    """Sites in data-path order to the result node (Figure 6)."""
    candidates = ["storage.cu", "storage.nic", "compute0.nic",
                  "compute0.nearmem", "compute0.cpu"]
    return [s for s in candidates if fabric.has_site(s)]


def cpu_only(plan: PlanNode, fabric: HeterogeneousFabric) -> Placement:
    """Everything on the host CPU — the conventional placement."""
    cpu = "compute0.cpu"
    sites = {}
    for n in plan.walk():
        if isinstance(n, Aggregate):
            sites[n.node_id] = [cpu, cpu]
        else:
            sites[n.node_id] = [cpu]
    return Placement(sites=sites, result_site=cpu, name="cpu-only")


def pushdown(plan: PlanNode, fabric: HeterogeneousFabric,
             presort_runs: bool = False) -> Placement:
    """Greedy offload along the data path.

    Walks each pipeline from its scan upward, keeping a cursor into
    the data-path site list: an operator is placed at the earliest
    site at-or-after the cursor whose device supports its kind, and
    the cursor advances there (data never flows backward).
    """
    path = data_path_sites(fabric)
    cpu = "compute0.cpu"
    nic_site = "compute0.nic"
    sites: dict[int, list[str]] = {}
    cursors: dict[int, int] = {}     # node_id -> path index reached

    def place_streaming(n: PlanNode, kind: str) -> None:
        start = max((cursors.get(c.node_id, 0) for c in n.children),
                    default=0)
        for idx in range(start, len(path)):
            if fabric.site_device(path[idx]).supports(kind):
                sites[n.node_id] = [path[idx]]
                cursors[n.node_id] = idx
                return
        sites[n.node_id] = [cpu]
        cursors[n.node_id] = len(path) - 1

    for n in plan.walk():
        if isinstance(n, Scan):
            sites[n.node_id] = [path[0] if path else cpu]
            cursors[n.node_id] = 0
        elif isinstance(n, (Filter, Project, Map)):
            place_streaming(n, _node_kind(n))
        elif isinstance(n, Aggregate):
            start = max((cursors.get(c.node_id, 0) for c in n.children),
                        default=0)
            chain = [s for s in path[start:]
                     if fabric.site_device(s).supports(OpKind.AGGREGATE)]
            # Final merge: a NIC can finish scalar aggregates (§4.4);
            # grouped aggregates finish on the CPU.
            if not n.group_by and fabric.has_site(nic_site):
                final = nic_site
            else:
                final = cpu
            if not chain or chain[-1] != final:
                chain = chain + [final]
            if len(chain) == 1:
                chain = [final, final]
            sites[n.node_id] = chain
            cursors[n.node_id] = len(path) - 1
        elif isinstance(n, Sort) and presort_runs:
            # §3.3 pre-sorting: generate sorted runs at the earliest
            # SORT-capable site, merge them (cheaply) on the CPU.
            start = max((cursors.get(c.node_id, 0) for c in n.children),
                        default=0)
            run_site = next(
                (s for s in path[start:]
                 if fabric.site_device(s).supports(OpKind.SORT)
                 and s != cpu), None)
            if run_site is not None:
                sites[n.node_id] = [run_site, cpu]
            else:
                sites[n.node_id] = [cpu]
            cursors[n.node_id] = len(path) - 1
        elif isinstance(n, (Join, Sort, Limit)):
            sites[n.node_id] = [cpu]
            cursors[n.node_id] = len(path) - 1
    return Placement(sites=sites, result_site=cpu, name="pushdown")


def place(policy: str, query: Query, fabric: HeterogeneousFabric,
          catalog: Catalog) -> Placement:
    """The placement policy ``policy`` (one of :data:`POLICIES`) picks."""
    if policy == "cpu":
        return cpu_only(query.plan, fabric)
    if policy == "pushdown":
        return pushdown(query.plan, fabric)
    if policy == "optimize":
        from ..optimizer import Optimizer
        return Optimizer(fabric, catalog).optimize(query).placement
    raise ValueError(f"unknown placement policy {policy!r}")
