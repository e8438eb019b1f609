"""Placement enumeration: the expanded plan space of §1 and §3.3.

"Query optimizers will have to consider many more plan options to
include the alternatives for offloading of operations along the data
path."  This module enumerates those alternatives: for every
streamable operator, every data-path site (at or after its input's
site) whose device supports the operator's kind; for every aggregate,
the possible staging chains; plus the CPU-only fallback the scheduler
needs as a variant (§7.3).

Monotonicity prunes the space: data flows storage → CPU and never
backward, so site indices must be nondecreasing from a node's child
to the node.  Site existence and device support belong to one
(node, chain) option and are checked per option; monotonicity is
checked while an assignment is extended node by node, so a backward
step cuts off every product below it.  The output is capped
(``max_placements``) to keep enumeration predictable on deep plans.
"""

from __future__ import annotations

from typing import Iterator

from ..engine.logical import (
    Aggregate,
    Filter,
    Join,
    Map,
    PlanNode,
    Project,
    Scan,
)
from ..engine.placement import (Placement, PlacementError, _node_kind,
                                check_chain, data_path_sites)
from ..hardware.device import OpKind
from ..hardware.presets import HeterogeneousFabric

__all__ = ["enumerate_placements"]


def _site_options(fabric: HeterogeneousFabric, path: list[str],
                  kind: str, min_index: int) -> list[int]:
    """Path indices at/after ``min_index`` whose device supports kind."""
    return [i for i in range(min_index, len(path))
            if fabric.site_device(path[i]).supports(kind)]


def _aggregate_chains(fabric: HeterogeneousFabric, path: list[str],
                      node: Aggregate, min_index: int,
                      cpu: str, nic_site: str) -> list[list[str]]:
    """Candidate staging chains for one aggregate node."""
    supporting = [path[i] for i in
                  _site_options(fabric, path, OpKind.AGGREGATE, min_index)]
    finals = [cpu]
    if not node.group_by and fabric.has_site(nic_site):
        finals.append(nic_site)   # §4.4: scalar aggregates end on the NIC
    chains: list[list[str]] = []
    for final in finals:
        # CPU-only chain.
        chains.append([cpu, final] if final != cpu else [cpu, cpu])
        if supporting:
            first = supporting[0]
            # Partial at the earliest site, straight to final.
            chains.append([first, final])
            # Fully staged: every supporting site merges (§4.4).
            if len(supporting) > 1:
                chains.append(supporting + [final])
    # Deduplicate, preserving order.
    seen, unique = set(), []
    for chain in chains:
        key = tuple(chain)
        if key not in seen:
            seen.add(key)
            unique.append(chain)
    return unique


def _valid(node: PlanNode, chain: list[str],
           fabric: HeterogeneousFabric) -> bool:
    """Whether ``chain`` can host ``node``; any other error is a bug."""
    try:
        check_chain(node, chain, fabric)
    except PlacementError:
        return False
    return True


def enumerate_placements(plan: PlanNode, fabric: HeterogeneousFabric,
                         node: int = 0,
                         max_placements: int = 256) -> Iterator[Placement]:
    """Yield valid, monotone candidate placements for ``plan``."""
    path = data_path_sites(fabric, node)
    cpu = fabric.cpu_site(node)
    nic_site = f"compute{node}.nic"
    cpu_index = len(path) - 1 if path else 0
    index_of = {site: i for i, site in enumerate(path)}

    nodes = list(plan.walk())
    # Per-node options (chain, first index, last index): the path
    # positions where the chain takes its input and leaves its output
    # (an off-path site counts as the CPU).
    options: list[list[tuple[list[str], int, int]]] = []
    for n in nodes:
        if isinstance(n, Scan):
            chains = [[path[0] if path else cpu]]
        elif isinstance(n, (Filter, Project, Map)):
            chains = [[path[i]] for i in _site_options(
                fabric, path, _node_kind(n), 0)] or [[cpu]]
        elif isinstance(n, Aggregate):
            chains = _aggregate_chains(fabric, path, n, 0, cpu, nic_site)
        else:
            chains = [[cpu]]
        if not isinstance(n, Scan):     # as in Placement.validate
            chains = [c for c in chains if _valid(n, c, fabric)]
        options.append([(c, index_of.get(c[0], cpu_index),
                         index_of.get(c[-1], cpu_index)) for c in chains])

    # Multi-node fabrics add the Figure 4 alternative: the same
    # logical join executed n-ways via NIC scattering.
    has_join = any(isinstance(n, Join) for n in nodes)
    n_nodes = len(getattr(fabric, "compute", []))
    partition_options = [1]
    if has_join and n_nodes > 1:
        partition_options.append(n_nodes)

    chosen: dict[int, tuple[list[str], int, int]] = {}

    def extend(k: int) -> Iterator[dict]:
        """Monotone completions of ``nodes[:k]``'s choice, product order."""
        if k == len(nodes):
            yield dict(chosen)
            return
        for option in options[k]:
            # Data never flows backward along the path: walk order is
            # children first, so every input of node k is already
            # chosen and must end at or before where this chain starts.
            if all(chosen[c.node_id][2] <= option[1]
                   for c in nodes[k].children):
                chosen[nodes[k].node_id] = option
                yield from extend(k + 1)

    produced = 0
    for assignment in extend(0):
        for partitions in partition_options:
            yield Placement(
                sites={i: list(option[0])
                       for i, option in assignment.items()},
                result_site=cpu, partitions=partitions,
                name="enumerated")
            produced += 1
            if produced >= max_placements:
                return
