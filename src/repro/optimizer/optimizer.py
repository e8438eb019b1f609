"""The movement-aware optimizer: enumerate, cost, rank.

Ties :mod:`repro.optimizer.enumeration` to
:mod:`repro.optimizer.cost`: every candidate placement is costed and
the best by bottleneck makespan (movement-dominated by construction)
wins.  ``plan_variants`` returns a small *diverse* set — the data-path
alternatives §7.3 says every plan should carry so the scheduler can
pick one at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..engine.logical import PlanNode, Query
from ..engine.placement import Placement, cpu_only
from ..hardware.presets import HeterogeneousFabric
from ..relational.catalog import Catalog
from .cost import CostModel, PlanCost
from .enumeration import enumerate_placements

__all__ = ["Optimizer", "RankedPlacement"]


@dataclass
class RankedPlacement:
    """A placement with its predicted cost."""

    placement: Placement
    cost: PlanCost
    #: The engine's pipeline recipe for this placement, kept here by an
    #: executor that runs the variant more than once; the optimizer
    #: neither sets nor reads it.
    recipe: Optional[object] = field(default=None, repr=False,
                                     compare=False)


class Optimizer:
    """Ranks offloading placements by predicted movement/makespan."""

    def __init__(self, fabric: HeterogeneousFabric, catalog: Catalog,
                 cardinalities: Optional[dict[int, float]] = None,
                 max_placements: int = 256):
        self.fabric = fabric
        self.catalog = catalog
        self.model = CostModel(fabric, catalog,
                               cardinalities=cardinalities)
        self.max_placements = max_placements

    def _plan_of(self, plan) -> PlanNode:
        return plan.plan if isinstance(plan, Query) else plan

    def rank(self, plan) -> list[RankedPlacement]:
        """All candidate placements, best (lowest makespan) first."""
        plan = self._plan_of(plan)
        # One estimate of the plan prices every candidate of this call.
        coster = self.model.for_plan(plan)
        ranked = [RankedPlacement(placement, coster.cost(placement))
                  for placement in enumerate_placements(
                      plan, self.fabric,
                      max_placements=self.max_placements)]
        # The CPU-only fallback is always a candidate.
        fallback = cpu_only(plan, self.fabric)
        ranked.append(RankedPlacement(fallback, coster.cost(fallback)))
        # Makespan first; among equal-makespan plans (a pipeline is
        # often bottlenecked on the scan), prefer less total movement —
        # the datacenter-level efficiency argument of §1.
        ranked.sort(key=lambda r: (r.cost.bottleneck_time,
                                   r.cost.total_bytes))
        return ranked

    def optimize(self, plan) -> RankedPlacement:
        """The best placement for ``plan``."""
        return self.rank(plan)[0]

    def plan_variants(self, plan, n: int = 3) -> list[RankedPlacement]:
        """A diverse variant set for the scheduler (§7.3).

        Always includes the best plan and the CPU-only plan (the two
        endpoints the paper names), padding with the next-best
        placements that differ in their site usage.
        """
        ranked = self.rank(plan)
        best = ranked[0]
        cpu = next(r for r in ranked
                   if r.placement.name == "cpu-only")
        variants = [best]
        signatures = {self._signature(best.placement)}
        for candidate in ranked[1:]:
            if len(variants) >= max(1, n - 1):
                break
            sig = self._signature(candidate.placement)
            if sig not in signatures and candidate is not cpu:
                variants.append(candidate)
                signatures.add(sig)
        if n >= 2 and self._signature(cpu.placement) not in signatures:
            variants.append(cpu)
        for index, variant in enumerate(variants):
            if variant.placement.name != "cpu-only":
                variant.placement.name = ("best" if index == 0
                                          else f"alt{index}")
        return variants

    @staticmethod
    def _signature(placement: Placement) -> tuple:
        return (tuple(sorted((k, tuple(v))
                             for k, v in placement.sites.items())),
                placement.partitions)
