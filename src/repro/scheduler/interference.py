"""Interference modeling for multi-query scheduling (§7.3).

"The enemy of sustained performance in this environment is
interference": two plans contending for one limited resource lose
more than their fair share.  The scheduler reasons about it with
*demand vectors* — per-resource busy-time predictions extracted from
the optimizer's :class:`~repro.optimizer.cost.PlanCost` — and a
:class:`LoadTracker` that sums the vectors of currently running
queries.  A variant's *interference score* is the projected busy time
of the most loaded resource if that variant were admitted now.
"""

from __future__ import annotations

from typing import Mapping

from ..optimizer.cost import PlanCost

__all__ = ["demand_vector", "LoadTracker"]


def demand_vector(cost: PlanCost) -> dict[str, float]:
    """Per-resource busy-seconds a placed plan will demand.

    Devices and links are both resources; keys are site names and
    link names, so variants that use disjoint hardware have disjoint
    vectors.  The vector is kept on the cost it was derived from (a
    finished cost is not edited): a cached variant is scored and
    admitted once per query.  Callers must not mutate it.
    """
    vector = cost.__dict__.get("_demand_vector")
    if vector is None:
        vector = cost._demand_vector = {
            f"device:{site}": s for site, s in cost.device_time.items()}
        vector.update(
            (f"link:{link}", s) for link, s in cost.link_time.items())
    return vector


class LoadTracker:
    """Aggregated demand of the queries currently in flight."""

    def __init__(self):
        self._loads: dict[str, dict[str, float]] = {}
        self._total = None      # load(), until the mix next changes

    def admit(self, job_name: str, vector: Mapping[str, float]) -> None:
        if job_name in self._loads:
            raise ValueError(f"job {job_name!r} already admitted")
        self._loads[job_name] = dict(vector)
        self._total = None

    def release(self, job_name: str) -> None:
        self._loads.pop(job_name, None)
        self._total = None

    def load(self) -> dict[str, float]:
        """Current total demand per resource (summed once per mix: one
        pick scores every variant against it; do not mutate)."""
        if self._total is None:
            total = self._total = {}
            for vector in self._loads.values():
                for resource, seconds in vector.items():
                    total[resource] = total.get(resource, 0.0) + seconds
        return self._total

    def interference_score(self, vector: Mapping[str, float]) -> float:
        """Projected busiest-resource time if ``vector`` is admitted."""
        load = self.load()
        busiest = 0.0
        for resource, seconds in vector.items():
            busiest = max(busiest, load.get(resource, 0.0) + seconds)
        # Resources the candidate does not touch still bound nothing
        # for it — only shared resources interfere.
        return busiest
