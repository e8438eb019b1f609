"""Per-tenant weighted fair queueing (start-time fair queueing).

The server cannot let one chatty tenant starve the others, so the
waiting room between admission and execution is a start-time fair
queue (SFQ, Goyal et al.): each request is stamped with a virtual
*start* tag ``S = max(V, F_tenant)`` and a *finish* tag ``F = S +
cost / weight`` where ``V`` is the queue's virtual time (the start
tag of the request in service) and ``F_tenant`` the tenant's previous
finish tag.  Serving the smallest finish tag gives each backlogged
tenant throughput proportional to its weight, and a tenant that goes
idle re-enters at the current virtual time instead of banking credit.

Everything is deterministic: ties break on a monotone sequence
number, and the tags are plain floats derived from the (simulated)
cost estimates, so the same submission sequence always drains in the
same order.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

__all__ = ["WeightedFairQueue"]


class WeightedFairQueue:
    """SFQ over tenant classes; min finish-tag first, FIFO per tenant."""

    def __init__(self):
        self._virtual = 0.0
        self._finish: dict[str, float] = {}
        self._heap: list[tuple[float, int, str, float, Any]] = []
        self._seq = 0
        self._depth: dict[str, int] = {}
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def virtual_time(self) -> float:
        return self._virtual

    def depth(self, tenant: Optional[str] = None) -> int:
        """Queued requests, total or for one tenant."""
        if tenant is None:
            return len(self._heap)
        return self._depth.get(tenant, 0)

    def push(self, tenant: str, weight: float, cost: float,
             item: Any) -> float:
        """Enqueue ``item`` with service ``cost``; returns its finish tag."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        if cost < 0:
            raise ValueError("cost must be non-negative")
        start = max(self._virtual, self._finish.get(tenant, 0.0))
        finish = start + cost / weight
        self._finish[tenant] = finish
        self._seq += 1
        heapq.heappush(self._heap,
                       (finish, self._seq, tenant, start, item))
        self._depth[tenant] = self._depth.get(tenant, 0) + 1
        self.max_depth = max(self.max_depth, len(self._heap))
        return finish

    def pop(self) -> tuple[str, Any]:
        """Dequeue the request with the smallest finish tag.

        Virtual time advances to the start tag of the request
        entering service (SFQ's definition of ``v(t)``), which is
        what bounds how far ahead a backlogged tenant can run and
        lets an idle tenant re-enter without accumulated credit.
        """
        if not self._heap:
            raise IndexError("pop from empty fair queue")
        _finish, _seq, tenant, start, item = heapq.heappop(self._heap)
        self._virtual = max(self._virtual, start)
        self._depth[tenant] -= 1
        if not self._depth[tenant]:
            del self._depth[tenant]
        return tenant, item
