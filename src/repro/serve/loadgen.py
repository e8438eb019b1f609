"""Load generation: deterministic arrival schedules per tenant.

Open arrival processes (poisson / bursty / diurnal) are fully
determined by their seed, so they can be materialized up front as an
:class:`Arrival` schedule — ``repro loadgen`` writes exactly that as
JSON, and a serving run registers each arrival as a kernel callback
at its time.  Closed populations cannot be pre-materialized (each
client's next arrival depends on its previous completion), so they
run live as simulator processes instead; :func:`schedule_for` covers
the open tenants only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..scheduler.workloads import bursty_arrivals, diurnal_arrivals, \
    poisson_arrivals
from .tenants import TenantClass

__all__ = ["Arrival", "open_arrivals", "schedule_for"]


@dataclass(frozen=True)
class Arrival:
    """One scheduled query arrival (simulated seconds)."""

    time: float
    tenant: str
    template: str
    seq: int

    def to_dict(self) -> dict:
        return asdict(self)


def open_arrivals(tenant: TenantClass, n: int) -> list[Arrival]:
    """``n`` arrivals for one open-process tenant (seeded)."""
    spec = tenant.arrival
    if not spec.is_open:
        raise ValueError(
            f"tenant {tenant.name!r} is closed-loop; its arrivals "
            "depend on completions and cannot be pre-materialized")
    if spec.kind == "poisson":
        times = poisson_arrivals(n, spec.rate, seed=tenant.seed)
    elif spec.kind == "bursty":
        times = bursty_arrivals(n, rate_on=spec.rate,
                                rate_off=spec.rate_off,
                                mean_on=spec.mean_on,
                                mean_off=spec.mean_off,
                                seed=tenant.seed)
    else:  # diurnal
        times = diurnal_arrivals(n, base_rate=spec.rate,
                                 amplitude=spec.amplitude,
                                 period=spec.period,
                                 seed=tenant.seed)
    picks = tenant.draw_templates(n)
    return [Arrival(time=t, tenant=tenant.name, template=template,
                    seq=i)
            for i, (t, template) in enumerate(zip(times, picks))]


def schedule_for(tenants: list[TenantClass],
                 counts: dict[str, int]) -> list[Arrival]:
    """The merged open-tenant schedule, sorted by (time, tenant, seq).

    Closed tenants are skipped (they run live); the sort is total, so
    the replay order — and therefore the whole serving run — is
    deterministic.
    """
    merged: list[Arrival] = []
    for tenant in tenants:
        if tenant.arrival.is_open:
            merged.extend(open_arrivals(tenant,
                                        counts[tenant.name]))
    merged.sort(key=lambda a: (a.time, a.tenant, a.seq))
    return merged
