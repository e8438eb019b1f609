"""Named serving scenarios: tenants, templates, and the runner.

Each scenario bundles a tenant mix (arrival processes, weights,
SLOs), the query templates they draw from, and the server knobs —
everything :func:`run_scenario` needs to serve the workload
end-to-end on one warm fabric and emit the ``repro.bench/v3``
serving record.

Verification is built in: after the run, every *distinct template*
that completed is executed once standalone (Volcano engine, fresh
fabric — exactly what ``repro query`` does) and every served record's
checksum must match its template's oracle bit for bit.  Serving a
query concurrently under fair queueing, rate limiting, and the plan
cache must not change its answer.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..engine import AggSpec, Query, VolcanoEngine
from ..hardware import build_fabric, dataflow_spec
from ..obs import table_checksum
from ..relational import col, standard_catalog
from .frontend import AsyncFrontEnd, ShedResponse
from .loadgen import schedule_for
from .server import QueryServer, ServeConfig
from .tenants import ArrivalSpec, TenantClass

__all__ = ["SERVE_SCENARIOS", "ServeScenario", "serve_templates",
           "run_scenario", "serve_scenario_server"]


def serve_templates() -> dict[str, Callable[[], Query]]:
    """The query templates tenants draw from.

    Factories, not instances: each server calls a factory once and
    keeps the plan (node ids are globally unique across servers); the
    plan cache proves fresh instances fingerprint identically.
    """
    return {
        "count_hot": lambda: (
            Query.scan("uniform")
            .filter(col("k0") < 5)
            .aggregate([], [AggSpec("count", alias="n")])),
        "filter_project": lambda: (
            Query.scan("lineitem")
            .filter(col("l_quantity") > 40)
            .project(["l_orderkey", "l_extendedprice"])),
        "group_by_flag": lambda: (
            Query.scan("lineitem")
            .filter(col("l_shipdate").between(8500, 10500))
            .aggregate(["l_returnflag"],
                       [AggSpec("sum", "l_extendedprice", "revenue"),
                        AggSpec("count", alias="n")])),
        "topk": lambda: (
            Query.scan("uniform")
            .filter(col("k0") < 25)
            .sort(["k0", "k1"])
            .limit(100)),
        "join_priority": lambda: (
            Query.scan("lineitem")
            .filter(col("l_quantity") > 10)
            .join(Query.scan("orders")
                  .filter(col("o_priority") <= 2),
                  "l_orderkey", "o_orderkey")
            .aggregate(["o_priority"],
                       [AggSpec("sum", "l_extendedprice", "rev")])),
    }


@dataclass(frozen=True)
class ServeScenario:
    """One named serving workload."""

    name: str
    description: str
    rows: int
    queries: int                       # default total across tenants
    config: ServeConfig
    build_tenants: Callable[[int], "tuple[list[TenantClass], dict[str, int]]"]
    """``build_tenants(n)`` -> (tenants, per-tenant query counts)."""


def _split(n: int, fractions: dict[str, float]) -> dict[str, int]:
    """Per-tenant counts; ceiling split so the total is >= ``n``."""
    return {name: max(1, -(-int(n * frac * 1000) // 1000))
            for name, frac in fractions.items()}


def _two_tenant_bursty(n: int):
    tenants = [
        TenantClass(
            name="gold", weight=3.0, slo_s=0.0012, seed=11,
            arrival=ArrivalSpec(kind="bursty", rate=20000.0,
                                rate_off=500.0, mean_on=0.01,
                                mean_off=0.02),
            templates={"count_hot": 2.0, "filter_project": 1.0}),
        TenantClass(
            name="bronze", weight=1.0, slo_s=0.004, seed=12,
            arrival=ArrivalSpec(kind="poisson", rate=2000.0),
            templates={"group_by_flag": 2.0, "topk": 1.0}),
    ]
    return tenants, _split(n, {"gold": 0.6, "bronze": 0.4})


def _three_tenant_mix(n: int):
    tenants = [
        TenantClass(
            name="gold", weight=4.0, slo_s=0.0012, seed=21,
            arrival=ArrivalSpec(kind="closed", population=6,
                                think_s=0.002),
            templates={"count_hot": 3.0, "filter_project": 1.0}),
        TenantClass(
            name="silver", weight=2.0, slo_s=0.002, seed=22,
            arrival=ArrivalSpec(kind="diurnal", rate=3000.0,
                                amplitude=0.8, period=0.1),
            templates={"filter_project": 1.0, "group_by_flag": 1.0}),
        TenantClass(
            name="bronze", weight=1.0, slo_s=0.006, seed=23,
            arrival=ArrivalSpec(kind="bursty", rate=8000.0,
                                rate_off=200.0, mean_on=0.015,
                                mean_off=0.03),
            templates={"group_by_flag": 1.0, "topk": 1.0,
                       "join_priority": 0.5}),
    ]
    return tenants, _split(n, {"gold": 0.4, "silver": 0.35,
                               "bronze": 0.25})


def _overload_shed(n: int):
    tenants = [
        TenantClass(
            name="flood", weight=1.0, slo_s=0.004, seed=31,
            arrival=ArrivalSpec(kind="poisson", rate=25000.0),
            templates={"count_hot": 1.0, "topk": 1.0}),
        TenantClass(
            name="steady", weight=4.0, slo_s=0.008, seed=32,
            arrival=ArrivalSpec(kind="poisson", rate=500.0),
            templates={"group_by_flag": 1.0}),
    ]
    return tenants, _split(n, {"flood": 0.85, "steady": 0.15})


SERVE_SCENARIOS: dict[str, ServeScenario] = {
    "two_tenant_bursty": ServeScenario(
        name="two_tenant_bursty",
        description="Gold bursty bursts against bronze's steady "
                    "poisson stream; both open-loop.",
        rows=2000, queries=200,
        config=ServeConfig(max_concurrency=4, max_queue=32),
        build_tenants=_two_tenant_bursty),
    "three_tenant_mix": ServeScenario(
        name="three_tenant_mix",
        description="Closed-loop gold population + diurnal silver + "
                    "bursty bronze (with joins) — the acceptance "
                    "workload.",
        rows=2000, queries=1000,
        config=ServeConfig(max_concurrency=4, max_queue=48),
        build_tenants=_three_tenant_mix),
    "overload_shed": ServeScenario(
        name="overload_shed",
        description="A flooding tenant against a tiny waiting room: "
                    "admission control must shed, the steady tenant "
                    "must still get through.",
        rows=2000, queries=300,
        config=ServeConfig(max_concurrency=2, max_queue=8),
        build_tenants=_overload_shed),
}


# -- populations -----------------------------------------------------------

async def _open_population(front: AsyncFrontEnd, arrivals) -> None:
    """Replay a pre-materialized open-tenant schedule.

    Open-loop clients do not wait before submitting (that is the
    definition), so every arrival is registered up front and the
    population just gathers the responses — shed queries simply keep
    their ShedResponse; open processes do not retry.
    """
    futures = [front.submit(a.tenant, a.template, at=a.time)
               for a in arrivals]
    if futures:
        await asyncio.gather(*futures)


async def _closed_client(front: AsyncFrontEnd, tenant: TenantClass,
                         client_id: int, quota: int) -> None:
    """One closed-loop client: submit, await, think, repeat."""
    rng = np.random.default_rng((tenant.seed, client_id))
    spec = tenant.arrival
    names = sorted(tenant.templates)
    probabilities = np.array([tenant.templates[t] for t in names])
    probabilities = probabilities / probabilities.sum()
    done = 0
    while done < quota:
        template = names[rng.choice(len(names), p=probabilities)]
        response = await front.submit(tenant.name, template)
        if isinstance(response, ShedResponse):
            # Honor the server's retry-after hint, then try again;
            # the retried submission is a new query (new record).
            await front.sleep_until(
                front.now + response.retry_after_s)
            continue
        done += 1
        think = rng.exponential(spec.think_s)
        await front.sleep_until(front.now + think)


def _populations(front: AsyncFrontEnd, tenants: list[TenantClass],
                 counts: dict[str, int]) -> list:
    populations = [_open_population(
        front, schedule_for(tenants, counts))]
    for tenant in tenants:
        if tenant.arrival.is_open:
            continue
        spec = tenant.arrival
        count = counts[tenant.name]
        quota = max(1, -(-count // spec.population))
        populations.extend(
            _closed_client(front, tenant, client_id, quota)
            for client_id in range(spec.population))
    return populations


# -- the runner ------------------------------------------------------------

def _verify_against_oracle(server: QueryServer, rows: int) -> dict:
    """Standalone-oracle check: served answers == ``repro query``.

    One Volcano run per *distinct completed template* (fresh fabric,
    same catalog) yields the oracle checksum; every served record of
    that template must match it exactly.
    """
    catalog = standard_catalog(rows)
    templates = serve_templates()
    completed = [r for r in server.records if r.completed]
    oracle: dict[str, str] = {}
    for template in sorted({r.template for r in completed}):
        fabric = build_fabric(dataflow_spec())
        result = VolcanoEngine(fabric, catalog).execute(
            templates[template]())
        oracle[template] = table_checksum(result.table)
    mismatches = [
        f"{r.name}: served {r.checksum[:12]}... != oracle "
        f"{oracle[r.template][:12]}..."
        for r in completed if r.checksum != oracle[r.template]]
    if mismatches:
        raise AssertionError(
            "served results diverge from standalone oracle runs:\n  "
            + "\n  ".join(mismatches[:10]))
    return {"templates": oracle, "queries_checked": len(completed),
            "mismatches": 0}


def serve_scenario_server(name: str, rows: Optional[int] = None,
                          queries: Optional[int] = None,
                          config: Optional[ServeConfig] = None
                          ) -> QueryServer:
    """Serve one named scenario; return the drained server.

    The lower-level entry point behind :func:`run_scenario`, for
    callers that need the live server (its fabric trace, telemetry
    object, records) rather than the JSON record — e.g. ``repro
    trace --serve`` exporting the multi-query event ring.
    """
    scenario = SERVE_SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(f"unknown serve scenario {name!r} "
                         f"(have {sorted(SERVE_SCENARIOS)})")
    rows = rows if rows is not None else scenario.rows
    n = queries if queries is not None else scenario.queries
    config = config if config is not None else scenario.config
    catalog = standard_catalog(rows)
    fabric = build_fabric(dataflow_spec())
    tenants, counts = scenario.build_tenants(n)
    server = QueryServer(fabric, catalog, tenants,
                         serve_templates(), config)
    front = AsyncFrontEnd(server)
    front.serve(_populations(front, tenants, counts))
    if not server.idle:
        raise RuntimeError("server not idle after serving run")
    return server


def run_scenario(name: str, rows: Optional[int] = None,
                 queries: Optional[int] = None,
                 config: Optional[ServeConfig] = None,
                 verify: bool = True) -> dict:
    """Serve one named scenario end-to-end; return the v3 record.

    With ``verify`` (the default) the run also asserts zero
    accounting violations, zero telemetry violations, and
    bit-identical checksums against standalone oracle runs — the
    serve-smoke CI contract.
    """
    scenario = SERVE_SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(f"unknown serve scenario {name!r} "
                         f"(have {sorted(SERVE_SCENARIOS)})")
    rows = rows if rows is not None else scenario.rows
    n = queries if queries is not None else scenario.queries

    server = serve_scenario_server(name, rows=rows, queries=n,
                                   config=config)
    record = server.report(scenario.name)
    record["rows"] = rows
    # The *requested* total, as distinct from the submitted count
    # (ceiling splits and closed-loop retries can push ``queries``
    # above it); `repro bench --compare` re-runs with this value.
    record["requested_queries"] = n
    record["description"] = scenario.description
    violations = server.accounting_violations()
    record["accounting_violations"] = violations
    record["telemetry_violations"] = server.telemetry_violations()
    record["observatory_violations"] = server.observatory_violations()
    if verify:
        if violations:
            raise AssertionError(
                "serving accounting violations:\n  "
                + "\n  ".join(violations[:10]))
        if record["telemetry_violations"]:
            raise AssertionError(
                "serving telemetry violations:\n  "
                + "\n  ".join(record["telemetry_violations"][:10]))
        if record["observatory_violations"]:
            raise AssertionError(
                "serving observatory violations:\n  "
                + "\n  ".join(record["observatory_violations"][:10]))
        record["verification"] = _verify_against_oracle(server, rows)
    return record


def scenario_schedule(name: str, queries: Optional[int] = None
                      ) -> "tuple[list[TenantClass], dict[str, int]]":
    """The tenant mix + counts for ``repro loadgen``."""
    scenario = SERVE_SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(f"unknown serve scenario {name!r} "
                         f"(have {sorted(SERVE_SCENARIOS)})")
    n = queries if queries is not None else scenario.queries
    return scenario.build_tenants(n)
