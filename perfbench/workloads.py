"""The five fixed workloads.

Each workload owns its query shapes and tenant mix (copies of the F1-F6
figure queries, the three ``--scale`` queries and ``three_tenant_mix``),
so a later edit to ``analysis/scenarios.py``, ``bench.py`` or
``serve/scenarios.py`` cannot silently change the load.  Only the
package's public API is used.

A *window* is one round over the workload's distinct queries, or one
serve run.  ``window(k)`` returns one :class:`Op` per operation with a
digest of everything simulated about it; simulated outputs repeat
exactly, so a digest that differs from the first one seen (or from the
pinned seed-0 reference) is a failed op.
"""

from __future__ import annotations

import dataclasses
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

from repro import (
    AggSpec,
    Catalog,
    DataflowEngine,
    Optimizer,
    Query,
    VolcanoEngine,
    build_fabric,
    col,
    conventional_spec,
    dataflow_spec,
    make_lineitem,
    make_orders,
    make_uniform_table,
)
from repro.serve import (
    SERVE_SCENARIOS,
    ArrivalSpec,
    ServeConfig,
    TenantClass,
    run_scenario,
)
from repro.serve.scenarios import ServeScenario

import oracle
from oracle import Shape

__all__ = ["Op", "WORKLOADS", "make_workload"]


@dataclass
class Op:
    """One attempted operation of a window."""

    key: str
    digest: Optional[list]      # None when the op raised
    queries: int = 0
    rows: int = 0               # input rows scanned
    error: str = ""


# -- query shapes ------------------------------------------------------------

_ORDERS_URGENT = ("orders", ("o_priority", "le", 2),
                  "l_orderkey", "o_orderkey")

FIGS: dict[str, tuple[Shape, Callable]] = {
    "f1": (Shape("lineitem", ("l_quantity", "gt", 30),
                 group=("l_returnflag",), aggs=(("count", "", "n"),)),
           conventional_spec),
    "f2": (Shape("lineitem", ("l_quantity", "gt", 40),
                 project=("l_orderkey", "l_extendedprice")),
           dataflow_spec),
    "f3": (Shape("lineitem", ("l_shipdate", "between", 8500, 10500),
                 group=("l_returnflag",),
                 aggs=(("sum", "l_extendedprice", "revenue"),
                       ("count", "", "n"))),
           dataflow_spec),
    "f4": (Shape("lineitem", ("l_quantity", "gt", 10),
                 join=_ORDERS_URGENT, group=("o_priority",),
                 aggs=(("count", "", "n"),)),
           lambda: dataflow_spec(compute_nodes=2)),
    "f5": (Shape("uniform", ("k0", "lt", 25), sort=("k0", "k1"),
                 limit=100),
           dataflow_spec),
    "f6": (Shape("lineitem", ("l_shipdate", "between", 8500, 8800),
                 join=_ORDERS_URGENT, group=("o_priority",),
                 aggs=(("sum", "l_extendedprice", "rev"),
                       ("count", "", "n"))),
           lambda: dataflow_spec(gpu="host", network_gbits=25.0)),
}
FIGS_ROWS = 3000
FIGS_CHUNK = 1000

SCALE: dict[str, tuple[Shape, int]] = {
    "pushdown_100k": (
        Shape("lineitem", ("l_quantity", "gt", 45),
              project=("l_orderkey", "l_extendedprice")), 100_000),
    "join_300k": (
        Shape("lineitem", ("l_quantity", "gt", 10), join=_ORDERS_URGENT,
              group=("o_priority",),
              aggs=(("sum", "l_extendedprice", "rev"),)), 300_000),
    "pipeline_1m": (
        Shape("lineitem", ("l_shipdate", "between", 8500, 8800),
              join=_ORDERS_URGENT, group=("o_priority",),
              aggs=(("sum", "l_extendedprice", "rev"),
                    ("count", "", "n"))), 1_000_000),
}
SCALE_CHUNK = 16_384

# The shapes behind the package's ``serve_templates()``: the served
# answers are checked against these, and they say which tables a
# served query scans.
TEMPLATES: dict[str, Shape] = {
    "count_hot": Shape("uniform", ("k0", "lt", 5), group=(),
                       aggs=(("count", "", "n"),)),
    "filter_project": FIGS["f2"][0],
    "group_by_flag": FIGS["f3"][0],
    "topk": FIGS["f5"][0],
    "join_priority": SCALE["join_300k"][0],
}
SERVE_ROWS = 2000
SERVE_QUERIES = {"gold": 120, "silver": 105, "bronze": 75}
SERVE_CONFIG = ServeConfig(max_concurrency=4, max_queue=48)


def _predicate(where: tuple):
    name, op, *consts = where
    column = col(name)
    if op == "gt":
        return column > consts[0]
    if op == "lt":
        return column < consts[0]
    if op == "le":
        return column <= consts[0]
    return column.between(*consts)


def to_query(shape: Shape) -> Query:
    query = Query.scan(shape.table).filter(_predicate(shape.where))
    if shape.join is not None:
        right, right_where, left_key, right_key = shape.join
        query = query.join(
            Query.scan(right).filter(_predicate(right_where)),
            left_key, right_key)
    if shape.group is not None:
        return query.aggregate(
            list(shape.group),
            [AggSpec(func, column, alias)
             for func, column, alias in shape.aggs])
    if shape.sort:
        return query.sort(list(shape.sort)).limit(shape.limit)
    return query.project(list(shape.project))


# -- shared helpers ----------------------------------------------------------

def make_catalog(rows: int, chunk: int, seed: int) -> Catalog:
    """lineitem / orders / uniform; seed 0 is the generators' defaults."""
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(
        rows, seed=7 + 100 * seed, orders=rows // 4, chunk_rows=chunk))
    catalog.register("orders", make_orders(
        rows // 4, seed=11 + 100 * seed, chunk_rows=chunk))
    catalog.register("uniform", make_uniform_table(
        rows, columns=3, distinct=50, seed=23 + 100 * seed,
        chunk_rows=chunk))
    return catalog


def _scanned(shape: Shape, catalog: Catalog) -> int:
    return sum(catalog.table(name).num_rows for name in shape.tables)


def _events(fabric) -> int:
    stats = fabric.trace.event_stats()
    return stats["recorded"] + stats["dropped"]


def _digest(result, fabric) -> list:
    return [result.checksum(), result.rows, repr(result.elapsed),
            result.total_bytes_moved, _events(fabric)]


def run_dataflow(shape: Shape, spec: Callable, catalog: Catalog,
                 optimize: bool = True):
    """Execute on a fresh fabric, planned on a twin fabric.

    Without ``optimize`` the engine's default pushdown placement is
    used, as the package's scale tier does.
    """
    query = to_query(shape)
    fabric = build_fabric(spec())
    placement = Optimizer(build_fabric(spec()), catalog).optimize(
        query).placement if optimize else None
    result = DataflowEngine(fabric, catalog).execute(
        query, placement=placement)
    return result, fabric


def run_volcano(shape: Shape, spec: Callable, catalog: Catalog):
    fabric = build_fabric(spec())
    return VolcanoEngine(fabric, catalog).execute(to_query(shape)), fabric


def _attempt(key: str, body: Callable) -> Op:
    """Run one op; an exception is a failed op, not a dead benchmark.

    ``body`` returns ``(digest, queries completed, input rows scanned)``.
    """
    try:
        return Op(key, *body())
    except Exception:
        return Op(key, None, error=traceback.format_exc())


def _columns(table, wanted: Callable = lambda _name: True) -> dict:
    return {name: table.column(name) for name in table.schema.names
            if wanted(name)}


def _oracle_problem(key: str, shape: Shape, catalog: Catalog,
                    table) -> list[str]:
    tables = {name: _columns(catalog.table(name), shape.reads)
              for name in shape.tables}
    why = oracle.mismatch(_columns(table), oracle.evaluate(shape, tables))
    return [f"{key}: numpy oracle: {why}"] if why else []


class Workload:
    """Base: ``build()`` is set-up, ``window(k)`` the timed unit."""

    name = ""
    #: Name of the workload whose untraced window the traced run also
    #: times (serve only: observers on against observers off).
    twin = ""
    #: The latest serve record ({} for the query workloads).
    record: dict = {}

    def __init__(self, seed: int):
        self.seed = seed

    def build(self) -> None:
        raise NotImplementedError

    def window(self, k: int) -> list[Op]:
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Independent checks, untimed: engine agreement + numpy oracle."""
        raise NotImplementedError


# -- figs_dataflow / figs_volcano ---------------------------------------------

class FigsWorkload(Workload):
    def __init__(self, seed: int, engine: str):
        super().__init__(seed)
        self.name = f"figs_{engine}"
        self.run = run_dataflow if engine == "dataflow" else run_volcano

    def build(self) -> None:
        self.catalog = make_catalog(FIGS_ROWS, FIGS_CHUNK, self.seed)

    def window(self, k: int) -> list[Op]:
        return [_attempt(key, lambda: (
                    _digest(*self.run(shape, spec, self.catalog)),
                    1, _scanned(shape, self.catalog)))
                for key, (shape, spec) in FIGS.items()]

    def verify(self) -> list[str]:
        problems = []
        for key, (shape, spec) in FIGS.items():
            flow, _ = run_dataflow(shape, spec, self.catalog)
            pull, _ = run_volcano(shape, spec, self.catalog)
            if flow.checksum() != pull.checksum():
                problems.append(f"{key}: engines disagree")
            problems += _oracle_problem(key, shape, self.catalog,
                                        flow.table)
        return problems


# -- scale_scan_join -----------------------------------------------------------

class ScaleWorkload(Workload):
    name = "scale_scan_join"

    def build(self) -> None:
        self.catalogs = {
            rows: make_catalog(rows, SCALE_CHUNK, self.seed)
            for rows in sorted({rows for _shape, rows in SCALE.values()})}

    def _both(self, shape: Shape, catalog: Catalog):
        pull, pull_fabric = run_volcano(shape, dataflow_spec, catalog)
        flow, flow_fabric = run_dataflow(shape, dataflow_spec, catalog,
                                         optimize=False)
        if pull.checksum() != flow.checksum():
            raise AssertionError("engines disagree")
        return pull, pull_fabric, flow, flow_fabric

    def window(self, k: int) -> list[Op]:
        ops = []
        for key, (shape, rows) in SCALE.items():
            catalog = self.catalogs[rows]

            def body(shape=shape, catalog=catalog):
                pull, pull_fabric, flow, flow_fabric = self._both(
                    shape, catalog)
                # Both engines scan the inputs: the rows count twice.
                return (_digest(pull, pull_fabric)
                        + _digest(flow, flow_fabric),
                        1, 2 * _scanned(shape, catalog))
            ops.append(_attempt(key, body))
        return ops

    def verify(self) -> list[str]:
        problems = []
        for key, (shape, rows) in SCALE.items():
            catalog = self.catalogs[rows]
            try:
                flow = self._both(shape, catalog)[2]
            except AssertionError as exc:
                problems.append(f"{key}: {exc}")
                continue
            problems += _oracle_problem(key, shape, catalog, flow.table)
        return problems


# -- serve_observed / serve_bare ------------------------------------------------

def _tenant_mix(offset: int) -> Callable:
    """``three_tenant_mix`` with the silver tenant's seed shifted.

    Runs at different seeds must cost the same, or the spread between
    seeds hides the spread between runs.  The bursty bronze and the
    closed-loop gold tenant decide how much simulated time a run covers
    and how far queries overlap: shifting bronze moves the observed
    run's host time by a factor of two, shifting gold by 15 %.  Shifting
    silver redraws a third of the arrivals and templates and leaves the
    event and attribution counts where they were.
    """
    def build(_n: int):
        tenants = [
            TenantClass(
                name="gold", weight=4.0, slo_s=0.0012,
                seed=21,
                arrival=ArrivalSpec(kind="closed", population=6,
                                    think_s=0.002),
                templates={"count_hot": 3.0, "filter_project": 1.0}),
            TenantClass(
                name="silver", weight=2.0, slo_s=0.002,
                seed=22 + 10 * offset,
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
        return tenants, dict(SERVE_QUERIES)
    return build


class ServeWorkload(Workload):
    def __init__(self, seed: int, observed: bool):
        super().__init__(seed)
        self.name = "serve_observed" if observed else "serve_bare"
        self.twin = "serve_bare" if observed else "serve_observed"
        self.config = SERVE_CONFIG if observed else dataclasses.replace(
            SERVE_CONFIG, telemetry=False, observatory=False)

    def build(self) -> None:
        # The served catalog is the package's own (default generator
        # seeds); this twin of it feeds the numpy oracle and row counts.
        self.catalog = make_catalog(SERVE_ROWS, FIGS_CHUNK, 0)
        self.scanned = {name: _scanned(shape, self.catalog)
                        for name, shape in TEMPLATES.items()}
        SERVE_SCENARIOS[f"perfbench_{self.name}"] = ServeScenario(
            name=f"perfbench_{self.name}",
            description="perfbench three-tenant mix",
            rows=SERVE_ROWS, queries=sum(SERVE_QUERIES.values()),
            config=self.config, build_tenants=_tenant_mix(self.seed))

    def window(self, k: int) -> list[Op]:
        def body():
            # verify=True raises on accounting / telemetry / observatory
            # violations and on any answer the Volcano oracle disputes.
            record = self.record = run_scenario(
                f"perfbench_{self.name}", config=self.config, verify=True)
            done = [r for r in record["records"]
                    if r["latency_s"] is not None]
            digest = [record["checksum"], record["completed"],
                      record["shed"], repr(record["sim_time_s"]),
                      record.get("telemetry_digest"),
                      record.get("observatory_digest")]
            return (digest, len(done),
                    sum(self.scanned[r["template"]] for r in done))
        return [_attempt("run", body)]

    def verify(self) -> list[str]:
        """Tie the served answers to the numpy oracle.

        The serve run already matched every served checksum against a
        standalone Volcano run per template; here the same standalone
        run is checked against numpy, and its checksum against the one
        the serve run used.
        """
        served = self.record.get("verification", {}).get("templates", {})
        problems = []
        for name, shape in TEMPLATES.items():
            result, _ = run_volcano(shape, dataflow_spec, self.catalog)
            problems += _oracle_problem(name, shape, self.catalog,
                                        result.table)
            if name in served and served[name] != result.checksum():
                problems.append(
                    f"{name}: served checksum is not the benchmark's")
        if not served:
            problems.append("serve run reported no oracle templates")
        return problems


# Why each workload is here is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable] = {
    "figs_dataflow": lambda seed: FigsWorkload(seed, "dataflow"),
    "figs_volcano": lambda seed: FigsWorkload(seed, "volcano"),
    "scale_scan_join": ScaleWorkload,
    "serve_observed": lambda seed: ServeWorkload(seed, observed=True),
    "serve_bare": lambda seed: ServeWorkload(seed, observed=False),
}


def make_workload(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
