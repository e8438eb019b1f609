"""C7 — which operators make sense to push down? (§3.3)

The paper's open question: "identifying the SQL operators that make
sense to push down to the storage layer ... for what data types does
it make sense to filter them at the storage rather than at the
compute layer?"  And the AQUA observation that LIKE/regex gains the
most because a dedicated automaton beats a CPU at pattern matching.

For each candidate operator this experiment runs pushdown vs CPU placement
and reports the movement reduction and the speedup, across a sweep of
storage-CU speeds (the "what would the nature of such a processor be"
axis).  Stateful operators (sort) are shown rejected by the placement
validator — the storage CU is stateless by design.
"""

from .. import (
    AggSpec,
    Catalog,
    DataflowEngine,
    Query,
    build_fabric,
    col,
    cpu_only,
    dataflow_spec,
    make_lineitem,
    pushdown,
)
from . import above, at_least, below

ROWS = 60_000
CHUNK = 4_096


def queries():
    return {
        "select_1pct": (Query.scan("lineitem")
                        .filter(col("l_quantity") > 49)),
        "select_50pct": (Query.scan("lineitem")
                         .filter(col("l_quantity") > 25)),
        "like_regex": (Query.scan("lineitem")
                       .filter(col("l_comment").like("%express%"))),
        "project_narrow": (Query.scan("lineitem")
                           .project(["l_orderkey"])),
        "pre_aggregate": (Query.scan("lineitem")
                          .aggregate(["l_returnflag"],
                                     [AggSpec("count", alias="n")])),
    }


def run_case(name, query, cu_scale: float) -> dict:
    def execute(push: bool):
        fabric = build_fabric(dataflow_spec(storage_cu_scale=cu_scale))
        catalog = Catalog()
        catalog.register("lineitem", make_lineitem(ROWS,
                                                   chunk_rows=CHUNK))
        engine = DataflowEngine(fabric, catalog)
        placement = (pushdown(query.plan, fabric) if push
                     else cpu_only(query.plan, fabric))
        return engine.execute(query, placement=placement)

    res_cpu = execute(False)
    res_push = execute(True)
    assert res_cpu.table.sorted_rows() == res_push.table.sorted_rows()
    return {
        "operator": name,
        "cu_scale": cu_scale,
        "movement_reduction":
            res_cpu.bytes_on("network")
            / max(1.0, res_push.bytes_on("network")),
        "speedup": res_cpu.elapsed / res_push.elapsed,
    }


def run() -> list[dict]:
    rows = []
    for cu_scale in (0.25, 1.0, 4.0):
        for name, query in queries().items():
            rows.append(run_case(name, query, cu_scale))
    return rows


def _pick(rows, op, scale, key):
    return next(r[key] for r in rows if r["operator"] == op
                and r["cu_scale"] == scale)


def _sort_rejected_on_storage(_rows):
    """A full stateful sort is rejected at the storage layer (§3.3:
    "mostly stateless to avoid requiring additional memory") — the CU
    only offers bounded run generation, so the stateful SortOp has no
    kernel form there.  Judged by running it, not from the rows."""
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(1000, chunk_rows=500))
    sort_query = Query.scan("lineitem").sort(["l_orderkey"])
    placement = pushdown(sort_query.plan, fabric)
    placement.sites[sort_query.plan.node_id] = ["storage.cu"]
    try:
        DataflowEngine(fabric, catalog).execute(sort_query,
                                                placement=placement)
    except RuntimeError:
        return True, None
    return False, None


CHECKS = {
    # Reduction factor is a property of the data, not the CU speed.
    "select_1pct_cuts_movement_30x": lambda rows: above(
        _pick(rows, "select_1pct", 1.0, "movement_reduction"), 30),
    "narrow_projection_cuts_movement_20x": lambda rows: above(
        _pick(rows, "project_narrow", 1.0, "movement_reduction"), 20),
    "pre_aggregation_cuts_movement_50x": lambda rows: above(
        _pick(rows, "pre_aggregate", 1.0, "movement_reduction"), 50),
    "select_50pct_cuts_movement_under_3x": lambda rows: below(
        _pick(rows, "select_50pct", 1.0, "movement_reduction"), 3),
    # Speedups: selective filter wins, non-selective barely.
    "select_1pct_speeds_up_20pct": lambda rows: above(
        _pick(rows, "select_1pct", 1.0, "speedup"), 1.2),
    # LIKE on a fast CU is the standout (AQUA).
    "like_on_a_fast_cu_is_the_standout": lambda rows: above(
        _pick(rows, "like_regex", 4.0, "speedup")
        / _pick(rows, "select_50pct", 4.0, "speedup"), 1),
    "a_faster_cu_never_hurts": lambda rows: at_least(min(
        _pick(rows, op, 4.0, "speedup") / _pick(rows, op, 0.25, "speedup")
        for op in ("select_1pct", "like_regex")), 0.95),
    "storage_cu_rejects_a_full_sort": _sort_rejected_on_storage,
}
