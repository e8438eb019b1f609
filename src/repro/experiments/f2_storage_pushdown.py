"""F2 — offloading selection/projection to remote storage (Figure 2).

The paper: pushing the filtering stages (projection, selection) down
to disaggregated storage cuts the data that crosses the network to
roughly selectivity x projected-width of the table, optimizing
network utilization.

Sweeps selectivity and projection width with the data-flow engine,
pushdown on (storage CU) vs off (filter/project on the CPU), on the
same network-attached fabric.
"""

from .. import (
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
from . import above, exactly

ROWS = 100_000
CHUNK = 8_192

NARROW = ["l_orderkey", "l_extendedprice"]
WIDE = ["l_orderkey", "l_partkey", "l_quantity", "l_extendedprice",
        "l_discount", "l_shipdate", "l_returnflag", "l_comment"]


def run_case(selectivity: float, columns: list[str],
             push: bool) -> dict:
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(ROWS, chunk_rows=CHUNK))
    cutoff = 1 + int(50 * selectivity)
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") <= cutoff)
             .project(columns))
    engine = DataflowEngine(fabric, catalog)
    placement = (pushdown(query.plan, fabric) if push
                 else cpu_only(query.plan, fabric))
    result = engine.execute(query, placement=placement)
    return {
        "selectivity": selectivity,
        "width": "narrow" if columns is NARROW else "wide",
        "pushdown": push,
        "rows": result.rows,
        "network": result.bytes_on("network"),
        "elapsed": result.elapsed,
    }


def run() -> list[dict]:
    rows = []
    for selectivity in (1.0, 0.1, 0.01):
        for columns in (WIDE, NARROW):
            for push in (False, True):
                rows.append(run_case(selectivity, columns, push))
    return rows


def _pick(rows, sel, width, push):
    return next(r for r in rows if r["selectivity"] == sel
                and r["width"] == width and r["pushdown"] == push)


def _kept(rows, sel, width):
    """Network bytes with pushdown over bytes without it."""
    return (_pick(rows, sel, width, True)["network"]
            / _pick(rows, sel, width, False)["network"])


CHECKS = {
    "narrow_selective_pushdown_cuts_network_50x":
        lambda rows: above(1 / _kept(rows, 0.01, "narrow"), 50),
    "wide_unselective_pushdown_within_25pct":
        lambda rows: above(_kept(rows, 1.0, "wide"), 0.75),
    "pushdown_keeps_every_row_count": lambda rows: exactly(sum(
        _pick(rows, sel, width, True)["rows"]
        != _pick(rows, sel, width, False)["rows"]
        for sel in (1.0, 0.1, 0.01) for width in ("narrow", "wide")), 0),
}
