"""E4 (extension) — kernel installation and the offload break-even
(§7.2).

Accelerators lack an ISA; every offloaded stage first installs a
kernel (register writes + logic, §7.2).  That setup cost is invisible
at scale but dominates tiny queries — so offloading has a *break-even
size*, one facet of "what operators make sense to push down".

Sweeps table size for a selective LIKE query (regex kernels install
an automaton, the most expensive kernel in the model) with pushdown
on/off, and reports when offload starts paying.
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

CHUNK = 2_048


def run_case(rows: int, push: bool) -> dict:
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(rows, chunk_rows=CHUNK))
    query = (Query.scan("lineitem")
             .filter(col("l_comment").like("%express%"))
             .project(["l_orderkey"]))
    engine = DataflowEngine(fabric, catalog)
    placement = (pushdown(query.plan, fabric) if push
                 else cpu_only(query.plan, fabric))
    result = engine.execute(query, placement=placement)
    install_time = sum(
        v for k, v in fabric.trace.counters.items()
        if k.endswith("kernel_install_time"))
    return {
        "rows": rows,
        "pushdown": push,
        "elapsed": result.elapsed,
        "kernel_install": install_time,
        "install_share": install_time / result.elapsed,
    }


def run() -> list[dict]:
    out = []
    for rows in (200, 2_000, 20_000, 200_000):
        out.append(run_case(rows, push=False))
        out.append(run_case(rows, push=True))
    return out


SIZES = (200, 2_000, 20_000, 200_000)


def _series(rows, push, key):
    return [next(r[key] for r in rows if r["rows"] == n
                 and r["pushdown"] == push) for n in SIZES]


CHECKS = {
    # CPU plans install nothing; offloaded plans always install.
    "cpu_plans_install_nothing": lambda rows: exactly(
        max(_series(rows, False, "kernel_install")), 0.0),
    "offloaded_plans_install_kernels": lambda rows: above(
        min(_series(rows, True, "kernel_install")), 0.0),
    # The install share shrinks with size...
    "install_share_shrinks_with_size": lambda rows: (
        _series(rows, True, "install_share")
        == sorted(_series(rows, True, "install_share"), reverse=True),
        _series(rows, True, "install_share")[-1]),
    # ...and offload wins at scale even though it pays the setup.
    "offload_wins_at_scale": lambda rows: above(
        _series(rows, False, "elapsed")[-1]
        / _series(rows, True, "elapsed")[-1], 1),
}
