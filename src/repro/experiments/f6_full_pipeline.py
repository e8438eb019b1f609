"""F6 — the full data-flow pipeline, storage to cores (Figure 6, §7).

The capstone comparison on one end-to-end analytic query
(filter + join + group-by):

* Volcano on the conventional local-storage node (Figure 1);
* Volcano on the disaggregated fabric (the lift-and-shift cloud
  deployment the paper says is obsolete);
* data-flow engine, CPU-only placement (push-based but no offload);
* data-flow engine, optimizer-chosen placement (Figure 6);
* data-flow engine, optimizer placement but CPU-mediated copies
  instead of DMA engines (ablation A2, §7.1).

All five produce identical rows; movement and elapsed time differ.
"""

from .. import (
    AggSpec,
    Catalog,
    DataflowEngine,
    Optimizer,
    Query,
    VolcanoEngine,
    build_fabric,
    col,
    conventional_spec,
    cpu_only,
    dataflow_spec,
    make_lineitem,
    make_orders,
)
from ..obs import table_checksum
from . import above, same_answer

LINEITEM_ROWS = 120_000
ORDER_ROWS = 30_000
CHUNK = 8_192


def make_catalog():
    catalog = Catalog()
    catalog.register(
        "lineitem", make_lineitem(LINEITEM_ROWS, orders=ORDER_ROWS,
                                  chunk_rows=CHUNK))
    catalog.register("orders", make_orders(ORDER_ROWS,
                                           chunk_rows=CHUNK))
    return catalog


def query():
    return (Query.scan("lineitem")
            .filter(col("l_shipdate").between(8500, 8800))
            .join(Query.scan("orders").filter(col("o_priority") <= 2),
                  "l_orderkey", "o_orderkey")
            .aggregate(["o_priority"],
                       [AggSpec("sum", "l_extendedprice", "rev"),
                        AggSpec("count", alias="n")]))


def summarize(name, result):
    return {
        "plan": name,
        "rows": result.rows,
        "elapsed": result.elapsed,
        "network": result.bytes_on("network"),
        "host_ic": result.bytes_on("pcie") + result.bytes_on("cxl"),
        "membus": result.bytes_on("membus"),
        "total_moved": result.total_bytes_moved,
        "checksum": table_checksum(result.table),
        "_answer": result.table.sorted_rows(),
    }


def run():
    out = []

    fabric = build_fabric(conventional_spec())
    res = VolcanoEngine(fabric, make_catalog()).execute(query())
    out.append(summarize("volcano/local-disk", res))

    fabric = build_fabric(dataflow_spec())
    res = VolcanoEngine(fabric, make_catalog()).execute(query())
    out.append(summarize("volcano/disaggregated", res))

    fabric = build_fabric(dataflow_spec())
    catalog = make_catalog()
    q = query()
    res = DataflowEngine(fabric, catalog).execute(
        q, placement=cpu_only(q.plan, fabric))
    out.append(summarize("dataflow/cpu-only", res))

    fabric = build_fabric(dataflow_spec())
    catalog = make_catalog()
    q = query()
    best = Optimizer(fabric, catalog).optimize(q)
    res = DataflowEngine(fabric, catalog).execute(
        q, placement=best.placement)
    out.append(summarize("dataflow/optimized", res))

    fabric = build_fabric(dataflow_spec())
    catalog = make_catalog()
    q = query()
    best = Optimizer(fabric, catalog).optimize(q)
    res = DataflowEngine(fabric, catalog,
                         cpu_mediated=True).execute(
        q, placement=best.placement)
    out.append(summarize("dataflow/optimized+cpu-copies", res))
    # The exact cross-configuration oracle; only its verdict is kept.
    reference = out[0]["_answer"]
    for row in out:
        row["answers_agree"] = row.pop("_answer") == reference
    return out


_CPU_CENTRIC = ("volcano/disaggregated", "dataflow/cpu-only")


def _gain(rows, key, baselines):
    """The least of ``baselines``' ``key`` over the optimized plan's."""
    by = {r["plan"]: r for r in rows}
    return (min(by[name][key] for name in baselines)
            / by["dataflow/optimized"][key])


CHECKS = {
    "every_plan_computes_the_same_answer": same_answer,
    "optimized_cuts_network_4x": lambda rows: above(
        _gain(rows, "network", ["volcano/disaggregated"]), 4),
    "optimized_moves_less_than_cpu_centric":
        lambda rows: above(_gain(rows, "total_moved", _CPU_CENTRIC), 1),
    "optimized_beats_cpu_centric":
        lambda rows: above(_gain(rows, "elapsed", _CPU_CENTRIC), 1),
    # A2: removing the DMA engines makes the same placement slower.
    "cpu_copies_are_slower_than_dma": lambda rows: above(
        _gain(rows, "elapsed", ["dataflow/optimized+cpu-copies"]), 1),
}
