"""Quickstart: the same query on the old and the new architecture.

Builds the paper's Figure 6 fabric (computational storage, SmartNICs,
near-memory accelerator, CXL), loads a synthetic lineitem table, and
runs one selective analytic query three ways:

1. pull-based Volcano on the CPU (the conventional engine),
2. push-based data-flow with everything still placed on the CPU,
3. push-based data-flow with the optimizer choosing offload sites.

All three return identical rows; watch the bytes move.

Run:  python examples/quickstart.py
"""

from repro import (
    AggSpec,
    Catalog,
    DataflowEngine,
    Optimizer,
    Query,
    VolcanoEngine,
    build_fabric,
    col,
    cpu_only,
    dataflow_spec,
    lit,
    make_lineitem,
)


def fmt_mib(nbytes: float) -> str:
    return f"{nbytes / (1 << 20):8.2f} MiB"


def main() -> None:
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(200_000,
                                               chunk_rows=16_384))
    query = (Query.scan("lineitem")
             .filter(col("l_quantity") > 45)
             .aggregate(["l_returnflag"],
                        [AggSpec("sum", "l_extendedprice", "revenue"),
                         AggSpec("count", alias="orders")]))

    print("query: revenue by return flag for quantity > 45 "
          f"(tables: {catalog.names})\n")
    results = {}

    fabric = build_fabric(dataflow_spec())
    results["volcano (pull, CPU)"] = VolcanoEngine(
        fabric, catalog).execute(query)

    fabric = build_fabric(dataflow_spec())
    results["dataflow, cpu-only"] = DataflowEngine(
        fabric, catalog).execute(
        query, placement=cpu_only(query.plan, fabric))

    fabric = build_fabric(dataflow_spec())
    best = Optimizer(fabric, catalog).optimize(query)
    results["dataflow, optimized"] = DataflowEngine(
        fabric, catalog).execute(query, placement=best.placement)

    print(f"{'engine':24} {'elapsed':>12} {'network':>14} "
          f"{'total moved':>14}")
    for name, res in results.items():
        print(f"{name:24} {res.elapsed * 1e3:9.2f} ms "
              f"{fmt_mib(res.bytes_on('network'))} "
              f"{fmt_mib(res.total_bytes_moved)}")

    print("\nchosen offload sites:",
          sorted({s for chain in best.placement.sites.values()
                  for s in chain}),
          f"(predicted network: "
          f"{fmt_mib(best.cost.network_bytes).strip()})")
    print("\nresult rows (identical across engines):")
    for row in results["dataflow, optimized"].table.sorted_rows():
        print(" ", row)

    reference = results["volcano (pull, CPU)"].table.sorted_rows()
    for name, res in results.items():
        assert res.table.sorted_rows() == reference, name
    print("\nall three engines agree ✓")

    # A computed column travels the same pipeline: the Map runs where
    # the placement puts it, and only its survivors cross the network.
    net = (Query.scan("lineitem")
           .filter(col("l_quantity") > 49)
           .with_column("net", col("l_extendedprice")
                        * (lit(1) - col("l_discount")))
           .project(["l_orderkey", "net"]))
    priced = DataflowEngine(build_fabric(dataflow_spec()),
                            catalog).execute(net)
    print(f"\ncomputed column: {priced.rows} rows of (l_orderkey, net), "
          f"{fmt_mib(priced.bytes_on('network')).strip()} over the "
          "network")


if __name__ == "__main__":
    main()
