"""Cloud analytics over an object store, with and without pushdown.

The scenario of §3.2: a Query-as-a-Service engine scans objects in a
cloud store that bills per byte scanned.  We store a compressed
lineitem table as objects, then answer "total revenue for discounted
items shipped in one month" two ways:

* **get-then-filter**: the conventional pattern — GET every object,
  decode and filter on the compute node;
* **select-pushdown**: S3-Select style — the storage layer's
  computational unit decompresses, filters, and projects, so only
  survivors travel.

The scan bill is identical (that is the QaaS pricing model); the
movement, the compute-side work, and the wall-clock are not.

Run:  python examples/cloud_analytics.py
"""

from repro import ObjectStore, build_fabric, col, \
    dataflow_spec, make_lineitem

PREDICATE = (col("l_shipdate").between(9000, 9030)
             & (col("l_discount") > 0.05))
COLUMNS = ["l_extendedprice", "l_discount"]


def run(pushdown: bool) -> dict:
    # 10 Gb/s of *effective* per-tenant bandwidth: object stores are
    # shared, and the network is the contended resource (§3.2).
    fabric = build_fabric(dataflow_spec(network_gbits=10, rdma=False))
    table = make_lineitem(150_000, chunk_rows=8_192)
    store = ObjectStore(fabric.storage, fabric.trace, compress=True)
    keys = store.put_table("sales/lineitem", table)
    cpu = fabric.site_device("compute0.cpu")

    def job():
        revenue = 0.0
        returned_bytes = 0
        for key in keys:
            if pushdown:
                # Storage CU decompresses/filters/projects; only the
                # survivors cross the network to the compute node.
                chunk = yield from store.select(
                    key, predicate=PREDICATE, columns=COLUMNS)
                yield from fabric.transfer("storage.node",
                                           "compute0.cpu",
                                           chunk.nbytes, flow="qaas")
            else:
                # GET the compressed object, move it whole, then pay
                # the decode + filter + project on the host CPU.
                wire_bytes = store.objects[key].nbytes
                chunk = yield from store.get(key)
                yield from fabric.transfer("storage.node",
                                           "compute0.cpu",
                                           wire_bytes, flow="qaas")
                yield from cpu.execute("decompress", wire_bytes)
                yield from cpu.execute("filter", chunk.nbytes)
                mask = PREDICATE.evaluate(chunk)
                chunk = chunk.filter(mask).project(COLUMNS)
                yield from cpu.execute("project", chunk.nbytes)
                returned_bytes += wire_bytes
            if pushdown:
                returned_bytes += chunk.nbytes
            if chunk.num_rows:
                revenue += float(
                    (chunk.column("l_extendedprice")
                     * chunk.column("l_discount")).sum())
        return revenue, returned_bytes

    start = fabric.sim.now
    revenue, returned = fabric.sim.run_process(job())
    return {
        "mode": "select-pushdown" if pushdown else "get-then-filter",
        "revenue": revenue,
        "objects": len(store.keys("sales/")),
        "bytes_scanned": store.bill.bytes_scanned,
        "bill": store.bill.dollars,
        "bytes_returned": returned,
        "elapsed_ms": (fabric.sim.now - start) * 1e3,
    }


def main() -> None:
    baseline = run(pushdown=False)
    pushed = run(pushdown=True)
    print(f"{'':>18} {'get-then-filter':>18} {'select-pushdown':>18}")
    for field in ("objects", "revenue", "bytes_scanned", "bill",
                  "bytes_returned", "elapsed_ms"):
        a, b = baseline[field], pushed[field]
        if field == "objects":
            print(f"{field:>18} {a:>18,d} {b:>18,d}")
        elif field == "bill":
            print(f"{field:>18} {a:>18.8f} {b:>18.8f}")
        else:
            print(f"{field:>18} {a:>18,.1f} {b:>18,.1f}")
    assert abs(baseline["revenue"] - pushed["revenue"]) < 1e-6 * \
        max(1.0, baseline["revenue"])
    reduction = baseline["bytes_returned"] / pushed["bytes_returned"]
    print(f"\nsame answer, same scan bill, "
          f"{reduction:,.0f}x fewer bytes moved to compute ✓")


if __name__ == "__main__":
    main()
