"""C2 — the data-center tax and bytes-scanned billing (§2.2, §3.2).

Two parts:

1. **Tax share**: a remote read pipeline with the cloud's mandatory
   serialize/compress/encrypt steps (on the CPU) vs the same pipeline
   without them: how much of the device time the tax consumes, and
   what offloading the tax to the SmartNIC recovers ([3]'s
   "datacenter tax" profiled at ~30% of cycles).

2. **Billing**: QaaS systems charge per byte *scanned*.  An S3-Select
   style pushdown GET scans the same bytes (same bill) but a plain
   GET-then-filter moves everything; with per-byte egress the
   difference shows up in what the user pays for movement.
"""

from ..cloud import EgressOp, IngressOp, ObjectStore, TaxConfig
from ..flow import StageGraph
from ..hardware import build_fabric, dataflow_spec
from ..relational import col, make_lineitem
from . import above, at_least, below, exactly

ROWS = 60_000
CHUNK = 4_096


def run_tax_pipeline(taxed: bool, offload: bool) -> dict:
    """Ship a table storage->CPU with/without tax, on CPU or NICs."""
    fabric = build_fabric(dataflow_spec())
    table = make_lineitem(ROWS, chunk_rows=CHUNK)
    graph = StageGraph(fabric, name="c2")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    if taxed:
        egress_site = "storage.nic" if offload else "compute0.cpu"
        ingress_site = "compute0.nic" if offload else "compute0.cpu"
        egress = graph.stage("egress", egress_site,
                             [EgressOp(TaxConfig())])
        ingress = graph.stage("ingress", ingress_site,
                              [IngressOp(TaxConfig())])
        sink = graph.sink("out", "compute0.cpu")
        graph.connect(src, egress)
        graph.connect(egress, ingress)
        graph.connect(ingress, sink)
    else:
        sink = graph.sink("out", "compute0.cpu")
        graph.connect(src, sink)
    result = graph.run()
    assert result.table().num_rows == ROWS
    cpu_busy = fabric.trace.busy_time("device.compute0.cpu")
    tax_kinds = ("serialize", "deserialize", "compress", "decompress",
                 "encrypt", "decrypt")
    cpu_tax_bytes = sum(
        fabric.trace.counter(f"device.compute0.cpu.bytes.{k}")
        for k in tax_kinds)
    return {
        "taxed": taxed,
        "tax_site": ("nic" if offload else "cpu") if taxed else "-",
        "elapsed": result.elapsed,
        "network": fabric.trace.counter("movement.network.bytes"),
        "cpu_busy": cpu_busy,
        "cpu_tax_bytes": cpu_tax_bytes,
    }


def run_billing() -> list[dict]:
    fabric = build_fabric(dataflow_spec())
    table = make_lineitem(ROWS, chunk_rows=CHUNK)
    predicate = col("l_quantity") > 45

    rows = []
    for pushdown in (False, True):
        store = ObjectStore(fabric.storage)
        keys = store.put_table("lineitem", table)

        def run():
            returned = 0
            for key in keys:
                if pushdown:
                    chunk = yield from store.select(
                        key, predicate=predicate,
                        columns=["l_orderkey", "l_extendedprice"])
                else:
                    chunk = yield from store.get(key)
                returned += chunk.nbytes
            return returned

        returned = fabric.sim.run_process(run())
        rows.append({
            "mode": "select-pushdown" if pushdown else "get-then-filter",
            "bytes_scanned": store.bill.bytes_scanned,
            "scan_dollars": store.bill.dollars,
            "bytes_returned": returned,
        })
    return rows


def run():
    taxes = [run_tax_pipeline(False, False),
             run_tax_pipeline(True, False),
             run_tax_pipeline(True, True)]
    return taxes, run_billing()


CHECKS = {
    # Tax on the CPU consumes real time there.
    "cpu_tax_runs_on_the_cpu":
        lambda rows: above(rows[0][1]["cpu_tax_bytes"], 0),
    "cpu_tax_costs_5x_cpu_time": lambda rows: (
        rows[0][1]["cpu_busy"] > 5 * rows[0][0]["cpu_busy"],
        rows[0][1]["cpu_busy"]),
    # Offloading the tax returns the CPU to the untaxed level.
    "nic_offload_frees_the_cpu":
        lambda rows: exactly(rows[0][2]["cpu_tax_bytes"], 0),
    # Egress on the storage-side NIC puts the compressed form on the
    # wire; with host-side tax the wire is still raw.
    "nic_egress_compresses_the_wire": lambda rows: below(
        rows[0][2]["network"] / rows[0][0]["network"], 1),
    "host_side_tax_leaves_the_wire_raw": lambda rows: at_least(
        rows[0][1]["network"] / rows[0][0]["network"], 1),
    # Billing: same scan bill, far fewer bytes returned.
    "pushdown_bills_the_same_scan": lambda rows: below(
        abs(rows[1][0]["bytes_scanned"] - rows[1][1]["bytes_scanned"]), 1),
    "pushdown_returns_under_10pct": lambda rows: below(
        rows[1][1]["bytes_returned"] / rows[1][0]["bytes_returned"], 0.1),
}
