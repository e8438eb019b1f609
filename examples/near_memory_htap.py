"""Near-memory functional units in an HTAP-style workload (§5.4).

An operational store keeps recent orders in *row* format behind a
B-tree-like block index; analytics wants them *columnar*.  The paper
proposes near-memory functional units for exactly this gap:

* a **pointer-dereferencing unit** that walks the index inside the
  memory system and ships only matching leaves upward;
* a **transposition unit** that converts row-major blocks to columnar
  form on the memory controller, so the cores (and caches) only ever
  see the analytic layout.

This example runs a batch of point lookups plus a format conversion
both ways — CPU-centric and near-memory — on one compute node of the
Figure 6 fabric, over the same real data structures, and compares
memory-bus traffic and time.

Run:  python examples/near_memory_htap.py
"""

import numpy as np

from repro import Chunk, DataType, Field, Schema
from repro.hardware import (
    HierarchicalBlockStore,
    OpKind,
    build_fabric,
    chase_near_memory,
    chase_on_cpu,
    dataflow_spec,
    memory_read,
)
from repro.relational import to_column_major, to_row_major

N_KEYS = 500_000
LOOKUPS = 500
TRANSPOSE_ROWS = 1_000_000


def env():
    fabric = build_fabric(dataflow_spec())
    return fabric, fabric.compute[0]


def lookup_batch(on_accel: bool) -> dict:
    store = HierarchicalBlockStore(list(range(0, N_KEYS * 2, 2)))
    rng = np.random.default_rng(7)
    probes = rng.integers(0, N_KEYS * 2, size=LOOKUPS).tolist()
    fabric, node = env()

    def run():
        found = 0
        for key in probes:
            if on_accel:
                value = yield from chase_near_memory(store, key, fabric,
                                                     node)
            else:
                value = yield from chase_on_cpu(store, key, fabric, node)
            if value is not None:
                found += 1
        return found

    found = fabric.sim.run_process(run())
    return {"found": found, "tree_height": store.height,
            "dram_gib_s": fabric.spec.controllers
            * fabric.spec.controller_gib,
            "membus_mib": fabric.trace.counter("movement.membus.bytes")
            / (1 << 20),
            "elapsed_ms": fabric.sim.now * 1e3}


def transpose(on_accel: bool) -> dict:
    schema = Schema([Field("order_id", DataType.INT64),
                     Field("amount", DataType.FLOAT64),
                     Field("flag", DataType.BOOL)])
    rng = np.random.default_rng(11)
    columnar = Chunk(Schema(schema.fields[:2]), {
        "order_id": np.arange(TRANSPOSE_ROWS, dtype=np.int64),
        "amount": rng.uniform(0, 1000, TRANSPOSE_ROWS),
    }).with_column(schema.field("flag"),
                   rng.uniform(0, 1, TRANSPOSE_ROWS) > 0.5)
    rows = to_row_major(columnar)           # the OLTP-resident layout
    fabric, node = env()

    def run():
        nbytes = rows.nbytes
        if on_accel:
            # The transposition unit converts in place near memory;
            # only the (columnar) result streams to the cores.
            yield from node.accelerator.execute(OpKind.TRANSPOSE, nbytes)
            back = to_column_major(rows, schema)
            yield from memory_read(fabric, "compute0.nearmem",
                                   "compute0.cpu", back.nbytes)
        else:
            # CPU-centric: rows cross to the cores, get transposed in
            # software, and the result streams back to DRAM.
            yield from memory_read(fabric, "compute0.dram", "compute0.cpu",
                                   nbytes)
            yield from node.cpu.execute(OpKind.TRANSPOSE, nbytes)
            back = to_column_major(rows, schema)
            yield from memory_read(fabric, "compute0.llc", "compute0.dram",
                                   back.nbytes)
        return back

    back = fabric.sim.run_process(run())
    assert back.sorted_rows() == columnar.sorted_rows()
    return {"membus_mib": fabric.trace.counter("movement.membus.bytes")
            / (1 << 20),
            "elapsed_ms": fabric.sim.now * 1e3}


def main() -> None:
    cpu_lookup = lookup_batch(on_accel=False)
    nm_lookup = lookup_batch(on_accel=True)
    print(f"point lookups ({LOOKUPS} probes, tree height "
          f"{cpu_lookup['tree_height']}, host DRAM "
          f"{cpu_lookup['dram_gib_s']:.0f} GiB/s):")
    print(f"{'':>14} {'membus MiB':>12} {'elapsed ms':>12}")
    print(f"{'cpu':>14} {cpu_lookup['membus_mib']:>12.2f} "
          f"{cpu_lookup['elapsed_ms']:>12.2f}")
    print(f"{'near-memory':>14} {nm_lookup['membus_mib']:>12.2f} "
          f"{nm_lookup['elapsed_ms']:>12.2f}")
    assert cpu_lookup["found"] == nm_lookup["found"]

    cpu_t = transpose(on_accel=False)
    nm_t = transpose(on_accel=True)
    print(f"\nrow->column conversion ({TRANSPOSE_ROWS:,} rows):")
    print(f"{'':>14} {'membus MiB':>12} {'elapsed ms':>12}")
    print(f"{'cpu':>14} {cpu_t['membus_mib']:>12.2f} "
          f"{cpu_t['elapsed_ms']:>12.2f}")
    print(f"{'near-memory':>14} {nm_t['membus_mib']:>12.2f} "
          f"{nm_t['elapsed_ms']:>12.2f}")
    print("\nsame answers, a fraction of the memory traffic ✓")


if __name__ == "__main__":
    main()
