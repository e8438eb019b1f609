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
both ways — CPU-centric and near-memory — over the same real data
structures, and compares memory-bus traffic and time.  It opens with
the conventional server's own handicap (§5.1): the same scan homed on
the neighbour socket pays the NUMA hop.

Run:  python examples/near_memory_htap.py
"""

import numpy as np

from repro import Chunk, DataType, Field, Schema
from repro.hardware import (
    CPUSocket,
    HierarchicalBlockStore,
    NearMemoryAccelerator,
    OpKind,
    Server,
    chase_near_memory,
    chase_on_cpu,
)
from repro.relational import to_column_major, to_row_major
from repro.sim import Simulator, Trace

N_KEYS = 500_000
LOOKUPS = 500
TRANSPOSE_ROWS = 1_000_000


def env():
    sim = Simulator()
    trace = Trace()
    socket = CPUSocket(sim, trace, "host", cores=8, controllers=2)
    accel = NearMemoryAccelerator(sim, trace, "nearmem")
    return sim, trace, socket, accel


def lookup_batch(on_accel: bool) -> dict:
    store = HierarchicalBlockStore(list(range(0, N_KEYS * 2, 2)),
                                   fanout=16, leaf_capacity=64)
    rng = np.random.default_rng(7)
    probes = rng.integers(0, N_KEYS * 2, size=LOOKUPS).tolist()
    sim, trace, socket, accel = env()

    def run():
        found = 0
        for key in probes:
            if on_accel:
                value = yield from chase_near_memory(store, key, accel,
                                                     socket)
            else:
                value = yield from chase_on_cpu(store, key, socket)
            if value is not None:
                found += 1
        return found

    found = sim.run_process(run())
    return {"found": found, "tree_height": store.height,
            "dram_gib_s": socket.aggregate_bandwidth() / (1 << 30),
            "membus_mib": trace.counter("movement.membus.bytes")
            / (1 << 20),
            "elapsed_ms": sim.now * 1e3}


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
    sim, trace, socket, accel = env()

    def run():
        nbytes = rows.nbytes
        if on_accel:
            # The transposition unit converts in place near memory;
            # only the (columnar) result streams to the cores.
            yield from accel.execute(OpKind.TRANSPOSE, nbytes)
            back = to_column_major(rows, schema)
            yield from socket.memory_read(back.nbytes, stream_id=0)
        else:
            # CPU-centric: rows cross to the core, get transposed in
            # software, and the result is written back.
            yield from socket.memory_read(nbytes, stream_id=0)
            yield from socket.core(0).execute(OpKind.TRANSPOSE, nbytes)
            back = to_column_major(rows, schema)
            yield from socket.controller_for(0).access(back.nbytes,
                                                       write=True)
        return back

    back = sim.run_process(run())
    assert back.sorted_rows() == columnar.sorted_rows()
    return {"membus_mib": trace.counter("movement.membus.bytes")
            / (1 << 20),
            "elapsed_ms": sim.now * 1e3}


def numa_scan_ms(home_socket: int) -> float:
    """Socket 0 scans 64 MiB homed on ``home_socket`` of a 2-socket box."""
    sim = Simulator()
    server = Server(sim, Trace(), "srv", sockets=2)
    sim.run_process(server.memory_read(64 << 20, socket=0,
                                       home_socket=home_socket))
    return sim.now * 1e3


def main() -> None:
    print(f"64 MiB scan from socket 0: local {numa_scan_ms(0):.2f} ms, "
          f"remote (NUMA) {numa_scan_ms(1):.2f} ms\n")
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
