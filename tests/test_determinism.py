"""Determinism guarantees: repeat runs and the reference switches.

Properties the perf work must never erode:

* the stack is bit-deterministic — the same seeded scenario run twice
  produces identical checksums, simulated times, movement ledgers,
  and event rings;
* the kernel fires same-instant events in schedule order;
* the reference switches are exactly the ones documented.
"""

import re
from pathlib import Path

from repro import bench
from repro.engine import AggSpec, DataflowEngine, Query
from repro.hardware import build_fabric, dataflow_spec
from repro.obs import table_checksum
from repro.relational import Catalog, col, make_lineitem, make_orders
from repro.sim import Simulator

ROWS = 2000


def _catalog():
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(ROWS, orders=ROWS // 4,
                                               chunk_rows=500))
    catalog.register("orders", make_orders(ROWS // 4, chunk_rows=500))
    return catalog


def _query():
    return (Query.scan("lineitem")
            .filter(col("l_quantity") > 10)
            .join(Query.scan("orders").filter(col("o_priority") <= 2),
                  "l_orderkey", "o_orderkey")
            .aggregate(["o_priority"],
                       [AggSpec("sum", "l_extendedprice", "rev")]))


def _run_once() -> dict:
    """One full data-flow run, captured down to the event ring."""
    fabric = build_fabric(dataflow_spec())
    result = DataflowEngine(fabric, _catalog()).execute(_query())
    return {
        "checksum": table_checksum(result.table),
        "sim_time_s": result.elapsed,
        "ledger": fabric.trace.movement_ledger(),
        "ring": [event.to_dict() for event in fabric.trace.events],
    }


def test_repeat_runs_are_bit_identical():
    first, second = _run_once(), _run_once()
    assert first["checksum"] == second["checksum"]
    assert first["sim_time_s"] == second["sim_time_s"]
    assert first["ledger"] == second["ledger"]
    assert first["ring"] == second["ring"]


def test_smoke_records_are_bit_identical():
    """Harness-level repeat: the whole record matches."""
    first = bench.run_suite("smoke", ["scheduler_mix"], rows=ROWS)
    assert first == bench.run_suite("smoke", ["scheduler_mix"],
                                    rows=ROWS)


def test_kernel_orders_same_instant_events_by_schedule_order():
    """Interleaved zero-delay and due-now heap events keep seq order."""
    sim = Simulator()
    order = []

    def waiter(tag, evt):
        value = yield evt
        order.append((tag, sim.now, value))

    def driver():
        # A timeout due at t=1 and a succeed() issued at t=1 race at
        # the same instant; sequence order wins.
        t = sim.timeout(1.0)
        e = sim.event()
        sim.process(waiter("a", t))
        sim.process(waiter("b", e))
        yield sim.timeout(1.0)
        e.succeed("e")
        yield sim.timeout(0.0)

    sim.run_process(driver())
    assert order == [("a", 1.0, None), ("b", 1.0, "e")]


#: Every environment name the package reads.
ENV_SWITCHES = {"REPRO_SLOW_FLOW"}


def test_env_switch_inventory():
    """One reference switch (the flow fast path's), nothing else."""
    src = Path(__file__).resolve().parent.parent / "src"
    names = {name for path in src.rglob("*.py")
             for name in re.findall(r"REPRO_[A-Z_]+", path.read_text())}
    assert names == ENV_SWITCHES
