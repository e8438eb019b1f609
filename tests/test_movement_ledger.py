"""The movement ledger: exact bytes × link × operator attribution.

The ledger is the paper's §3.3 cost metric made queryable: for the
same SQL query, the data-flow engine's pushed-down filter must show
up as strictly fewer bytes crossing the CPU-side links than the
Volcano plan, which drags whole chunks up to the host before
filtering.
"""

import pytest

from repro.engine import DataflowEngine, VolcanoEngine
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import Catalog, make_lineitem
from repro.relational.sql import parse_sql
from repro.sim import Trace

ROWS = 8000
SQL = ("SELECT l_orderkey, l_extendedprice FROM lineitem "
       "WHERE l_quantity > 45")


def run_engine(engine_cls):
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(ROWS, chunk_rows=1000))
    result = engine_cls(fabric, catalog).execute(parse_sql(SQL))
    return result, fabric.trace


def ledger_bytes(trace, link):
    return sum(row["bytes"] for row in trace.movement_ledger()
               if row["link"] == link)


def ledger_link_totals(trace):
    totals = {}
    for row in trace.movement_ledger():
        totals[row["link"]] = totals.get(row["link"], 0.0) + row["bytes"]
    return totals


def test_record_movement_accumulates_cells():
    trace = Trace()
    trace.record_movement("net0", "g.scan", "a->b", 100.0)
    trace.record_movement("net0", "g.scan", "a->b", 50.0)
    trace.record_movement("net0", "g.filter", "a->b", 25.0)
    rows = trace.movement_ledger()
    assert rows == [
        {"link": "net0", "actor": "g.filter", "direction": "a->b",
         "bytes": 25.0, "chunks": 1.0},
        {"link": "net0", "actor": "g.scan", "direction": "a->b",
         "bytes": 150.0, "chunks": 2.0},
    ]
    assert ledger_link_totals(trace) == {"net0": 175.0}


def test_dataflow_ledger_moves_fewer_cpu_side_bytes():
    """Same SQL on both engines: pushdown shrinks host-bound traffic."""
    res_v, trace_v = run_engine(VolcanoEngine)
    res_d, trace_d = run_engine(DataflowEngine)
    assert res_v.table.sorted_rows() == res_d.table.sorted_rows()

    # The membus is the CPU-side link: everything the host touches
    # crosses it.  The ledgers must both attribute traffic to it...
    volcano_bytes = ledger_bytes(trace_v, "compute0.membus")
    dataflow_bytes = ledger_bytes(trace_d, "compute0.membus")
    assert volcano_bytes > 0
    assert dataflow_bytes > 0
    # ...and the pushed-down plan moves strictly fewer bytes there.
    assert dataflow_bytes < volcano_bytes

    # Attribution names real operators, not a catch-all.
    actors = {row["actor"] for row in trace_d.movement_ledger()}
    assert any("filter" in actor for actor in actors)


@pytest.mark.parametrize("engine_cls", [VolcanoEngine, DataflowEngine])
def test_ledger_reconciles_with_link_report(engine_cls):
    """Per-link ledger byte totals equal the link.* byte counters."""
    _result, trace = run_engine(engine_cls)
    totals = ledger_link_totals(trace)
    report = trace.link_report()
    assert totals, "ledger is empty"
    for link, nbytes in totals.items():
        assert nbytes == pytest.approx(report[link]["bytes"]), link
    # Every link that carried bytes is in the ledger too.
    for link, entry in report.items():
        if entry["bytes"] > 0:
            assert link in totals, link
