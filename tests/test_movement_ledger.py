"""The movement ledger: exact bytes × link × operator attribution.

The ledger is the paper's §3.3 cost metric made queryable: for the
same SQL query, the data-flow engine's pushed-down filter must show
up as strictly fewer bytes crossing the CPU-side links than the
Volcano plan, which drags whole chunks up to the host before
filtering.
"""

from collections import Counter

import pytest

from repro.engine import DataflowEngine, VolcanoEngine
from repro.flow.credits import CreditChannel
from repro.hardware import Link, build_fabric, dataflow_spec
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
    assert trace.link_report() == {"net0": {"bytes": 175.0, "chunks": 3.0}}


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
def test_ledger_reconciles_with_link_report(engine_cls, monkeypatch):
    """``link_report`` (the ledger summed per link) equals what was
    handed to each link: every ``Link.transfer`` and, per hop of its
    route, every message a channel sent (end-of-stream included)."""
    sent, hops = Counter(), Counter()
    transfer, send = Link.transfer, CreditChannel.send

    def counted_transfer(link, nbytes, *args, **kwargs):
        sent[link.name] += nbytes
        hops[link.name] += 1
        return transfer(link, nbytes, *args, **kwargs)

    def counted_send(channel, payload, nbytes):
        for link in channel.links:
            sent[link.name] += nbytes
            hops[link.name] += 1
        return send(channel, payload, nbytes)

    monkeypatch.setattr(Link, "transfer", counted_transfer)
    monkeypatch.setattr(CreditChannel, "send", counted_send)
    _result, trace = run_engine(engine_cls)
    assert sent, "nothing moved"
    assert trace.link_report() == {
        link: {"bytes": sent[link], "chunks": float(hops[link])}
        for link in sorted(sent)}
