"""Property-based engine equivalence: random queries, two engines.

Hypothesis generates random predicates, projections, aggregations and
placements; the Volcano engine and the data-flow engine must agree on
every one of them.  This is the repo's strongest end-to-end oracle.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AggSpec,
    DataflowEngine,
    Query,
    VolcanoEngine,
    cpu_only,
    pushdown,
)
from repro.flow import stages
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import Catalog, col, make_uniform_table

ROWS = 1200
DISTINCT = 40
CHUNK = 150

COLUMNS = ["k0", "k1", "k2"]


def fresh_env():
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("t", make_uniform_table(ROWS, columns=3,
                                             distinct=DISTINCT,
                                             chunk_rows=CHUNK))
    return fabric, catalog


# Strategy: a random predicate over the integer columns.
comparisons = st.sampled_from(["<", "<=", ">", ">=", "==", "!="])
column_names = st.sampled_from(COLUMNS)
values = st.integers(min_value=-5, max_value=DISTINCT + 5)


@st.composite
def predicates(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        name = draw(column_names)
        op = draw(comparisons)
        value = draw(values)
        c = col(name)
        return {"<": c < value, "<=": c <= value, ">": c > value,
                ">=": c >= value, "==": c == value,
                "!=": c != value}[op]
    left = draw(predicates(depth=depth - 1))
    right = draw(predicates(depth=depth - 1))
    return (left & right) if draw(st.booleans()) else (left | right)


@st.composite
def query_plans(draw):
    query = Query.scan("t")
    if draw(st.booleans()):
        query = query.filter(draw(predicates()))
    shape = draw(st.sampled_from(["plain", "project", "aggregate",
                                  "count", "sort_limit"]))
    if shape == "project":
        keep = draw(st.lists(column_names, min_size=1, max_size=3,
                             unique=True))
        query = query.project(keep)
    elif shape == "aggregate":
        group = draw(column_names)
        agg_col = draw(column_names)
        op = draw(st.sampled_from(["sum", "count", "min", "max",
                                   "avg"]))
        spec = (AggSpec("count", alias="n") if op == "count"
                else AggSpec(op, agg_col, "agg"))
        query = query.aggregate([group], [spec])
    elif shape == "count":
        query = query.count()
    elif shape == "sort_limit":
        keys = draw(st.lists(column_names, min_size=1, max_size=2,
                             unique=True))
        query = query.sort(keys).limit(draw(
            st.integers(min_value=0, max_value=ROWS)))
    return query


@given(query=query_plans(), use_pushdown=st.booleans())
@settings(max_examples=25, deadline=None)
def test_random_queries_agree(query, use_pushdown):
    fabric_v, catalog_v = fresh_env()
    res_v = VolcanoEngine(fabric_v, catalog_v).execute(query)

    fabric_d, catalog_d = fresh_env()
    placement = (pushdown(query.plan, fabric_d) if use_pushdown
                 else cpu_only(query.plan, fabric_d))
    res_d = DataflowEngine(fabric_d, catalog_d).execute(
        query, placement=placement)

    rows_v = res_v.table.sorted_rows()
    rows_d = res_d.table.sorted_rows()
    assert len(rows_v) == len(rows_d)
    for a, b in zip(rows_v, rows_d):
        assert len(a) == len(b)
        for va, vb in zip(a, b):
            if isinstance(va, float):
                assert va == pytest.approx(vb, rel=1e-9, abs=1e-9) or \
                    (np.isnan(va) and np.isnan(vb))
            else:
                assert va == vb


@given(query=query_plans(), credits=st.integers(min_value=1, max_value=8),
       use_pushdown=st.booleans())
@settings(max_examples=15, deadline=None)
def test_inbox_never_holds_more_than_its_credits(query, credits,
                                                 use_pushdown):
    fabric, catalog = fresh_env()
    placement = (pushdown(query.plan, fabric) if use_pushdown
                 else cpu_only(query.plan, fabric))
    with mock.patch.object(stages, "CREDITS", credits):
        flow = DataflowEngine(fabric, catalog).compile(query,
                                                       placement).run()
    consumers = [s for s in flow.stages.values() if s.inputs]
    assert consumers
    for stage in consumers:
        # Every queued message holds one of its channel's credits, and
        # the one the stage just took holds another until it is acked.
        assert stage.inbox_peak < sum(ch.credits for ch in stage.inputs)


@given(query=query_plans())
@settings(max_examples=10, deadline=None)
def test_pushdown_never_moves_more_network_bytes(query):
    fabric_c, catalog_c = fresh_env()
    res_c = DataflowEngine(fabric_c, catalog_c).execute(
        query, placement=cpu_only(query.plan, fabric_c))

    fabric_p, catalog_p = fresh_env()
    res_p = DataflowEngine(fabric_p, catalog_p).execute(
        query, placement=pushdown(query.plan, fabric_p))

    assert res_p.bytes_on("network") <= res_c.bytes_on("network") + 1
