"""Tests for the SQL front-end."""

import numpy as np
import pytest

from repro.engine import DataflowEngine, Query, VolcanoEngine
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import Catalog, col, make_lineitem, make_orders
from repro.relational.sql import SqlError, parse_sql


def make_env():
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(4000, orders=1000,
                                               chunk_rows=500))
    catalog.register("orders", make_orders(1000, chunk_rows=500))
    return fabric, catalog


def results_match(sql: str, query: Query):
    """The SQL text and the hand-built query produce identical rows."""
    fabric, catalog = make_env()
    res_sql = DataflowEngine(fabric, catalog).execute(parse_sql(sql))
    fabric2, catalog2 = make_env()
    res_builder = DataflowEngine(fabric2, catalog2).execute(query)
    assert res_sql.table.sorted_rows() == res_builder.table.sorted_rows()
    return res_sql


# ---------------------------------------------------------------------------
# Parsing to plans
# ---------------------------------------------------------------------------

def test_select_star():
    plan = parse_sql("SELECT * FROM lineitem").plan
    from repro.engine.logical import Scan
    assert isinstance(plan, Scan)
    assert plan.table == "lineitem"


def test_projection_and_filter():
    sql = ("SELECT l_orderkey, l_extendedprice FROM lineitem "
           "WHERE l_quantity > 45")
    query = (Query.scan("lineitem").filter(col("l_quantity") > 45)
             .project(["l_orderkey", "l_extendedprice"]))
    results_match(sql, query)


def test_compound_predicate_precedence():
    sql = ("SELECT l_orderkey FROM lineitem WHERE "
           "l_quantity > 45 OR l_quantity < 5 AND l_discount >= 0.05")
    query = (Query.scan("lineitem")
             .filter((col("l_quantity") > 45)
                     | ((col("l_quantity") < 5)
                        & (col("l_discount") >= 0.05)))
             .project(["l_orderkey"]))
    results_match(sql, query)


def test_parentheses_override_precedence():
    sql = ("SELECT l_orderkey FROM lineitem WHERE "
           "(l_quantity > 45 OR l_quantity < 5) AND l_discount >= 0.05")
    query = (Query.scan("lineitem")
             .filter(((col("l_quantity") > 45)
                      | (col("l_quantity") < 5))
                     & (col("l_discount") >= 0.05))
             .project(["l_orderkey"]))
    results_match(sql, query)


def test_between_like_in_not():
    sql = ("SELECT l_orderkey FROM lineitem WHERE "
           "l_shipdate BETWEEN 8500 AND 9000 "
           "AND l_comment LIKE '%express%' "
           "AND l_quantity IN (10, 20, 30) "
           "AND NOT l_discount > 0.08")
    query = (Query.scan("lineitem")
             .filter(col("l_shipdate").between(8500, 9000)
                     & col("l_comment").like("%express%")
                     & col("l_quantity").isin([10, 20, 30])
                     & ~(col("l_discount") > 0.08))
             .project(["l_orderkey"]))
    results_match(sql, query)


def test_group_by_with_aggregates():
    sql = ("SELECT l_returnflag, SUM(l_extendedprice) AS revenue, "
           "COUNT(*) AS n, AVG(l_discount) AS d "
           "FROM lineitem GROUP BY l_returnflag")
    from repro.engine import AggSpec
    query = Query.scan("lineitem").aggregate(
        ["l_returnflag"],
        [AggSpec("sum", "l_extendedprice", "revenue"),
         AggSpec("count", alias="n"),
         AggSpec("avg", "l_discount", "d")])
    result = results_match(sql, query)
    assert result.table.schema.names == ["l_returnflag", "revenue",
                                         "n", "d"]


def test_scalar_count():
    sql = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity > 25"
    result_fabric, catalog = make_env()
    res = VolcanoEngine(result_fabric, catalog).execute(parse_sql(sql))
    expected = (catalog.table("lineitem").column("l_quantity")
                > 25).sum()
    assert res.table.column("n").tolist() == [expected]


def test_join_on():
    sql = ("SELECT o_priority, SUM(l_extendedprice) AS rev "
           "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
           "WHERE l_quantity > 30 GROUP BY o_priority")
    from repro.engine import AggSpec
    query = (Query.scan("lineitem")
             .join(Query.scan("orders"), "l_orderkey", "o_orderkey")
             .filter(col("l_quantity") > 30)
             .aggregate(["o_priority"],
                        [AggSpec("sum", "l_extendedprice", "rev")]))
    results_match(sql, query)


def test_order_by_limit():
    sql = ("SELECT l_orderkey FROM lineitem WHERE l_quantity > 48 "
           "ORDER BY l_orderkey LIMIT 5")
    fabric, catalog = make_env()
    res = DataflowEngine(fabric, catalog).execute(parse_sql(sql))
    keys = res.table.column("l_orderkey").tolist()
    assert keys == sorted(keys)
    assert len(keys) == 5


def test_string_literal_equality():
    sql = "SELECT l_orderkey FROM lineitem WHERE l_returnflag = 'A'"
    fabric, catalog = make_env()
    res = DataflowEngine(fabric, catalog).execute(parse_sql(sql))
    flags = catalog.table("lineitem").column("l_returnflag")
    assert res.rows == int((flags == "A").sum())


def test_quoted_string_with_escape():
    query = parse_sql(
        "SELECT l_orderkey FROM lineitem WHERE l_comment LIKE '%o''b%'")
    pred = query.plan.children[0].predicate
    assert pred.pattern == "%o'b%"


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    "",
    "SELECT",
    "SELECT * FROM",
    "FROM lineitem",
    "SELECT * lineitem",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t WHERE a >",
    "SELECT a FROM t GROUP BY a",               # group-by w/o aggregate
    "SELECT a, SUM(b) AS s FROM t GROUP BY c",  # a not grouped
    "SELECT *, COUNT(*) AS n FROM t",
    "SELECT a FROM t LIMIT",
    "SELECT a FROM t extra garbage",
    "SELECT a AS b FROM t",                     # plain-column alias
    "SELECT a FROM t WHERE a LIKE 5",
    "SELECT a FROM t WHERE a ~ 5",
])
def test_parse_errors(bad):
    with pytest.raises(SqlError):
        parse_sql(bad)


def test_error_message_mentions_expectation():
    with pytest.raises(SqlError, match="FROM"):
        parse_sql("SELECT a b c")


# ---------------------------------------------------------------------------
# Computed SELECT expressions (Map)
# ---------------------------------------------------------------------------

def test_select_expression_with_alias():
    sql = ("SELECT l_orderkey, l_extendedprice * (1 - l_discount) "
           "AS net FROM lineitem WHERE l_quantity > 45")
    fabric, catalog = make_env()
    res = DataflowEngine(fabric, catalog).execute(parse_sql(sql))
    assert res.table.schema.names == ["l_orderkey", "net"]
    table = catalog.table("lineitem")
    mask = table.column("l_quantity") > 45
    expected = (table.column("l_extendedprice")
                * (1 - table.column("l_discount")))[mask]
    got = sorted(res.table.column("net").tolist())
    assert got == pytest.approx(sorted(expected.tolist()))


def test_select_expression_precedence():
    sql = "SELECT l_quantity + 2 * 3 AS v FROM lineitem LIMIT 4"
    fabric, catalog = make_env()
    res = VolcanoEngine(fabric, catalog).execute(parse_sql(sql))
    qty = catalog.table("lineitem").column("l_quantity")[:4]
    assert res.table.column("v").tolist() == \
        pytest.approx((qty + 6).tolist())


def test_select_expression_division_and_parens():
    sql = "SELECT (l_quantity + 10) / 2 AS v FROM lineitem LIMIT 3"
    fabric, catalog = make_env()
    res = VolcanoEngine(fabric, catalog).execute(parse_sql(sql))
    qty = catalog.table("lineitem").column("l_quantity")[:3]
    assert res.table.column("v").tolist() == \
        pytest.approx(((qty + 10) / 2).tolist())


def test_select_expression_requires_alias():
    with pytest.raises(SqlError, match="alias"):
        parse_sql("SELECT a * 2 FROM t")


def test_select_expression_cannot_mix_with_aggregates():
    with pytest.raises(SqlError, match="computed"):
        parse_sql("SELECT a * 2 AS x, SUM(b) AS s FROM t GROUP BY a")


@pytest.mark.parametrize("engine", [VolcanoEngine, DataflowEngine])
def test_aggregate_over_an_expression(engine):
    # Was "expected ), got '*'": the argument is now a hidden column of
    # one Map before the Aggregate, and only the aggregate is visible.
    sql = ("SELECT l_returnflag, SUM(l_quantity * l_extendedprice) AS r, "
           "MAX(l_extendedprice * (1 - l_discount)) AS m FROM lineitem "
           "WHERE l_quantity > 10 GROUP BY l_returnflag")
    fabric, catalog = make_env()
    res = engine(fabric, catalog).execute(parse_sql(sql))
    assert res.table.schema.names == ["l_returnflag", "r", "m"]
    table = catalog.table("lineitem")
    flag, qty = table.column("l_returnflag"), table.column("l_quantity")
    price = table.column("l_extendedprice")
    net = price * (1 - table.column("l_discount"))
    for row in res.table.sorted_rows():
        rows = (flag == row[0]) & (qty > 10)
        assert row[1] == pytest.approx(float(np.sum((qty * price)[rows])),
                                       rel=1e-12)
        assert row[2] == float(np.max(net[rows]))


def test_scalar_aggregate_over_an_expression():
    sql = "SELECT SUM(l_quantity * l_extendedprice) AS r FROM lineitem"
    fabric, catalog = make_env()
    res = DataflowEngine(fabric, catalog).execute(parse_sql(sql))
    table = catalog.table("lineitem")
    expected = np.sum(table.column("l_quantity")
                      * table.column("l_extendedprice"))
    assert res.table.schema.names == ["r"]
    assert res.table.column("r")[0] == pytest.approx(float(expected),
                                                     rel=1e-12)


def test_aggregate_over_an_expression_requires_alias():
    with pytest.raises(SqlError, match="alias"):
        parse_sql("SELECT SUM(a * b) FROM t")
