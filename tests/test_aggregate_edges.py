"""Edge cases in aggregation semantics across both engines."""


import math

import numpy as np
import pytest

from repro.engine import AggSpec, DataflowEngine, Query, VolcanoEngine
from repro.engine.logical import Aggregate
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import (
    Catalog,
    DataType,
    Field,
    Schema,
    Table,
    col,
)


def env_with(values: dict):
    schema = Schema([Field(n, DataType.INT64) for n in values])
    table = Table.from_arrays(
        schema, {n: np.asarray(v, dtype=np.int64)
                 for n, v in values.items()}, chunk_rows=3)
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("t", table)
    return fabric, catalog


def run_both(fabric_catalog_factory, query):
    fabric, catalog = fabric_catalog_factory()
    res_v = VolcanoEngine(fabric, catalog).execute(query)
    fabric2, catalog2 = fabric_catalog_factory()
    res_d = DataflowEngine(fabric2, catalog2).execute(query)
    assert res_v.table.sorted_rows() == res_d.table.sorted_rows()
    return res_v


def test_count_star_empty_table():
    factory = lambda: env_with({"x": []})
    result = run_both(factory, Query.scan("t").count())
    assert result.table.column("count").tolist() == [0]


@pytest.mark.parametrize("engine_cls", [VolcanoEngine, DataflowEngine])
def test_scalar_aggregates_over_no_rows(engine_cls):
    # MIN, MAX and AVG of nothing have no value (NaN); SUM is 0 and
    # COUNT 0.
    fabric, catalog = env_with({"v": [1, 2, 3, 4]})
    query = Query.scan("t").filter(col("v") > 100).aggregate([], [
        AggSpec("min", "v", "lo"), AggSpec("max", "v", "hi"),
        AggSpec("avg", "v", "m"), AggSpec("sum", "v", "s"),
        AggSpec("count", "v", "n")])
    [(lo, hi, mean, total, count)] = engine_cls(
        fabric, catalog).execute(query).table.sorted_rows()
    assert math.isnan(lo) and math.isnan(hi) and math.isnan(mean)
    assert (total, count) == (0.0, 0)


def test_grouped_aggregate_empty_table():
    factory = lambda: env_with({"g": [], "v": []})
    result = run_both(
        factory,
        Query.scan("t").aggregate(["g"], [AggSpec("sum", "v", "s")]))
    assert result.rows == 0


def test_avg_with_single_row_groups():
    factory = lambda: env_with({"g": [1, 2, 3], "v": [10, 20, 30]})
    result = run_both(
        factory,
        Query.scan("t").aggregate(["g"], [AggSpec("avg", "v", "m")]))
    got = dict(zip(result.table.column("g").tolist(),
                   result.table.column("m").tolist()))
    assert got == {1: 10.0, 2: 20.0, 3: 30.0}


def test_negative_values_min_max_sum():
    factory = lambda: env_with({"g": [0, 0, 0], "v": [-5, -10, 3]})
    query = Query.scan("t").aggregate(
        ["g"], [AggSpec("min", "v", "lo"), AggSpec("max", "v", "hi"),
                AggSpec("sum", "v", "s")])
    result = run_both(factory, query)
    row = result.table.sorted_rows()[0]
    assert row == (0, -10.0, 3.0, -12.0)


def test_multiple_counts_and_shared_columns():
    factory = lambda: env_with({"g": [1, 1, 2], "v": [5, 6, 7]})
    query = Query.scan("t").aggregate(
        ["g"], [AggSpec("count", alias="n"),
                AggSpec("sum", "v", "s"),
                AggSpec("avg", "v", "m")])
    result = run_both(factory, query)
    rows = {r[0]: r[1:] for r in result.table.sorted_rows()}
    assert rows[1] == (2, 11.0, 5.5)
    assert rows[2] == (1, 7.0, 7.0)


def test_group_by_two_columns():
    factory = lambda: env_with(
        {"a": [1, 1, 2, 2, 1], "b": [0, 0, 0, 1, 1],
         "v": [1, 2, 3, 4, 5]})
    query = Query.scan("t").aggregate(
        ["a", "b"], [AggSpec("sum", "v", "s")])
    result = run_both(factory, query)
    got = {(r[0], r[1]): r[2] for r in result.table.sorted_rows()}
    assert got == {(1, 0): 3.0, (1, 1): 5.0, (2, 0): 3.0, (2, 1): 4.0}


def test_aggregate_above_join_estimates_and_runs():
    """An aggregate whose child is a join (no base-table stats path)."""
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    schema = Schema.of(("k", DataType.INT64), ("v", DataType.INT64))
    catalog.register("a", Table.from_arrays(
        schema, {"k": np.arange(20), "v": np.arange(20)},
        chunk_rows=5))
    catalog.register("b", Table.from_arrays(
        schema, {"k": np.arange(0, 20, 2), "v": np.arange(10)},
        chunk_rows=5))
    query = (Query.scan("a").join(Query.scan("b"), "k", "k")
             .aggregate([], [AggSpec("count", alias="n")]))
    agg: Aggregate = query.plan
    # Cardinality estimation must not crash on a join child.
    assert agg.estimate_rows(catalog) >= 1.0
    res = DataflowEngine(fabric, catalog).execute(query)
    assert res.table.column("n").tolist() == [10]


def test_filter_selectivity_above_join_defaults():
    """Filter above a join: column stats unavailable -> defaults."""
    from repro.engine.logical import Filter
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    schema = Schema.of(("k", DataType.INT64), ("v", DataType.INT64))
    catalog.register("a", Table.from_arrays(
        schema, {"k": np.arange(10), "v": np.arange(10)},
        chunk_rows=5))
    query = (Query.scan("a").join(Query.scan("a"), "k", "k")
             .filter(col("v") > 5))
    filter_node: Filter = query.plan
    sel = filter_node.selectivity(catalog)
    assert 0.0 < sel <= 1.0
