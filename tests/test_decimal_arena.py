"""Scaled decimal columns: a float column that is ``k / 10**d`` stored as ``k``.

A FLOAT64 arena column whose every value is bit for bit ``k / 10.0**d``
(``d`` in 0..4) is stored as the integers ``k`` in the narrowest type
below int64 and decoded by one division.  These tests pin which
columns take the form (``l_discount`` does, the full-precision draws
do not), that every read returns float64 bit-identical to the input
(hypothesis, over the float edge cases), and that zone maps and
catalog statistics see values, not codes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DataflowEngine, Query, VolcanoEngine
from repro.engine.operators import HashJoinBuild, HashJoinProbe, JoinState
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import (Catalog, Chunk, DataType, Field, Schema, Table,
                              col, make_lineitem, make_orders,
                              make_sensor_readings)
from repro.relational.catalog import compute_stats
from repro.relational.zonemaps import ZoneMap, prunable_chunks

ENGINES = {"volcano": VolcanoEngine, "dataflow": DataflowEngine}
FLOAT = Schema([Field("v", DataType.FLOAT64)])
INTS = (np.int8, np.int16, np.int32)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _float_table(values, chunk_rows=65536) -> Table:
    return Table.from_arrays(FLOAT, {"v": np.array(values, dtype=np.float64)},
                             chunk_rows=chunk_rows)


# ---------------------------------------------------------------------------
# Which generated columns take the scaled form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows", [2000, 3000, 1_000_000])
def test_generated_discounts_are_int8_codes_at_scale_100(rows):
    lineitem = make_lineitem(rows)
    discount = lineitem._arena.columns["l_discount"]
    assert discount.buffer.dtype == np.int8 and discount.scale == 100.0
    assert discount.buffer.min() >= 0 and discount.buffer.max() <= 10
    price = lineitem._arena.columns["l_extendedprice"]
    assert price.scale is None and price.buffer.dtype == np.float64


def test_full_precision_floats_stay_float64():
    columns = (make_orders(3000)._arena.columns["o_totalprice"],
               make_sensor_readings(3000)._arena.columns["temperature"])
    for column in columns:
        assert column.scale is None and column.buffer.dtype == np.float64


def test_every_read_of_a_decimal_column_is_bit_identical():
    rng = np.random.default_rng(3)
    values = rng.integers(-500, 500, size=60) / 100.0
    schema = Schema([Field("k", DataType.INT64), Field("v", DataType.FLOAT64)])
    table = Table.from_arrays(schema, {"k": np.arange(60), "v": values},
                              chunk_rows=16)
    assert table._arena.columns["v"].scale == 100.0
    assert table._arena.columns["v"].buffer.dtype == np.int16
    window = table.chunks[1]
    expect = values[16:32]
    keep = window.column("k") % 3 > 0
    reads = {
        "Table.column": (table.column("v"), values),
        "combined": (table.combined().column("v"), values),
        "window": (window.column("v"), expect),
        "filter view": (window.filter(keep).column("v"), expect[keep]),
        "take view": (window.take(np.array([5, 0, 5])).column("v"),
                      expect[[5, 0, 5]]),
        "slice": (window.slice(2, 9).column("v"), expect[2:9]),
        "stored": (window.stored("v"), expect),
    }
    state = JoinState()
    build = HashJoinBuild("k", state)
    for chunk in table.chunks:
        build.process(chunk)
    build.finish()
    joined = Schema(schema.fields + [Field("r_v", DataType.FLOAT64)])
    probe = HashJoinProbe("k", state, joined, {"k": "r_k", "v": "r_v"})
    [emit] = probe.process(window)
    keys = emit.chunk.column("k")           # unique keys: row k is values[k]
    assert sorted(keys.tolist()) == list(range(16, 32))
    reads["join probe side"] = (emit.chunk.column("v"), values[keys])
    reads["join build side"] = (emit.chunk.column("r_v"), values[keys])
    for path, (read, want) in reads.items():
        assert read.dtype == np.float64, path
        assert _bits(read) == _bits(want), path


# ---------------------------------------------------------------------------
# Zone maps and statistics see values, never codes
# ---------------------------------------------------------------------------

def _clustered_lineitem(chunk_rows=200):
    """Lineitem sorted by discount, so zones are narrow and prune."""
    lineitem = make_lineitem(3000)
    order = np.argsort(lineitem.column("l_discount"), kind="stable")
    arrays = {f.name: lineitem.column(f.name)[order]
              for f in lineitem.schema.fields}
    arena = Table.from_arrays(lineitem.schema, arrays, chunk_rows=chunk_rows)
    dense = Table(lineitem.schema, [
        Chunk(lineitem.schema, {name: values[start:start + chunk_rows]
                                for name, values in arrays.items()})
        for start in range(0, 3000, chunk_rows)])
    return arena, dense


def test_zone_maps_and_stats_match_a_dense_table():
    arena, dense = _clustered_lineitem()
    assert arena._arena.columns["l_discount"].scale == 100.0
    assert dense._arena is None
    zones = ZoneMap.build(arena).zones
    assert zones == ZoneMap.build(dense).zones
    assert zones[0]["l_discount"] == (0.0, 0.01)    # not codes (0, 1)
    assert zones[-1]["l_discount"] == (0.09, 0.1)
    for name in ("l_discount", "l_extendedprice", "l_quantity"):
        got = compute_stats(arena).columns[name].as_dict()
        assert got == compute_stats(dense).columns[name].as_dict(), name
    assert compute_stats(arena).columns["l_discount"].as_dict() == {
        "min": 0.0, "max": 0.1, "distinct": 11}


def test_stored_decodes_a_scaled_column():
    arena, _ = _clustered_lineitem()
    for chunk in (arena.chunks[7], arena.combined()):
        stored = chunk.stored("l_discount")
        assert stored.dtype == np.float64
        assert _bits(stored) == _bits(chunk.column("l_discount"))


PREDICATES = {                  # the expression, and a numpy oracle
    "> 0.05": (col("l_discount") > 0.05, lambda d: d > 0.05),
    "== 0.07": (col("l_discount") == 0.07, lambda d: d == 0.07),
    "between(0.02, 0.04)": (col("l_discount").between(0.02, 0.04),
                            lambda d: (0.02 <= d) & (d <= 0.04)),
}


@pytest.mark.parametrize("predicate", sorted(PREDICATES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_discount_predicates_agree_with_zone_maps_on_and_off(engine,
                                                             predicate):
    table, _ = _clustered_lineitem()
    expr, oracle = PREDICATES[predicate]
    catalog = Catalog()
    catalog.register("lineitem", table)
    pruned = prunable_chunks(catalog.zonemap("lineitem"), expr)
    assert 0 < len(pruned) < len(table.chunks)
    query = (Query.scan("lineitem").filter(expr)
             .project(["l_orderkey", "l_discount"]))
    answers = [ENGINES[engine](build_fabric(dataflow_spec()), catalog,
                               use_zonemaps=zonemaps)
               .execute(query).table.sorted_rows()
               for zonemaps in (False, True)]
    assert answers[0] and answers[1] == answers[0]
    assert len(answers[0]) == int(oracle(table.column("l_discount")).sum())


# ---------------------------------------------------------------------------
# Properties: the round trip is exact, the form is chosen only when exact
# ---------------------------------------------------------------------------

_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
            0.1 + 0.2, 2.0**53, -2.0**53, 2.0**31, -2.0**31, 2.0**31 - 1,
            -2.0**31 - 1, 1.0, -1.0, 0.07, 1e308, -1e308]
_DECIMAL = st.builds(lambda k, d: k / 10.0**d,
                     st.one_of(st.integers(-2**31 - 2, 2**31 + 1),
                               st.integers(-300, 300)),
                     st.integers(0, 4))
_FLOATS = st.one_of(st.sampled_from(_SPECIAL), _DECIMAL,
                    st.floats(allow_nan=True, allow_infinity=True))


def _check_round_trip(values, chunk_rows):
    table = _float_table(values, chunk_rows)
    column = table._arena.columns["v"]
    reads = [table.column("v"),
             np.concatenate([c.column("v") for c in table.chunks])]
    for read in reads:
        assert read.dtype == np.float64 and _bits(read) == _bits(values)
    if column.scale is not None:            # exact, and narrower
        assert column.scale in [10.0**d for d in range(5)]
        assert column.buffer.dtype in INTS
        lo, hi = (int(column.buffer.min()), int(column.buffer.max()))
        assert column.buffer.dtype == next(
            np.dtype(t) for t in INTS
            if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)
        assert _bits(column.buffer / column.scale) == _bits(values)
    else:
        assert column.buffer.dtype == np.float64
    return column


@given(values=st.lists(_FLOATS, max_size=40),
       chunk_rows=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_any_float_column_round_trips_bit_for_bit(values, chunk_rows):
    _check_round_trip(values, chunk_rows)


# At most 32 rows: the sample is the whole column, so the ``d`` it picks
# is proven on every row.
@given(ks=st.lists(st.integers(-2**31, 2**31 - 1), min_size=1, max_size=32),
       d=st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_decimal_columns_take_the_scaled_form(ks, d):
    values = [k / 10.0**d for k in ks]
    column = _check_round_trip(values, 7)
    assert column.scale is not None and column.scale <= 10.0**d


@pytest.mark.parametrize("values,scale,dtype", [
    ([], None, np.float64),
    ([0.07], 100.0, np.int8),
    ([3.0, -7.0, 0.0], 1.0, np.int8),                  # integral: d = 0
    ([0.5, -12.25], 100.0, np.int16),
    ([-2.0**31, 2.0**31 - 1], 1.0, np.int32),          # codes reach ±2**31
    ([2.0**31], None, np.float64),
    ([-2.0**31 - 1], None, np.float64),
    ([-2.0**31 / 10], 10.0, np.int32),
    ([2.0**53], None, np.float64),
    ([-0.0], None, np.float64),
    ([1.0, -0.0], None, np.float64),
    ([np.nan], None, np.float64),
    ([0.5, np.nan], None, np.float64),
    ([np.inf, 1.0], None, np.float64),
    ([-np.inf], None, np.float64),
    ([5e-324], None, np.float64),
    ([0.1 + 0.2], None, np.float64),
    ([1e308, 0.5], None, np.float64),
    ([0.00001], None, np.float64),                     # d = 5 is not tried
    ([0.0001], 10_000.0, np.int8),
])
def test_decimal_form_at_the_edges(values, scale, dtype):
    column = _check_round_trip(values, 2)
    assert column.scale == scale and column.buffer.dtype == dtype


def test_a_failing_row_the_sample_skipped_keeps_float64():
    values = np.full(320, 0.5)
    values[1] = 0.123456                    # the sample strides past it
    assert (values[::10] == 0.5).all()      # 32 rows of 320: every 10th
    column = _check_round_trip(values, 64)
    assert column.scale is None
    fixed = values.copy()
    fixed[1] = 0.5
    assert _check_round_trip(fixed, 64).scale == 10.0
