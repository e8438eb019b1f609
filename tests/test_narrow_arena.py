"""Narrow arena storage: each column in its narrowest type, each read in
its field's.

An INT64 arena column is stored as the narrowest of int8 / int16 /
int32 / int64 that holds its [min, max]; dictionary codes as the
narrowest signed type that indexes their pool.  Every read widens
back, so no operator, expression or checksum sees the physical width,
and neither an arena nor a catalog window keeps what a read decoded.
These tests pin the width decisions at each type's edges (hypothesis
against an independent ``np.iinfo`` oracle), the dtype of every read
path, and the footprint that motivates the layout.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AggSpec, DataflowEngine, Query, VolcanoEngine
from repro.engine.operators import HashJoinBuild, HashJoinProbe, JoinState
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import (Catalog, DataType, Encoded, Field, Schema,
                              Table, col, make_lineitem, make_orders,
                              make_uniform_table)
from repro.relational.arena import Arena, _adopt, _encode
from repro.relational.table import _ArenaColumns

ENGINES = {"volcano": VolcanoEngine, "dataflow": DataflowEngine}
INTS = (np.int8, np.int16, np.int32, np.int64)
INT = Schema([Field("x", DataType.INT64)])


def _oracle(values) -> np.dtype:
    """The narrowest signed type holding ``values``, from ``np.iinfo``."""
    lo, hi = (min(values), max(values)) if len(values) else (0, 0)
    return next(np.dtype(t) for t in INTS
                if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)


def _int_table(values, chunk_rows=65536) -> Table:
    return Table.from_arrays(INT, {"x": np.array(values, dtype=np.int64)},
                             chunk_rows=chunk_rows)


# ---------------------------------------------------------------------------
# Integer width at each type's edges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("values,dtype", [
    ([], np.int8), ([0], np.int8), ([-128, 127], np.int8),
    ([-129], np.int16), ([128], np.int16), ([-32768, 32767], np.int16),
    ([-32769], np.int32), ([32768], np.int32),
    ([-2**31, 2**31 - 1], np.int32), ([-2**31 - 1], np.int64),
    ([2**31], np.int64), ([-2**63, 2**63 - 1], np.int64),
    ([-50, -1], np.int8), ([-40_000, -30_000], np.int32),
])
def test_integer_columns_take_the_narrowest_type(values, dtype):
    table = _int_table(values)
    assert table._arena.columns["x"].buffer.dtype == dtype
    column = table.column("x")
    assert column.dtype == np.int64 and column.tolist() == values


_EDGES = [bound + step for t in INTS
          for bound in (int(np.iinfo(t).min), int(np.iinfo(t).max))
          for step in (-1, 0, 1) if -2**63 <= bound + step < 2**63]
_VALUES = st.one_of(st.sampled_from(_EDGES), st.integers(-2**63, 2**63 - 1),
                    st.integers(-300, 300))


@given(values=st.lists(_VALUES, max_size=24),
       chunk_rows=st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_narrow_storage_round_trips_every_int64(values, chunk_rows):
    table = _int_table(values, chunk_rows)
    assert table._arena.columns["x"].buffer.dtype == _oracle(values)
    assert table.column("x").tolist() == values
    read = [chunk.column("x") for chunk in table.chunks]
    assert all(column.dtype == np.int64 for column in read)
    assert np.concatenate(read).tolist() == values


# ---------------------------------------------------------------------------
# Dictionary codes: the width follows the pool, both input forms agree
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("entries,dtype", [
    (1, np.int8), (128, np.int8), (129, np.int16),
    (32768, np.int16), (32769, np.int32)])
def test_code_width_switches_with_the_pool_size(entries, dtype):
    field = Field("s", DataType.STRING, 6)
    pool = np.array([f"v{i:05d}" for i in range(entries)], dtype="<U6")
    codes = np.arange(2 * entries) % entries          # dictionary pays
    encoded = _encode(pool[codes])
    adopted = _adopt(Encoded(codes, pool).checked(field))
    for column in (encoded, adopted):
        assert column.is_dict and column.codes.dtype == dtype
        assert np.array_equal(column.decode(0, len(codes)), pool[codes])


def test_narrow_inputs_are_taken_as_given():
    codes = np.array([2, 0, 2], dtype=np.int8)
    checked = Encoded(codes, ["c", "a", "b"]).checked(
        Field("s", DataType.STRING, 1))
    assert checked.codes is codes
    values = np.array([-3, 100], dtype=np.int8)
    table = Table.from_arrays(INT, {"x": values})
    assert table._arena.columns["x"].buffer is values
    assert table.column("x").dtype == np.int64


# ---------------------------------------------------------------------------
# No narrow array reaches an operator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_arithmetic_over_a_narrow_column_does_not_wrap(engine):
    table = _int_table([0, 127, 5], chunk_rows=2)
    assert table._arena.columns["x"].buffer.dtype == np.int8
    catalog = Catalog()
    catalog.register("t", table)
    query = (Query.scan("t").with_column("y", col("x") + 1)
             .filter(col("x") + 1 > 127))
    result = ENGINES[engine](build_fabric(dataflow_spec()),
                             catalog).execute(query)
    assert result.table.sorted_rows() == [(127, 128)]


def test_every_read_path_returns_the_field_dtype():
    schema = Schema([Field("k", DataType.INT64), Field("v", DataType.FLOAT64),
                     Field("s", DataType.STRING, 3)])
    rows = 40
    table = Table.from_arrays(schema, {
        "k": np.arange(rows) % 9 - 4, "v": np.linspace(0, 1, rows),
        "s": Encoded(np.arange(rows) % 3, ["ab", "c", "de"])},
        chunk_rows=16)
    assert table._arena.columns["k"].buffer.dtype == np.int8
    assert table._arena.columns["s"].codes.dtype == np.int8
    want = {f.name: f.numpy_dtype for f in schema.fields}
    window = table.chunks[1]
    reads = {
        "Table.column": {n: table.column(n) for n in want},
        "Arena.column_slice": {n: table._arena.column_slice(n, 3, 20)
                               for n in want},
        "window": dict(window.columns),
        "combined": dict(table.combined().columns),
        "filter view": dict(window.filter(
            window.column("k") > 0).columns),
        "take view": dict(window.take(np.array([5, 0, 5])).columns),
        "slice": dict(window.slice(2, 9).columns),
    }
    state = JoinState()
    build = HashJoinBuild("k", state)
    for chunk in table.chunks:
        build.process(chunk)
    build.finish()
    joined = Schema(schema.fields + [Field("r_v", DataType.FLOAT64),
                                     Field("r_s", DataType.STRING, 3)])
    probe = HashJoinProbe("k", state, joined,
                          {"k": "r_k", "v": "r_v", "s": "r_s"})
    [emit] = probe.process(window)
    reads["join output"] = dict(emit.chunk.columns)
    want.update(r_v=want["v"], r_s=want["s"])
    for path, columns in reads.items():
        for name, column in columns.items():
            assert column.dtype == want[name], (path, name)


# ---------------------------------------------------------------------------
# Footprint, and nothing decoded is kept
# ---------------------------------------------------------------------------

def test_the_three_table_arena_takes_at_most_seven_megabytes():
    """18.54 MiB with 8-byte integers and 4-byte codes; 8.00 narrow;
    6.67 with ``l_discount`` stored as int8 codes at scale 100."""
    tables = (make_lineitem(200_000), make_orders(50_000),
              make_uniform_table(200_000, columns=3, distinct=50))
    stored = sum(part.nbytes for table in tables
                 for column in table._arena.columns.values()
                 for part in (column.buffer, column.codes, column.pool)
                 if part is not None)
    assert stored <= 7 * 2**20, stored / 2**20


QUERIES = {
    "join": (Query.scan("lineitem")
             .filter(col("l_shipdate").between(8500, 8800))
             .join(Query.scan("orders").filter(col("o_priority") <= 2),
                   "l_orderkey", "o_orderkey")
             .aggregate(["o_priority"], [AggSpec("sum", "l_quantity", "q")]),
             2),
    "pushdown": (Query.scan("lineitem").filter(col("l_quantity") > 45)
                 .project(["l_orderkey", "l_returnflag"]), 636),
}


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_no_window_or_arena_keeps_a_decoded_column(engine, query):
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(6000, orders=1500,
                                               chunk_rows=1000))
    catalog.register("orders", make_orders(1500, chunk_rows=1000))
    query, rows = QUERIES[query]
    arenas = [catalog.table(name)._arena for name in catalog.names]
    assert set(Arena.__slots__) == {"schema", "num_rows", "columns"}
    # Reference counting alone must free every window a scan made: a
    # window pinned by a cycle would keep its decodes until a full
    # collection, which is when the footprint peaks.
    gc.collect()
    gc.disable()
    try:
        result = ENGINES[engine](build_fabric(dataflow_spec()),
                                 catalog).execute(query)
        windows = [ref for arena in arenas
                   for ref in gc.get_referrers(arena)
                   if type(ref) is _ArenaColumns]
    finally:
        gc.enable()
    assert result.rows == rows
    assert [w._cache for w in windows if w._cache] == []
    for name in catalog.names:
        assert all(not chunk.columns._cache
                   for chunk in catalog.table(name).chunks)
