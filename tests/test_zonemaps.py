"""Tests for zone maps and zone-map-pruned scans (§2.1)."""

import numpy as np
import pytest

from repro.engine import DataflowEngine, Query, VolcanoEngine
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import (
    Catalog,
    Chunk,
    DataType,
    Schema,
    Table,
    col,
    lit,
)
from repro.relational.zonemaps import ZoneMap, may_match, prunable_chunks


def clustered_table(n=1000, chunk_rows=100):
    """Values sorted on k0 -> zone maps prune well."""
    schema = Schema.of(("k0", DataType.INT64), ("k1", DataType.INT64))
    k0 = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(1)
    k1 = rng.integers(0, 100, size=n)
    return Table.from_arrays(schema, {"k0": k0, "k1": k1},
                             chunk_rows=chunk_rows)


def shuffled_table(n=1000, chunk_rows=100):
    schema = Schema.of(("k0", DataType.INT64), ("k1", DataType.INT64))
    rng = np.random.default_rng(2)
    k0 = rng.permutation(n).astype(np.int64)
    k1 = rng.integers(0, 100, size=n)
    return Table.from_arrays(schema, {"k0": k0, "k1": k1},
                             chunk_rows=chunk_rows)


# ---------------------------------------------------------------------------
# ZoneMap construction and may_match
# ---------------------------------------------------------------------------

def test_zonemap_bounds_exact():
    table = clustered_table()
    zonemap = ZoneMap.build(table)
    assert len(zonemap) == 10
    assert zonemap.bounds(0, "k0") == (0.0, 99.0)
    assert zonemap.bounds(9, "k0") == (900.0, 999.0)


def test_zonemap_ignores_string_columns():
    schema = Schema.of(("s", DataType.STRING, 8))
    table = Table(schema, [Chunk(schema, {"s": np.array(["a", "b"])})])
    zonemap = ZoneMap.build(table)
    assert zonemap.bounds(0, "s") is None


def test_may_match_comparisons():
    zone = {"x": (10.0, 20.0)}
    assert may_match(zone, col("x") == 15)
    assert not may_match(zone, col("x") == 5)
    assert may_match(zone, col("x") < 11)
    assert not may_match(zone, col("x") < 10)
    assert may_match(zone, col("x") <= 10)
    assert may_match(zone, col("x") > 19)
    assert not may_match(zone, col("x") > 20)
    assert may_match(zone, col("x") >= 20)


def test_may_match_not_equal_single_value_zone():
    assert not may_match({"x": (7.0, 7.0)}, col("x") != 7)
    assert may_match({"x": (7.0, 8.0)}, col("x") != 7)


def test_may_match_between_and_isin():
    zone = {"x": (10.0, 20.0)}
    assert may_match(zone, col("x").between(15, 30))
    assert not may_match(zone, col("x").between(21, 30))
    assert may_match(zone, col("x").isin([1, 15]))
    assert not may_match(zone, col("x").isin([1, 2, 30]))


def test_may_match_boolean_combinators():
    zone = {"x": (10.0, 20.0), "y": (0.0, 5.0)}
    assert not may_match(zone, (col("x") > 5) & (col("y") > 10))
    assert may_match(zone, (col("x") > 50) | (col("y") < 3))
    assert not may_match(zone, (col("x") > 50) | (col("y") > 50))
    # Negation and unknown constructs stay conservative.
    assert may_match(zone, ~(col("x") > 5))


def test_may_match_unknown_column_conservative():
    assert may_match({}, col("unknown") > 100)
    assert may_match({"x": (0.0, 1.0)}, col("x") > lit(0))


def test_prunable_chunks_clustered_vs_shuffled():
    predicate = col("k0") < 100
    clustered = prunable_chunks(ZoneMap.build(clustered_table()),
                                predicate)
    shuffled = prunable_chunks(ZoneMap.build(shuffled_table()),
                               predicate)
    assert len(clustered) == 9     # all but the first chunk
    assert len(shuffled) == 0      # every chunk spans the domain


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------

def env(table):
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("t", table)
    return fabric, catalog


QUERY = Query.scan("t").filter(col("k0") < 100).project(["k1"])


@pytest.mark.parametrize("engine_cls", [VolcanoEngine, DataflowEngine])
def test_pruned_scan_same_answer(engine_cls):
    table = clustered_table()
    fabric1, catalog1 = env(table)
    plain = engine_cls(fabric1, catalog1).execute(QUERY)
    fabric2, catalog2 = env(table)
    pruned = engine_cls(fabric2, catalog2,
                        use_zonemaps=True).execute(QUERY)
    assert plain.table.sorted_rows() == pruned.table.sorted_rows()
    assert fabric2.trace.counter("zonemap.pruned_chunks") == 9
    assert fabric1.trace.counter("zonemap.pruned_chunks") == 0


@pytest.mark.parametrize("engine_cls", [VolcanoEngine, DataflowEngine])
def test_pruning_reduces_storage_reads(engine_cls):
    table = clustered_table()
    fabric1, catalog1 = env(table)
    engine_cls(fabric1, catalog1).execute(QUERY)
    fabric2, catalog2 = env(table)
    engine_cls(fabric2, catalog2, use_zonemaps=True).execute(QUERY)
    assert fabric2.trace.counter("movement.storage.bytes") < \
        0.2 * fabric1.trace.counter("movement.storage.bytes")


def test_pruning_useless_on_shuffled_data():
    table = shuffled_table()
    fabric, catalog = env(table)
    result = DataflowEngine(fabric, catalog,
                            use_zonemaps=True).execute(QUERY)
    assert fabric.trace.counter("zonemap.pruned_chunks") == 0
    assert result.rows == 100


def test_all_chunks_pruned_yields_empty_result():
    table = clustered_table()
    fabric, catalog = env(table)
    query = Query.scan("t").filter(col("k0") > 10_000)
    result = DataflowEngine(fabric, catalog,
                            use_zonemaps=True).execute(query)
    assert result.rows == 0
    assert fabric.trace.counter("zonemap.pruned_chunks") == 10
    assert fabric.trace.counter("movement.storage.bytes") == 0


# ---------------------------------------------------------------------------
# Soundness: zone maps on answer what zone maps off answer
# ---------------------------------------------------------------------------

SOUNDNESS = {
    # min() of a zone holding a NaN is NaN, and every comparison with
    # NaN refuted the chunk: that zone must record no bounds.
    "nan in a float zone": (
        [0, 1, 2, 3], [np.nan, 5.0, 0.0, 0.0], col("v") > 1.0),
    # A float bound rounds 2**53 + 1 to 2**53, and the exact int /
    # float comparison refuted the chunk: integer bounds stay ints.
    "int64 past 2**53": (
        [2**53 + 1, 0, 7, 8], [0.0, 1.0, 2.0, 3.0], col("k") == 2**53 + 1),
}


@pytest.mark.parametrize("engine_cls", [VolcanoEngine, DataflowEngine])
@pytest.mark.parametrize("case", sorted(SOUNDNESS))
def test_zone_maps_never_drop_a_matching_row(case, engine_cls):
    k, v, predicate = SOUNDNESS[case]
    schema = Schema.of(("k", DataType.INT64), ("v", DataType.FLOAT64))
    table = Table.from_arrays(schema, {"k": np.array(k, dtype=np.int64),
                                       "v": np.array(v)}, chunk_rows=2)
    query = Query.scan("t").filter(predicate)
    answers = []
    for zonemaps in (False, True):
        fabric, catalog = env(table)
        answers.append(engine_cls(fabric, catalog, use_zonemaps=zonemaps)
                       .execute(query).table.sorted_rows())
    assert len(answers[0]) == 1
    assert answers[1] == answers[0]


def test_zone_bounds_are_exact_python_ints_off_the_stored_buffer():
    schema = Schema.of(("k", DataType.INT64), ("v", DataType.FLOAT64))
    table = Table.from_arrays(schema, {
        "k": np.array([2**53 + 1, -3, 7, 8], dtype=np.int64),
        "v": np.array([np.nan, 1.0, 0.5, 2.5])}, chunk_rows=2)
    zonemap = ZoneMap.build(table)
    assert zonemap.bounds(0, "k") == (-3, 2**53 + 1)
    assert all(type(b) is int for b in zonemap.bounds(0, "k"))
    assert zonemap.bounds(0, "v") is None          # the zone holds a NaN
    assert zonemap.bounds(1, "v") == (0.5, 2.5)
    # 7..8 is stored as int8; the bounds are the values, not the type.
    assert table._arena.columns["k"].buffer.dtype == np.int64
    narrow = Table.from_arrays(schema, {
        "k": np.array([7, 8], dtype=np.int64), "v": np.zeros(2)})
    assert narrow._arena.columns["k"].buffer.dtype == np.int8
    assert ZoneMap.build(narrow).bounds(0, "k") == (7, 8)
