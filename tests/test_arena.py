"""Arena columnar store: encoding, views, and byte-count invariants.

The arena is a physical-layout change only; these tests pin the
contracts that keep it invisible to the simulation — logical nbytes
are always ``rows x schema.row_nbytes``, dictionary encoding
round-trips values exactly, chunk windows are made per read and keep
nothing the table outlives, and the sorted pool keeps code order
aligned with lexicographic order.
"""

import numpy as np
import pytest

from repro.relational import Catalog, Table
from repro.relational.arena import Arena, ArenaColumn, _encode
from repro.relational.datagen import make_lineitem
from repro.relational.schema import DataType, Field, Schema
from repro.relational.table import Chunk


def _schema():
    return Schema([
        Field("k", DataType.INT64),
        Field("v", DataType.FLOAT64),
        Field("tag", DataType.STRING, width=8),
    ])


def _table(rows=100):
    rng = np.random.default_rng(3)
    return Table.from_arrays(_schema(), {
        "k": np.arange(rows, dtype=np.int64),
        "v": rng.random(rows),
        "tag": np.array([f"t{i % 7}" for i in range(rows)], dtype="<U8"),
    }, chunk_rows=32)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def test_dict_encoding_round_trips_exactly():
    values = np.array(["b", "a", "c", "a", "b", "a"], dtype="<U4")
    column = _encode(values)
    assert column.is_dict
    assert np.array_equal(column.decode(0, 6), values)
    # Sorted pool: code order == lexicographic order.
    assert list(column.pool) == sorted(set(values.tolist()))
    # Three pool entries: one byte a code.
    assert column.codes.dtype == np.int8


def test_high_cardinality_strings_stay_plain():
    values = np.array([f"u{i}" for i in range(50)], dtype="<U8")
    column = _encode(values)
    assert not column.is_dict
    assert np.array_equal(column.decode(0, 50), values)


def test_numeric_columns_never_dict_encode():
    arena = Arena.build(_schema(), {
        "k": np.arange(10, dtype=np.int64),
        "v": np.zeros(10),
        "tag": np.array(["x"] * 10, dtype="<U8"),
    })
    assert not arena.columns["k"].is_dict
    assert not arena.columns["v"].is_dict
    assert arena.columns["tag"].is_dict


def test_arena_column_rejects_ambiguous_storage():
    with pytest.raises(ValueError):
        ArenaColumn()
    with pytest.raises(ValueError):
        ArenaColumn(buffer=np.zeros(3), codes=np.zeros(3, np.int32),
                    pool=np.array(["a"]))


# ---------------------------------------------------------------------------
# Zero-copy windows and slicing
# ---------------------------------------------------------------------------

def test_chunks_are_windows_not_copies():
    table = _table(100)
    arena = table._arena
    assert arena is not None
    chunk = table.chunks[1]
    # A column stored in its field type reads as a slice of the arena
    # buffer, not a copy; a narrowed one (k spans 0..99: int8) reads
    # as a widened copy of its window only.
    assert chunk.columns["v"].base is arena.columns["v"].buffer
    assert arena.columns["k"].buffer.dtype == np.int8
    values = chunk.columns["k"]
    assert values.dtype == np.int64 and values.base is None
    assert np.array_equal(values, np.arange(32, 64))
    # Each read of ``chunks`` makes its windows: the table holds none.
    assert table.chunks[1] is not chunk
    assert table.chunks[1].columns._cache == {}


def test_full_column_decodes_fresh_and_caches_nothing():
    table = _table(100)
    arena = table._arena
    first = arena.column_slice("tag", 0, 100)
    again = arena.column_slice("tag", 0, 100)
    assert again is not first and np.array_equal(again, first)
    assert np.array_equal(first, [f"t{i % 7}" for i in range(100)])
    assert not hasattr(arena, "_full_cache")


def test_chunk_slice_stays_arena_backed():
    table = _table(100)
    chunk = table.chunks[0].slice(4, 20)
    assert chunk.num_rows == 16
    assert chunk.dict_codes("tag") is not None
    assert np.array_equal(chunk.columns["k"], np.arange(4, 20))


def test_dict_codes_compose_through_filter_views():
    table = _table(100)
    chunk = table.chunks[0]
    mask = np.asarray(chunk.columns["k"] % 2 == 0)
    view = chunk.filter(mask)
    codes = view.dict_codes("tag")
    pool = view.dict_pool("tag")
    assert codes is not None
    assert np.array_equal(pool[codes], view.columns["tag"])


# ---------------------------------------------------------------------------
# Byte-count invariants (what the simulation charges)
# ---------------------------------------------------------------------------

def test_nbytes_is_logical_rows_times_row_nbytes():
    table = _table(100)
    schema = table.schema
    for chunk in table.chunks:
        assert chunk.nbytes == chunk.num_rows * schema.row_nbytes
    view = table.chunks[0].filter(
        np.asarray(table.chunks[0].columns["k"] < 10))
    assert view.nbytes == view.num_rows * schema.row_nbytes


def test_arena_and_dict_tables_checksum_identically():
    from repro.obs import table_checksum
    arena_table = make_lineitem(2000, chunk_rows=256)
    dense = Table(arena_table.schema)
    for chunk in arena_table.chunks:
        dense.append(Chunk(chunk.schema, dict(chunk.columns)))
    assert dense._arena is None
    assert table_checksum(dense) == table_checksum(arena_table)


# ---------------------------------------------------------------------------
# Table integration
# ---------------------------------------------------------------------------

def test_append_detaches_arena_but_keeps_values():
    table = _table(64)
    extra = Chunk(table.schema, {
        "k": np.array([999], dtype=np.int64),
        "v": np.array([1.5]),
        "tag": np.array(["zz"], dtype="<U8"),
    })
    table.append(extra)
    assert table._arena is None
    assert table.num_rows == 65
    assert table.column("k")[-1] == 999


def test_from_arrays_validates_like_chunk_init():
    schema = _schema()
    with pytest.raises(ValueError, match="do not match schema"):
        Table.from_arrays(schema, {"k": np.arange(3, dtype=np.int64)})
    with pytest.raises(ValueError, match="ragged columns"):
        Table.from_arrays(schema, {
            "k": np.arange(3, dtype=np.int64),
            "v": np.zeros(2),
            "tag": np.array(["x"] * 3, dtype="<U8"),
        })


def test_catalog_tables_are_arena_backed():
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(1000, chunk_rows=256))
    assert catalog.table("lineitem")._arena is not None
