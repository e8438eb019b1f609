"""Tests for serialization, compression, transposition, catalog, datagen."""

import numpy as np
import pytest

from repro.relational import (
    Catalog,
    Chunk,
    DataType,
    Schema,
    compress_chunk,
    compute_stats,
    decompress_chunk,
    deserialize_chunk,
    make_lineitem,
    make_orders,
    make_sensor_readings,
    make_uniform_table,
    serialize_chunk,
    to_column_major,
    to_row_major,
)


def sample_chunk():
    schema = Schema.of(("a", DataType.INT64), ("b", DataType.FLOAT64),
                       ("flag", DataType.BOOL), ("s", DataType.STRING, 12))
    return Chunk(schema, {
        "a": np.array([10, -5, 0], dtype=np.int64),
        "b": np.array([0.25, 1e9, -3.5]),
        "flag": np.array([True, False, True]),
        "s": np.array(["hello", "", "world wide"]),
    })


# ---------------------------------------------------------------------------
# Serialization / compression
# ---------------------------------------------------------------------------

def test_serialize_roundtrip():
    chunk = sample_chunk()
    restored = deserialize_chunk(serialize_chunk(chunk))
    assert restored.sorted_rows() == chunk.sorted_rows()
    assert restored.schema.names == chunk.schema.names


def test_deserialize_rejects_garbage():
    with pytest.raises(ValueError):
        deserialize_chunk(b"nope" + b"\x00" * 20)


def test_compress_roundtrip():
    chunk = sample_chunk()
    compressed = compress_chunk(chunk)
    restored = decompress_chunk(compressed)
    assert restored.sorted_rows() == chunk.sorted_rows()


def test_compression_shrinks_redundant_data():
    schema = Schema.of(("a", DataType.INT64))
    chunk = Chunk(schema, {"a": np.zeros(10000, dtype=np.int64)})
    compressed = compress_chunk(chunk)
    assert compressed.nbytes < chunk.nbytes / 10
    assert compressed.ratio > 10


def test_compressed_chunk_metadata():
    chunk = sample_chunk()
    compressed = compress_chunk(chunk)
    assert compressed.num_rows == chunk.num_rows
    assert compressed.uncompressed_nbytes == chunk.nbytes


# ---------------------------------------------------------------------------
# Transposition (§5.4)
# ---------------------------------------------------------------------------

def test_row_column_roundtrip():
    chunk = sample_chunk()
    rows = to_row_major(chunk)
    back = to_column_major(rows, chunk.schema)
    assert back.sorted_rows() == chunk.sorted_rows()


def test_row_major_layout_is_structured():
    rows = to_row_major(sample_chunk())
    assert rows.dtype.names == ("a", "b", "flag", "s")
    assert rows[0]["a"] == 10


# ---------------------------------------------------------------------------
# Catalog and statistics
# ---------------------------------------------------------------------------

def test_catalog_register_and_lookup():
    catalog = Catalog()
    table = make_uniform_table(1000, seed=1)
    catalog.register("t", table)
    assert "t" in catalog
    assert catalog.table("t") is table
    assert catalog.names == ["t"]


def test_catalog_unknown_table():
    catalog = Catalog()
    with pytest.raises(KeyError):
        catalog.table("missing")
    with pytest.raises(KeyError):
        catalog.stats("missing")


def test_stats_exact_min_max_distinct():
    table = make_uniform_table(5000, columns=1, distinct=50, seed=3)
    stats = compute_stats(table)
    k0 = stats.columns["k0"]
    values = table.column("k0")
    assert k0.min == values.min()
    assert k0.max == values.max()
    assert k0.distinct == len(np.unique(values))
    assert stats.rows == 5000
    assert stats.nbytes == table.nbytes


def test_stats_string_columns_have_no_range():
    table = make_orders(100)
    stats = compute_stats(table)
    assert stats.columns["o_comment"].min is None
    assert stats.columns["o_comment"].distinct > 0


# ---------------------------------------------------------------------------
# Data generators
# ---------------------------------------------------------------------------

def test_generators_deterministic():
    t1 = make_lineitem(1000, seed=42)
    t2 = make_lineitem(1000, seed=42)
    assert t1.sorted_rows() == t2.sorted_rows()
    t3 = make_lineitem(1000, seed=43)
    assert t3.sorted_rows() != t1.sorted_rows()


def test_lineitem_joins_orders():
    lineitem = make_lineitem(1000, orders=100)
    orders = make_orders(100)
    orderkeys = set(orders.column("o_orderkey").tolist())
    assert set(lineitem.column("l_orderkey").tolist()) <= orderkeys


def test_orders_key_dense():
    orders = make_orders(500)
    assert orders.column("o_orderkey").tolist() == list(range(500))


def test_sensor_error_rate_approximate():
    table = make_sensor_readings(100000, error_rate=0.01, seed=5)
    status = table.column("status")
    error_frac = (status == 2).mean()
    assert 0.005 < error_frac < 0.02
