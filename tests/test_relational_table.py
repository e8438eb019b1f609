"""Tests for schema, chunk, and table."""

import numpy as np
import pytest

from repro.relational import Chunk, DataType, Field, Schema, Table


def small_schema():
    return Schema.of(("a", DataType.INT64), ("b", DataType.FLOAT64),
                     ("s", DataType.STRING, 8))


def small_chunk():
    return Chunk(small_schema(), {
        "a": np.array([1, 2, 3], dtype=np.int64),
        "b": np.array([1.5, 2.5, 3.5]),
        "s": np.array(["x", "y", "z"]),
    })


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------

def test_schema_row_nbytes():
    schema = small_schema()
    # int64 (8) + float64 (8) + U8 string (8*4)
    assert schema.row_nbytes == 8 + 8 + 32


def test_schema_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Schema.of(("a", DataType.INT64), ("a", DataType.INT64))


def test_schema_unknown_type_rejected():
    with pytest.raises(ValueError):
        Field("x", "varchar")


def test_schema_project_preserves_order():
    schema = small_schema()
    proj = schema.project(["s", "a"])
    assert proj.names == ["s", "a"]


def test_schema_project_unknown_column():
    with pytest.raises(KeyError):
        small_schema().project(["nope"])


# ---------------------------------------------------------------------------
# Chunk
# ---------------------------------------------------------------------------

def test_chunk_nbytes_exact():
    chunk = small_chunk()
    assert chunk.nbytes == 3 * 8 + 3 * 8 + 3 * 32


def test_chunk_ragged_columns_rejected():
    with pytest.raises(ValueError):
        Chunk(Schema.of(("a", DataType.INT64), ("b", DataType.INT64)),
              {"a": np.array([1, 2]), "b": np.array([1])})


def test_chunk_missing_column_rejected():
    with pytest.raises(ValueError):
        Chunk(small_schema(), {"a": np.array([1])})


def test_chunk_filter_mask():
    chunk = small_chunk()
    out = chunk.filter(np.array([True, False, True]))
    assert out.column("a").tolist() == [1, 3]
    assert out.column("s").tolist() == ["x", "z"]


def test_chunk_filter_wrong_mask_length():
    with pytest.raises(ValueError):
        small_chunk().filter(np.array([True]))


def test_chunk_project():
    out = small_chunk().project(["b"])
    assert out.schema.names == ["b"]
    assert out.nbytes == 3 * 8


def test_chunk_take_reorders():
    out = small_chunk().take(np.array([2, 0, 0]))
    assert out.column("a").tolist() == [3, 1, 1]


def test_chunk_concat_roundtrip():
    chunk = small_chunk()
    joined = Chunk.concat([chunk, chunk])
    assert joined.num_rows == 6
    assert joined.column("a").tolist() == [1, 2, 3, 1, 2, 3]


def test_chunk_concat_empty_rejected():
    with pytest.raises(ValueError):
        Chunk.concat([])


def test_chunk_with_column():
    chunk = small_chunk()
    out = chunk.with_column(Field("c", DataType.INT64),
                            np.array([7, 8, 9], dtype=np.int64))
    assert out.schema.names == ["a", "b", "s", "c"]
    assert out.column("c").tolist() == [7, 8, 9]


def test_chunk_to_rows():
    rows = small_chunk().to_rows()
    assert rows[0] == (1, 1.5, "x")
    assert len(rows) == 3


def test_chunk_dtype_coercion():
    schema = Schema.of(("a", DataType.INT64))
    chunk = Chunk(schema, {"a": [1.0, 2.0]})
    assert chunk.column("a").dtype == np.int64


CONSTRUCTORS = {"Chunk": Chunk, "Table.from_arrays": Table.from_arrays}

# Each of these changed a value in the cast instead of failing.
LOSSY = {
    "fraction": (DataType.INT64, np.array([1.7, 2.2]), "float64"),
    "nan": (DataType.INT64, np.array([np.nan, 1.0]), "float64"),
    "inf": (DataType.INT64, np.array([np.inf]), "float64"),
    "past int64 max": (DataType.INT64, np.array([2**63 + 5], np.uint64),
                       "uint64"),
    "float 2**63": (DataType.INT64, np.array([2.0**63]), "float64"),
    "int past 2**53": (DataType.FLOAT64, np.array([2**53 + 1]), "int64"),
}


@pytest.mark.parametrize("case", sorted(LOSSY))
@pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
def test_a_lossy_cast_is_refused(constructor, case):
    dtype, values, source = LOSSY[case]
    schema = Schema.of(("a", dtype))
    with pytest.raises(ValueError, match=rf"'a'.*{source}.*{dtype}"):
        CONSTRUCTORS[constructor](schema, {"a": values})


@pytest.mark.parametrize("values", [
    np.array([1.0, -2.0, 2.0**62]), np.array([5, 2**63 - 1], np.uint64),
    np.array([True, False]), [3, 4]])
@pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
def test_an_exact_cast_is_taken(constructor, values):
    schema = Schema.of(("a", DataType.INT64))
    built = CONSTRUCTORS[constructor](schema, {"a": values})
    column = built.column("a")
    assert column.dtype == np.int64
    assert column.tolist() == [int(v) for v in values]


# ---------------------------------------------------------------------------
# Table
# ---------------------------------------------------------------------------

def test_table_from_arrays_chunking():
    schema = Schema.of(("a", DataType.INT64))
    table = Table.from_arrays(schema, {"a": np.arange(10)}, chunk_rows=3)
    assert [c.num_rows for c in table.chunks] == [3, 3, 3, 1]
    assert table.num_rows == 10


def test_table_column_concatenated():
    schema = Schema.of(("a", DataType.INT64))
    table = Table.from_arrays(schema, {"a": np.arange(10)}, chunk_rows=4)
    assert table.column("a").tolist() == list(range(10))


def test_table_schema_mismatch_rejected():
    schema = Schema.of(("a", DataType.INT64))
    other = Schema.of(("b", DataType.INT64))
    table = Table(schema)
    with pytest.raises(ValueError):
        table.append(Chunk(other, {"b": np.array([1])}))


def test_empty_table():
    schema = Schema.of(("a", DataType.INT64))
    table = Table.from_arrays(schema, {"a": np.empty(0, dtype=np.int64)})
    assert table.num_rows == 0
    assert table.combined().num_rows == 0
    assert table.column("a").tolist() == []
