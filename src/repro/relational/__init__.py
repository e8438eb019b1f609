"""Columnar relational substrate: schemas, tables, expressions, data."""

from .arena import Encoded
from .catalog import Catalog, ColumnStats, TableStats, compute_stats
from .datagen import (
    make_lineitem,
    make_orders,
    make_sensor_readings,
    make_uniform_table,
    standard_catalog,
    uniform_ints,
)
from .expressions import (
    And,
    Arith,
    Between,
    Col,
    Compare,
    Const,
    Expression,
    InSet,
    Like,
    Not,
    Or,
    col,
    lit,
)
from .formats import (
    CompressedChunk,
    compress_bytes,
    compress_chunk,
    decompress_bytes,
    decompress_chunk,
    deserialize_chunk,
    serialize_chunk,
    to_column_major,
    to_row_major,
)
from .schema import DataType, Field, Schema
from .sql import SqlError, parse_sql
from .table import Chunk, Table

__all__ = [
    "And",
    "Arith",
    "Between",
    "Catalog",
    "Chunk",
    "Col",
    "ColumnStats",
    "Compare",
    "CompressedChunk",
    "Const",
    "DataType",
    "Encoded",
    "Expression",
    "Field",
    "InSet",
    "Like",
    "Not",
    "Or",
    "Schema",
    "Table",
    "TableStats",
    "col",
    "compress_bytes",
    "compress_chunk",
    "compute_stats",
    "decompress_bytes",
    "decompress_chunk",
    "deserialize_chunk",
    "lit",
    "make_lineitem",
    "make_orders",
    "make_sensor_readings",
    "make_uniform_table",
    "serialize_chunk",
    "standard_catalog",
    "SqlError",
    "parse_sql",
    "to_column_major",
    "to_row_major",
    "uniform_ints",
]
