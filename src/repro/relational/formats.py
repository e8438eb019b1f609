"""Format conversion: serialization, compression, transposition.

The cloud data path reformats data constantly (§2.2's data-center tax,
§3.2's object-store formats, §5.4's HTAP transposition unit).  These
functions do the work for real — zlib for compression, raw numpy
buffers for (de)serialization, row/column layout conversion — so the
simulated byte counts charged to devices are the true sizes of the
data passing through.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .schema import Field, Schema
from .table import Chunk

__all__ = [
    "serialize_chunk",
    "deserialize_chunk",
    "compress_bytes",
    "decompress_bytes",
    "compress_chunk",
    "decompress_chunk",
    "to_row_major",
    "to_column_major",
    "CompressedChunk",
]

_MAGIC = b"RPC1"


def _schema_header(schema: Schema) -> bytes:
    spec = [(f.name, f.dtype, f.width) for f in schema.fields]
    return json.dumps(spec).encode()


def _schema_from_header(payload: bytes) -> Schema:
    spec = json.loads(payload.decode())
    return Schema([Field(name, dtype, width)
                   for name, dtype, width in spec])


def serialize_chunk(chunk: Chunk) -> bytes:
    """Pack a chunk into a self-describing byte string."""
    header = _schema_header(chunk.schema)
    parts = [_MAGIC, struct.pack("<II", len(header), chunk.num_rows), header]
    for name in chunk.schema.names:
        parts.append(np.ascontiguousarray(chunk.columns[name]).tobytes())
    return b"".join(parts)


def deserialize_chunk(payload: bytes) -> Chunk:
    """Reverse :func:`serialize_chunk`."""
    if payload[:4] != _MAGIC:
        raise ValueError("not a serialized chunk")
    header_len, num_rows = struct.unpack("<II", payload[4:12])
    schema = _schema_from_header(payload[12:12 + header_len])
    offset = 12 + header_len
    columns = {}
    for f in schema.fields:
        nbytes = f.value_nbytes * num_rows
        raw = payload[offset:offset + nbytes]
        columns[f.name] = np.frombuffer(raw, dtype=f.numpy_dtype).copy()
        offset += nbytes
    # frombuffer yields exact schema dtypes, so the checked
    # constructor's coercion pass has nothing to do — skip it.
    return Chunk._from_valid(schema, columns)


def compress_bytes(payload: bytes) -> bytes:
    """Real zlib compression (fast level — inline engines are fast)."""
    return zlib.compress(payload, 1)


def decompress_bytes(payload: bytes) -> bytes:
    return zlib.decompress(payload)


class CompressedChunk:
    """A chunk in compressed form, as stored/moved on the data path."""

    def __init__(self, payload: bytes, uncompressed_nbytes: int,
                 num_rows: int):
        self.payload = payload
        self.uncompressed_nbytes = uncompressed_nbytes
        self.num_rows = num_rows

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    @property
    def ratio(self) -> float:
        """Compression ratio (uncompressed / compressed)."""
        return self.uncompressed_nbytes / max(1, self.nbytes)


def compress_chunk(chunk: Chunk) -> CompressedChunk:
    """Serialize then compress a chunk."""
    raw = serialize_chunk(chunk)
    return CompressedChunk(compress_bytes(raw),
                           uncompressed_nbytes=chunk.nbytes,
                           num_rows=chunk.num_rows)


def decompress_chunk(compressed: CompressedChunk) -> Chunk:
    """Reverse :func:`compress_chunk`."""
    return deserialize_chunk(decompress_bytes(compressed.payload))


def to_row_major(chunk: Chunk) -> np.ndarray:
    """Columnar -> row-major: a structured array (the OLTP layout)."""
    dtype = np.dtype([(f.name, f.numpy_dtype)
                      for f in chunk.schema.fields])
    rows = np.empty(chunk.num_rows, dtype=dtype)
    for name in chunk.schema.names:
        rows[name] = chunk.columns[name]
    return rows


def to_column_major(rows: np.ndarray, schema: Schema) -> Chunk:
    """Row-major -> columnar: the transposition of §5.4's HTAP unit."""
    columns = {f.name: np.ascontiguousarray(rows[f.name])
               for f in schema.fields}
    return Chunk(schema, columns)
