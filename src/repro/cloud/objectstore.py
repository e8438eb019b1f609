"""A cloud object store with bytes-scanned billing (§3.2, §7.5).

Query-as-a-Service systems (Athena, BigQuery) "charge for the amount
of data read from storage rather than for the actual computation" —
proof, the paper argues, that data movement is the quantity that
matters.  This object store models that: objects are real serialized
(optionally compressed) table chunks on a slow disk backend, GETs
charge per byte scanned, and a ``select`` path does S3-Select-style
pushdown on the storage CU, billing only what the predicate touches
but shipping only what survives it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..engine.operators import FilterOp, ProjectOp, run_chain
from ..hardware.storage import ComputationalStorage
from ..relational.expressions import Expression
from ..relational.formats import (
    compress_chunk,
    decompress_chunk,
    deserialize_chunk,
    serialize_chunk,
)
from ..relational.table import Chunk, Table

__all__ = ["ObjectStore", "StoredObject", "Bill"]

# Modeled on cloud list prices: ~$5 per TB scanned.
DOLLARS_PER_BYTE_SCANNED = 5.0 / 1e12


@dataclass
class StoredObject:
    """One immutable object: a serialized chunk plus metadata."""

    key: str
    payload: bytes
    num_rows: int
    uncompressed_nbytes: int
    compressed: bool

    @property
    def nbytes(self) -> int:
        return len(self.payload)


@dataclass
class Bill:
    """Accumulated scan charges."""

    bytes_scanned: float = 0.0

    @property
    def dollars(self) -> float:
        return self.bytes_scanned * DOLLARS_PER_BYTE_SCANNED

    def charge(self, nbytes: float) -> None:
        self.bytes_scanned += nbytes


class ObjectStore:
    """Objects on a (computational) storage backend, billed per scan."""

    def __init__(self, storage: ComputationalStorage,
                 compress: bool = True):
        self.storage = storage
        self.compress = compress
        self.objects: dict[str, StoredObject] = {}
        self.bill = Bill()

    # -- writing ---------------------------------------------------------

    def put_chunk(self, key: str, chunk: Chunk) -> StoredObject:
        """Store one chunk under ``key`` (serialized, maybe compressed)."""
        if self.compress:
            compressed = compress_chunk(chunk)
            obj = StoredObject(key, compressed.payload, chunk.num_rows,
                               chunk.nbytes, compressed=True)
        else:
            obj = StoredObject(key, serialize_chunk(chunk),
                               chunk.num_rows, chunk.nbytes,
                               compressed=False)
        self.objects[key] = obj
        return obj

    def put_table(self, prefix: str, table: Table) -> list[str]:
        """Store a table as one object per chunk; returns the keys."""
        keys = []
        for index, chunk in enumerate(table.chunks):
            key = f"{prefix}/{index:06d}"
            self.put_chunk(key, chunk)
            keys.append(key)
        return keys

    def keys(self, prefix: str = "") -> list[str]:
        return sorted(k for k in self.objects if k.startswith(prefix))

    # -- reading ---------------------------------------------------------

    def get(self, key: str) -> Generator:
        """Fetch and decode one object (simulation process).

        Returns the decoded chunk; bills the object's stored size.
        """
        obj = self._lookup(key)
        yield from self.storage.medium.read(obj.nbytes)
        self.bill.charge(obj.nbytes)
        from ..relational.formats import CompressedChunk
        if obj.compressed:
            return decompress_chunk(CompressedChunk(
                obj.payload, obj.uncompressed_nbytes, obj.num_rows))
        return deserialize_chunk(obj.payload)

    def select(self, key: str, predicate: Optional[Expression] = None,
               columns: Optional[list[str]] = None) -> Generator:
        """S3-Select-style pushdown GET (§3.2).

        The storage CU decompresses, filters, and projects; the bill
        still covers every byte scanned, but the returned chunk is the
        reduced one — the caller only moves what survived.
        """
        obj = self._lookup(key)
        yield from self.storage.medium.read(obj.nbytes)
        self.bill.charge(obj.nbytes)
        from ..hardware.device import OpKind
        from ..relational.formats import CompressedChunk
        if obj.compressed:
            yield from self.storage.cu.execute(OpKind.DECOMPRESS,
                                               obj.nbytes)
            chunk = decompress_chunk(CompressedChunk(
                obj.payload, obj.uncompressed_nbytes, obj.num_rows))
        else:
            chunk = deserialize_chunk(obj.payload)
        ops = []
        if predicate is not None:
            ops.append(FilterOp(predicate))
        if columns is not None:
            ops.append(ProjectOp(columns))
        emits, charges = run_chain(ops, chunk)
        for kind, nbytes in charges:
            yield from self.storage.cu.execute(kind, nbytes)
        if emits:
            return emits[0].chunk
        # Nothing survived: an empty answer, in the schema asked for.
        empty = chunk.slice(0, 0)
        return empty if columns is None else empty.project(columns)

    def _lookup(self, key: str) -> StoredObject:
        if key not in self.objects:
            raise KeyError(f"no object {key!r}")
        return self.objects[key]
