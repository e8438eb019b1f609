"""Schemas and data types for the columnar substrate.

Types map directly onto numpy dtypes; strings are fixed-width unicode
so that chunk sizes are well-defined — byte counts drive every
simulated cost, so ``Field.value_nbytes`` must be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

__all__ = ["DataType", "Field", "Schema"]


@lru_cache(maxsize=None)
def _numpy_dtype(dtype: str, width: int) -> np.dtype:
    """One shared ``np.dtype`` per declared (type, width) pair."""
    if dtype == DataType.STRING:
        return np.dtype(f"<U{width}")
    if dtype in DataType._NUMPY:
        return np.dtype(DataType._NUMPY[dtype])
    raise ValueError(f"unknown data type {dtype!r}")


class DataType:
    """Supported column types (string constants, numpy-backed)."""

    INT64 = "int64"
    FLOAT64 = "float64"
    BOOL = "bool"
    STRING = "string"

    ALL = (INT64, FLOAT64, BOOL, STRING)

    _NUMPY = {INT64: np.int64, FLOAT64: np.float64, BOOL: np.bool_}

    @classmethod
    def numpy_dtype(cls, dtype: str, width: int = 32):
        """The numpy dtype for a declared column type (shared/cached)."""
        return _numpy_dtype(dtype, width)


@dataclass(frozen=True)
class Field:
    """One column: name, type, and (for strings) fixed width."""

    name: str
    dtype: str
    width: int = 32   # characters, strings only

    def __post_init__(self):
        if self.dtype not in DataType.ALL:
            raise ValueError(f"unknown data type {self.dtype!r}")
        if self.dtype == DataType.STRING and self.width < 1:
            raise ValueError("string width must be >= 1")

    @property
    def numpy_dtype(self):
        return DataType.numpy_dtype(self.dtype, self.width)

    @property
    def value_nbytes(self) -> int:
        """Bytes per value in columnar layout."""
        return self.numpy_dtype.itemsize


class Schema:
    """An ordered set of fields with fast name lookup."""

    def __init__(self, fields: Sequence[Field]):
        self.fields = list(fields)
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in {names}")
        self._by_name = {f.name: f for f in self.fields}
        self._names = names
        self._row_nbytes: int = -1

    @classmethod
    def of(cls, *specs: tuple) -> "Schema":
        """Shorthand: ``Schema.of(("a", DataType.INT64), ...)``."""
        fields = []
        for spec in specs:
            if len(spec) == 2:
                fields.append(Field(spec[0], spec[1]))
            else:
                fields.append(Field(spec[0], spec[1], width=spec[2]))
        return cls(fields)

    @property
    def names(self) -> list[str]:
        """Column names in order (shared list — do not mutate)."""
        return self._names

    def field(self, name: str) -> Field:
        if name not in self._by_name:
            raise KeyError(
                f"no column {name!r} (have: {self.names})")
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.name}:{f.dtype}" for f in self.fields)
        return f"Schema({cols})"

    @property
    def row_nbytes(self) -> int:
        """Bytes per row in columnar layout (computed once).

        Chunk byte counts — the quantity every simulated device and
        link charges — are ``rows x row_nbytes``, evaluated per chunk
        per operator, so the per-field sum is cached on first use
        (fields are immutable after construction).
        """
        if self._row_nbytes < 0:
            self._row_nbytes = sum(f.value_nbytes for f in self.fields)
        return self._row_nbytes

    def project(self, names: Iterable[str]) -> "Schema":
        """A schema containing only ``names``, in the given order."""
        return Schema([self.field(n) for n in names])
