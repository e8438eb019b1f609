"""The catalog: named tables plus the statistics the optimizer uses.

Statistics are exact (the data is synthetic and in memory, so there
is no reason to sample) but computed *lazily per column*: registering
a table records only its row and byte counts, and a column's min/max/
distinct are derived on first access — the optimizer only ever asks
about the handful of columns its predicates and keys mention, so the
other columns never pay their ``np.unique``.  The optimizer combines
them with expression selectivities to predict the bytes flowing
across each plan edge (§7.1's movement-first costing).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .schema import DataType, Schema
from .table import Table

__all__ = ["ColumnStats", "TableStats", "Catalog"]


@dataclass
class ColumnStats:
    """Exact per-column statistics."""

    name: str
    dtype: str
    min: Optional[float] = None
    max: Optional[float] = None
    distinct: int = 0
    value_nbytes: int = 8

    def as_dict(self) -> dict:
        """The shape expression selectivity estimation expects."""
        return {"min": self.min, "max": self.max, "distinct": self.distinct}


@dataclass
class TableStats:
    """Exact table-level statistics."""

    rows: int
    nbytes: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    @property
    def row_nbytes(self) -> float:
        return self.nbytes / self.rows if self.rows else 0.0

    def column_dict(self) -> Mapping:
        """Per-column stats dicts keyed by name, for expressions.

        Lazy like :attr:`columns`: the stats of a column are computed
        (and its dict built) only when an expression looks it up.
        """
        return _LazyColumnDicts(self.columns)


def _column_stats(table: Table, f) -> ColumnStats:
    """Exact statistics for one column of ``table``."""
    # Statistics depend on the distinct values only: an encoded
    # column's pool, or a narrow buffer unwidened, has exactly those.
    combined = table.combined()
    pool = combined.dict_pool(f.name)
    values = combined.stored(f.name) if pool is None else pool
    if f.dtype in (DataType.INT64, DataType.FLOAT64):
        lo = float(values.min()) if len(values) else None
        hi = float(values.max()) if len(values) else None
    else:
        lo = hi = None
    if not len(values):
        distinct = 0
    elif f.dtype == DataType.STRING:
        # Hashing beats np.unique's sort for fixed-width strings.
        distinct = len(set(values.tolist()))
    else:
        distinct = len(np.unique(values))
    return ColumnStats(name=f.name, dtype=f.dtype, min=lo, max=hi,
                       distinct=distinct, value_nbytes=f.value_nbytes)


class _LazyColumnStats(Mapping):
    """Per-column :class:`ColumnStats`, computed on first access."""

    def __init__(self, table: Table):
        self._table = table
        self._fields = {f.name: f for f in table.schema.fields}
        self._cache: dict[str, ColumnStats] = {}

    def __getitem__(self, name: str) -> ColumnStats:
        stats = self._cache.get(name)
        if stats is None:
            stats = _column_stats(self._table, self._fields[name])
            self._cache[name] = stats
        return stats

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)


class _LazyColumnDicts(Mapping):
    """``column_dict()`` form of a lazy stats mapping."""

    def __init__(self, columns: Mapping):
        self._columns = columns
        self._cache: dict[str, dict] = {}

    def __getitem__(self, name: str) -> dict:
        entry = self._cache.get(name)
        if entry is None:
            entry = self._columns[name].as_dict()
            self._cache[name] = entry
        return entry

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


def compute_stats(table: Table) -> TableStats:
    """Exact statistics for a table (columns computed lazily)."""
    return TableStats(rows=table.num_rows, nbytes=table.nbytes,
                      columns=_LazyColumnStats(table))


class Catalog:
    """Named tables with statistics and (lazily built) zone maps."""

    def __init__(self):
        self._tables: dict[str, Table] = {}
        self._stats: dict[str, TableStats] = {}
        self._zonemaps: dict[str, "ZoneMap"] = {}
        #: Bumped on every (re-)registration; caches of what was
        #: derived from the tables re-check their entries when it moves.
        self.version = 0

    def register(self, name: str, table: Table) -> Table:
        """Add (or replace) a table under ``name``; computes stats."""
        table.name = name
        self._tables[name] = table
        self._stats[name] = compute_stats(table)
        self._zonemaps.pop(name, None)
        self.version += 1
        return table

    def zonemap(self, name: str) -> "ZoneMap":
        """Per-chunk min/max bounds for pruning scans (§2.1)."""
        if name not in self._zonemaps:
            from .zonemaps import ZoneMap
            self._zonemaps[name] = ZoneMap.build(self.table(name))
        return self._zonemaps[name]

    def table(self, name: str) -> Table:
        if name not in self._tables:
            raise KeyError(
                f"unknown table {name!r} (have: {sorted(self._tables)})")
        return self._tables[name]

    def stats(self, name: str) -> TableStats:
        if name not in self._stats:
            raise KeyError(f"no statistics for table {name!r}")
        return self._stats[name]

    def schema(self, name: str) -> Schema:
        return self.table(name).schema

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    @property
    def names(self) -> list[str]:
        return sorted(self._tables)
