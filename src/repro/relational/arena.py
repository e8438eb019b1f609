"""Arena columnar storage: one contiguous buffer per column.

A :class:`Arena` owns the physical storage of a table built in one
shot (``Table.from_arrays``): each column is a single contiguous
array covering every row in its narrowest type, in one of three
forms.  *Plain*: integers as the narrowest of int8..int64 holding
their [min, max], any other column as given.  *Scaled*: a float
column that is bit for bit ``k / 10**d`` for some ``d`` in 0..4 (the
exact-decimal test of ALP, Afroozeh et al., SIGMOD 2024) as the
integers ``k`` in the narrowest type below int64, decoded by one
division by ``10.0**d``.  *Dict*: strings as a *sorted* pool of
exactly the distinct values that occur plus a code per row in the
narrowest signed type indexing it.  Every read returns the field's
dtype, bit-identical to what was stored.  Because the pool
is sorted, code order equals lexicographic order:
``np.unique`` over codes and ``np.unique`` over the decoded strings
yield the same groups in the same order, which is what keeps
dictionary encoding invisible to checksums and simulated byte counts.

A string column gets there from either input form: a dense ``<U``
array (hand-built tables) is deduplicated by :func:`_encode`; an
:class:`Encoded` one — indices into a small pool, the form generators
draw strings in — is adopted by :func:`_adopt` with integer work over
the codes and string work over the pool, never building ``rows x
width`` unicode.  Both share one dict-or-plain decision and yield
bit-identical columns for the same values.

The arena is a *physical* layout change only, and caches no read.
Logical byte counts — ``chunk.nbytes``, the quantity charged to
devices and links — are still ``rows x schema.row_nbytes`` exactly as
if every column were dense and wide, so the simulation cannot tell an
arena-backed table from a dict-of-arrays one (the regression gate
compares at tolerance 0).

Validity masks ride along structurally (one optional boolean array
per column, ``True`` = present); the current workloads are NULL-free
so no operator consults them yet, but the storage, slicing, and
round-trip contracts are in place and tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .schema import DataType, Field, Schema

__all__ = ["Arena", "ArenaColumn", "Encoded"]

#: Dictionary-encode a string column only when the pool is smaller
#: than the rows it describes — a pool as large as the data would
#: cost a gather per read and save nothing.
_DICT_MAX_POOL_FRACTION = 0.75

_INTS = tuple(np.iinfo(t) for t in (np.int8, np.int16, np.int32, np.int64))
_INT64 = DataType.numpy_dtype(DataType.INT64)


def narrowest(lo: int, hi: int) -> np.dtype:
    """The narrowest signed integer dtype that holds [lo, hi]."""
    return next(np.dtype(t.dtype) for t in _INTS
                if t.min <= lo and hi <= t.max)


def narrow(values: np.ndarray) -> np.ndarray:
    """Integer ``values`` in the narrowest type that holds them."""
    lo, hi = (int(values.min()), int(values.max())) if len(values) else (0, 0)
    return values.astype(narrowest(lo, hi), order="C", copy=False)


@np.errstate(over="ignore")            # a huge value times 10**d: inf
def _scaled(values: np.ndarray, scale: float) -> Optional[np.ndarray]:
    """Integers ``k`` narrower than int64 whose ``k / scale`` is bit
    for bit ``values`` (so NaN, ±inf, -0.0 and subnormals fail), or
    None."""
    k = np.rint(values * scale)
    lo, hi = k.min(), k.max()           # NaN fails both comparisons
    if not (-2**31 <= lo and hi < 2**31):
        return None
    k = k.astype(narrowest(int(lo), int(hi)))
    exact = np.array_equal((k / scale).view(np.int64), values.view(np.int64))
    return k if exact else None


def _decimal(values: np.ndarray) -> Optional[tuple[np.ndarray, float]]:
    """``(k, 10.0**d)`` for the smallest ``d`` in 0..4 that a strided
    sample of about 32 rows fits, once proven on every row; else None."""
    if len(values):
        sample = values[::-(-len(values) // 32)]
        for scale in (10.0 ** d for d in range(5)):
            if _scaled(sample, scale) is not None:
                k = _scaled(values, scale)
                return None if k is None else (k, scale)
    return None


class ArenaColumn:
    """One column's physical storage inside an arena.

    Plain (``buffer`` holds the values, integers narrowed), scaled
    (``buffer`` holds integers ``k`` of a float column whose values
    are ``k / scale``) or dictionary-encoded (``codes`` index the
    sorted ``pool``).  An optional ``validity`` boolean array marks
    present rows.
    """

    __slots__ = ("buffer", "scale", "codes", "pool", "validity")

    def __init__(self, buffer: Optional[np.ndarray] = None,
                 codes: Optional[np.ndarray] = None,
                 pool: Optional[np.ndarray] = None,
                 validity: Optional[np.ndarray] = None,
                 scale: Optional[float] = None):
        if (buffer is None) == (codes is None):
            raise ValueError("column is either plain or dict-encoded")
        if (codes is None) != (pool is None):
            raise ValueError("codes and pool come together")
        self.buffer = buffer
        self.scale = scale
        self.codes = codes
        self.pool = pool
        self.validity = validity

    @property
    def is_dict(self) -> bool:
        return self.codes is not None

    def decode(self, start: int, stop: int) -> np.ndarray:
        """The logical values of rows [start, stop) as a dense array."""
        if self.buffer is None:
            return self.pool[self.codes[start:stop]]
        values = self.buffer[start:stop]
        if self.scale is not None:          # k / 10**d, never k * 10**-d
            return values / self.scale
        if values.dtype.kind == "i":        # narrowed; INT64 fields only
            return values.astype(_INT64, copy=False)
        return values

    def stored(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop) for min / max / distinct: a plain buffer
        unwidened; a scaled or dict column decoded, so bounds are
        values, never codes."""
        if self.buffer is None or self.scale is not None:
            return self.decode(start, stop)
        return self.buffer[start:stop]


@dataclass(frozen=True, eq=False)
class Encoded:
    """A string column handed over as drawn: row i is ``pool[codes[i]]``.

    An *input* form for ``Table.from_arrays``, not a storage layout:
    ``pool`` may repeat values, hold values no row uses and be wider
    than the field; :func:`_adopt` makes the canonical column of it.
    """

    codes: np.ndarray
    pool: Union[np.ndarray, Sequence[str]]

    def __len__(self) -> int:
        return len(self.codes)

    def checked(self, field: Field) -> "Encoded":
        """Narrowest in-range integer codes into a ``field``-typed pool,
        or a ``ValueError`` here rather than an ``IndexError`` later."""
        what = f"encoded column {field.name!r}"
        if field.dtype != DataType.STRING:
            raise ValueError(f"{what}: field is {field.dtype}, only "
                             f"string columns take codes + pool")
        try:
            pool = np.asarray(self.pool, dtype=field.numpy_dtype)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{what}: pool is not coercible to "
                             f"{field.numpy_dtype.str}: {exc}") from exc
        codes = np.asarray(self.codes)
        if pool.ndim != 1 or codes.ndim != 1:
            raise ValueError(f"{what}: pool and codes must be 1-D, got "
                             f"shapes {pool.shape} and {codes.shape}")
        if codes.dtype.kind not in "iu":
            raise ValueError(f"{what}: codes must be integers, "
                             f"got dtype {codes.dtype}")
        if len(codes) and not (0 <= codes.min()
                               and codes.max() < len(pool)):
            raise ValueError(
                f"{what}: codes span [{codes.min()}, {codes.max()}], "
                f"outside the pool's [0, {len(pool)})")
        return Encoded(codes.astype(narrowest(0, len(pool) - 1),
                                    copy=False), pool)


def _dict_pays(pool_size: int, rows: int) -> bool:
    """The one dict-or-plain decision, given the distinct-value count."""
    return 0 < pool_size <= _DICT_MAX_POOL_FRACTION * rows


def _encode(values: np.ndarray) -> ArenaColumn:
    """Dense ``values`` stored plain (integers narrowed), scaled for
    exact decimal floats, or, for strings where it pays,
    dictionary-encoded."""
    if values.dtype.kind in "iu":
        return ArenaColumn(buffer=narrow(values))
    if values.dtype.kind == "f":
        decimal = _decimal(values)
        if decimal is not None:
            return ArenaColumn(buffer=decimal[0], scale=decimal[1])
    if values.dtype.kind == "U":
        # Equivalent to np.unique(values, return_inverse=True) but
        # ~3x faster on low-cardinality string columns: hash-dedup
        # via a Python set, then one vectorized searchsorted for the
        # codes.  Python's str sort and numpy's U-dtype sort agree,
        # so the pool (and therefore codes and downstream checksums)
        # is bit-identical to the np.unique form.
        uniques = sorted(set(values.tolist()))
        if _dict_pays(len(uniques), len(values)):
            pool = np.array(uniques, dtype=values.dtype)
            codes = np.searchsorted(pool, values)
            return ArenaColumn(codes=codes.astype(
                narrowest(0, len(pool) - 1)), pool=pool)
    return ArenaColumn(buffer=np.ascontiguousarray(values))


def _adopt(column: Encoded) -> ArenaColumn:
    """What :func:`_encode` makes of ``pool[codes]``, without making
    it: ``bincount`` finds the pool entries that occur, ``np.unique``
    sorts and dedups them, one narrowest-code gather renumbers them."""
    codes, pool = column.codes, column.pool
    used = np.bincount(codes, minlength=len(pool)) > 0
    uniques, rank = np.unique(pool[used], return_inverse=True)
    if not _dict_pays(len(uniques), len(codes)):
        return ArenaColumn(buffer=pool[codes])
    remap = np.zeros(len(pool), dtype=narrowest(0, len(uniques) - 1))
    remap[used] = rank
    return ArenaColumn(codes=remap[codes], pool=uniques)


class Arena:
    """Contiguous SoA storage for one table's rows; caches no read."""

    __slots__ = ("schema", "num_rows", "columns")

    def __init__(self, schema: Schema, columns: dict[str, ArenaColumn],
                 num_rows: int):
        self.schema = schema
        self.columns = columns
        self.num_rows = num_rows

    @classmethod
    def build(cls, schema: Schema,
              columns: dict[str, Union[np.ndarray, Encoded]],
              validity: Optional[dict[str, np.ndarray]] = None) -> "Arena":
        """Arena storage for already-validated, schema-typed columns."""
        validity = validity or {}
        store: dict[str, ArenaColumn] = {}
        rows = 0
        for field in schema.fields:
            values = columns[field.name]
            rows = len(values)
            column = (_adopt(values) if isinstance(values, Encoded)
                      else _encode(values))
            mask = validity.get(field.name)
            if mask is not None:
                mask = np.ascontiguousarray(mask, dtype=bool)
                if len(mask) != rows:
                    raise ValueError(
                        f"validity length {len(mask)} != rows {rows} "
                        f"for column {field.name!r}")
                column.validity = mask
            store[field.name] = column
        return cls(schema, store, rows)

    def column_slice(self, name: str, start: int, stop: int) -> np.ndarray:
        """Decoded values of one column over [start, stop)."""
        return self.columns[name].decode(start, stop)

    def codes_slice(self, name: str, start: int,
                    stop: int) -> Optional[np.ndarray]:
        """Dictionary codes over [start, stop), or None if plain."""
        column = self.columns[name]
        if column.codes is None:
            return None
        return column.codes[start:stop]

    def pool(self, name: str) -> Optional[np.ndarray]:
        return self.columns[name].pool

    def validity_slice(self, name: str, start: int,
                       stop: int) -> Optional[np.ndarray]:
        """Validity mask over [start, stop), or None if all-valid."""
        mask = self.columns[name].validity
        if mask is None:
            return None
        return mask[start:stop]

    def __repr__(self) -> str:
        encoded = sum(1 for c in self.columns.values() if c.is_dict)
        return (f"<Arena {self.num_rows} rows x {len(self.columns)} cols,"
                f" {encoded} dict-encoded>")
