"""Columnar chunks and tables.

A :class:`Chunk` is the unit of data flow: a fixed schema plus one
numpy array per column.  Every operator in both engines consumes and
produces chunks, and ``chunk.nbytes`` is the quantity charged to
devices and links — the data the simulation moves is the data the
query actually processes.

Chunks materialise late: filters, takes, concatenations, arena
windows and join outputs are views (:class:`_LazyColumns`) whose
columns are produced when an operator first reads them, not when the
chunk crosses a channel, while ``nbytes`` stays the logical ``rows x
row_nbytes`` — the host pays for the columns a query reads, the
simulation charges the rows it moves.

A :class:`Table` is a list of chunks with one schema; it is what the
catalog stores and what scans iterate over.  An arena-backed table
makes its windows as they are indexed: what a scan decodes dies with
the chunk.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence as SequenceABC
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .arena import Arena, Encoded
from .schema import DataType, Field, Schema

__all__ = ["Chunk", "Table"]


def _cast(field: Field, values) -> np.ndarray:
    """``values`` as ``field``'s dtype, or a ``ValueError`` naming the
    column when a numeric cast would change a value: a fraction, NaN
    or ±inf into an integer, an unsigned value past the signed max,
    an integer a float cannot hold."""
    values = np.asarray(values)
    want = field.numpy_dtype
    if values.dtype == want:
        return values
    with np.errstate(invalid="ignore"):
        cast = values.astype(want)
        exact = (values.dtype.kind not in "biuf" or want.kind not in "if"
                 or (np.array_equal(cast.astype(values.dtype), values)
                     and np.array_equal(cast < 0, values < 0)))
    if not exact:
        raise ValueError(f"column {field.name!r}: {values.dtype} values "
                         f"do not cast exactly to {want}")
    return cast


class _LazyColumns(Mapping):
    """Columns produced on first read and cached: late materialisation.

    The one mapping behind every chunk that is not a plain dict of
    arrays.  A column costs nothing until an operator reads it, is
    produced once (``produce(name)``: a concatenation, a gather
    through a join's match indices) and then cached, so data crossing
    channels, build tables and join outputs pays only for the columns
    somebody reads.  ``num_rows`` and ``nbytes`` are logical — ``rows x
    schema.row_nbytes``, exactly what the materialised chunk reports
    (every source went through the checked constructor or an arena
    build once, so dtypes are the schema's) — which keeps every
    simulated charge independent of what has been gathered.
    """

    __slots__ = ("schema", "num_rows", "_produce", "_cache")

    def __init__(self, schema: Schema, num_rows: int,
                 produce: Optional[Callable[[str], np.ndarray]] = None,
                 cache: Optional[dict[str, np.ndarray]] = None):
        self.schema = schema
        self.num_rows = num_rows
        self._produce = produce
        self._cache: dict[str, np.ndarray] = {} if cache is None else cache

    def _load(self, name: str) -> np.ndarray:
        """Produce column ``name`` (subclasses: gather, decode)."""
        return self._produce(name)

    def __getitem__(self, name: str) -> np.ndarray:
        column = self._cache.get(name)
        if column is None:
            if name not in self.schema:
                raise KeyError(name)
            column = self._cache[name] = self._load(name)
        return column

    def __iter__(self) -> Iterator[str]:
        return iter(self.schema.names)

    def __len__(self) -> int:
        return len(self.schema.names)

    @property
    def nbytes(self) -> int:
        return self.num_rows * self.schema.row_nbytes


class _SelectionColumns(_LazyColumns):
    """Columns viewed through a selection index, gathered on read.

    ``base`` holds the parent columns (a plain dict or any
    :class:`_LazyColumns`), ``sel`` the row indices this view selects;
    chained filters and takes compose their indices over the same
    base instead of gathering between steps.
    """

    __slots__ = ("base", "sel")

    def __init__(self, schema: Schema, base, sel: np.ndarray):
        super().__init__(schema, len(sel))
        self.base = base
        self.sel = sel

    def _load(self, name: str) -> np.ndarray:
        return self.base[name][self.sel]


class _ArenaColumns(_LazyColumns):
    """Columns backed by a ``[start, stop)`` window of arena storage.

    A read is a buffer slice, widened if the column is stored narrow,
    or a decode of a dictionary-encoded one, cached in the window.
    ``nbytes`` is never the physical size, so the simulation charges
    arena-backed chunks identically to dense ones.
    """

    __slots__ = ("arena", "start", "stop")

    def __init__(self, arena: Arena, start: int, stop: int,
                 schema: Schema,
                 cache: Optional[dict[str, np.ndarray]] = None):
        super().__init__(schema, stop - start, cache=cache)
        self.arena = arena
        self.start = start
        self.stop = stop

    def _load(self, name: str) -> np.ndarray:
        return self.arena.column_slice(name, self.start, self.stop)

    def codes(self, name: str) -> Optional[np.ndarray]:
        """Dictionary codes for ``name`` over this window, or None."""
        if name not in self.schema:
            return None
        return self.arena.codes_slice(name, self.start, self.stop)

    def pool(self, name: str) -> Optional[np.ndarray]:
        if name not in self.schema:
            return None
        return self.arena.pool(name)

    def validity(self, name: str) -> Optional[np.ndarray]:
        if name not in self.schema:
            return None
        return self.arena.validity_slice(name, self.start, self.stop)


class Chunk:
    """A batch of rows in columnar layout."""

    def __init__(self, schema: Schema, columns: dict[str, np.ndarray]):
        if set(columns) != set(schema.names):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema "
                f"{schema.names}")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self.schema = schema
        self.columns = {name: _cast(schema.field(name), columns[name])
                        for name in schema.names}

    # A dense chunk has ``_sel is None``; a selection-vector view set
    # by :meth:`_view` carries the lazy index instead.
    _sel: Optional[np.ndarray] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_valid(cls, schema: Schema,
                    columns: dict[str, np.ndarray]) -> "Chunk":
        """Internal fast constructor: skips validation and coercion.

        Only for columns already known to match ``schema`` — the
        row-subset / column-subset transformations below, whose inputs
        went through the checked ``__init__`` once.
        """
        chunk = cls.__new__(cls)
        chunk.schema = schema
        chunk.columns = columns
        return chunk

    @classmethod
    def _view(cls, schema: Schema, base, sel: np.ndarray) -> "Chunk":
        """A zero-copy selection view over ``base`` columns.

        Nothing is gathered until a column is read; ``num_rows`` and
        ``nbytes`` come straight from the selection index, so charging
        a lazy chunk costs the same bytes as charging its
        materialised form.
        """
        chunk = cls._from_valid(schema,
                                _SelectionColumns(schema, base, sel))
        chunk._sel = sel
        return chunk

    @classmethod
    def _lazy(cls, schema: Schema, num_rows: int,
              produce: Callable[[str], np.ndarray]) -> "Chunk":
        """``num_rows`` rows whose columns are ``produce(name)``, each
        called at most once, when the column is first read."""
        return cls._from_valid(schema,
                               _LazyColumns(schema, num_rows, produce))

    @classmethod
    def _from_arena(cls, schema: Schema, arena: Arena, start: int,
                    stop: int,
                    cache: Optional[dict[str, np.ndarray]] = None) -> "Chunk":
        """A zero-copy window over arena storage (rows [start, stop))."""
        return cls._from_valid(
            schema, _ArenaColumns(arena, start, stop, schema, cache))

    @classmethod
    def empty(cls, schema: Schema) -> "Chunk":
        return cls(schema, {
            f.name: np.empty(0, dtype=f.numpy_dtype) for f in schema.fields})

    @classmethod
    def concat(cls, chunks: Sequence["Chunk"]) -> "Chunk":
        """Concatenate chunks sharing a schema into one.

        A single chunk is returned as-is (chunks are immutable by
        convention, so aliasing is safe) — no reallocation.  Several
        are concatenated column by column, each on first read.
        """
        if not chunks:
            raise ValueError("concat of zero chunks")
        if len(chunks) == 1:
            return chunks[0]
        chunks = list(chunks)
        return cls._lazy(
            chunks[0].schema, sum(c.num_rows for c in chunks),
            lambda name: np.concatenate([c.columns[name] for c in chunks]))

    # -- basic accessors ---------------------------------------------------

    @property
    def num_rows(self) -> int:
        if not self.schema.names:
            return 0
        columns = self.columns
        if type(columns) is dict:
            return len(columns[self.schema.names[0]])
        return columns.num_rows

    @property
    def nbytes(self) -> int:
        """Exact bytes of column data (drives simulated movement)."""
        columns = self.columns
        if type(columns) is dict:
            return sum(col.nbytes for col in columns.values())
        return columns.nbytes

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"<Chunk {self.num_rows} rows x {len(self.schema)} cols>"

    # -- transformations -----------------------------------------------------

    def project(self, names: Iterable[str]) -> "Chunk":
        """Keep only ``names``, in order."""
        names = list(names)
        schema = self.schema.project(names)
        if self._sel is not None:
            return Chunk._view(schema, self.columns.base, self._sel)
        columns = self.columns
        if type(columns) is _ArenaColumns:
            # Same storage window, restricted schema; the decode
            # cache is shared so either view's reads warm both.
            return Chunk._from_arena(schema, columns.arena, columns.start,
                                     columns.stop, columns._cache)
        return Chunk._from_valid(schema,
                                 {n: columns[n] for n in names})

    def filter(self, mask: np.ndarray) -> "Chunk":
        """Rows where ``mask`` is true — a lazy selection view.

        Nothing is copied: the result carries a selection index over
        this chunk's dense columns, gathered column-by-column only
        when read.  Chained filters compose their indices instead of
        materialising between stages.
        """
        if len(mask) != self.num_rows:
            raise ValueError("mask length mismatch")
        if self._sel is not None:
            return Chunk._view(self.schema, self.columns.base,
                               self._sel[mask])
        return Chunk._view(self.schema, self.columns, np.flatnonzero(mask))

    def take(self, indices: np.ndarray) -> "Chunk":
        """Rows at ``indices`` (may repeat / reorder) — a lazy view:
        only the columns actually read pay a gather or a decode."""
        if self._sel is not None:
            return Chunk._view(self.schema, self.columns.base,
                               self._sel[indices])
        return Chunk._view(self.schema, self.columns, np.asarray(indices))

    def slice(self, start: int, stop: int) -> "Chunk":
        if self._sel is not None:
            return Chunk._view(self.schema, self.columns.base,
                               self._sel[start:stop])
        columns = self.columns
        if type(columns) is _ArenaColumns:
            rows = columns.num_rows
            lo = min(max(start, 0), rows)
            hi = min(max(stop, lo), rows)
            return Chunk._from_arena(self.schema, columns.arena,
                                     columns.start + lo, columns.start + hi)
        return Chunk._from_valid(
            self.schema,
            {n: col[start:stop] for n, col in columns.items()})

    def materialize(self) -> "Chunk":
        """This chunk with every column gathered into dense storage.

        Dense and arena-backed chunks return themselves (an arena
        window reads settled storage); every other lazy chunk produces
        each column once (through its cache) into a plain dict.  Only owners of
        long-lived data call this (:meth:`Table.append`); everything
        else reads the columns it needs.
        """
        columns = self.columns
        if type(columns) in (dict, _ArenaColumns):
            return self
        return Chunk._from_valid(
            self.schema, {n: columns[n] for n in self.schema.names})

    def with_column(self, field: Field, values: np.ndarray) -> "Chunk":
        """A new chunk with one extra column appended."""
        values = np.asarray(values, dtype=field.numpy_dtype)
        if len(values) != self.num_rows:
            raise ValueError(
                f"ragged columns: lengths "
                f"{sorted({self.num_rows, len(values)})}")
        schema = Schema(self.schema.fields + [field])
        columns = dict(self.columns)
        columns[field.name] = values
        return Chunk._from_valid(schema, columns)

    # -- dictionary / validity introspection -----------------------------------

    def _arena_window(self) -> Optional[_ArenaColumns]:
        """The arena window this chunk reads, directly or through a
        selection view; None over any other storage."""
        base = self.columns if self._sel is None else self.columns.base
        return base if type(base) is _ArenaColumns else None

    def dict_codes(self, name: str) -> Optional[np.ndarray]:
        """Dictionary codes for column ``name``, or None if not encoded.

        Codes are narrowest-type indices into the *sorted* pool of
        :meth:`dict_pool`, so code order equals value order — fast
        paths (group-by, LIKE over the pool) built on codes produce
        results bit-identical to the decoded column.  Selection views
        over arena storage gather the codes through their index.
        """
        window = self._arena_window()
        codes = None if window is None else window.codes(name)
        if codes is None or self._sel is None:
            return codes
        return codes[self._sel]

    def dict_pool(self, name: str) -> Optional[np.ndarray]:
        """The sorted dictionary pool for ``name``, or None."""
        window = self._arena_window()
        return None if window is None else window.pool(name)

    def stored(self, name: str) -> np.ndarray:
        """Column ``name`` for min / max / distinct only: an arena's
        integer buffer unwidened, every other column decoded."""
        window = self.columns
        if type(window) is _ArenaColumns:
            return window.arena.columns[name].stored(window.start,
                                                     window.stop)
        return window[name]

    def validity(self, name: str) -> Optional[np.ndarray]:
        """Row validity mask for ``name`` (None means all valid)."""
        window = self._arena_window()
        mask = None if window is None else window.validity(name)
        if mask is None or self._sel is None:
            return mask
        return mask[self._sel]

    # -- test/oracle helpers ---------------------------------------------------

    def to_rows(self) -> list[tuple]:
        """Rows as python tuples (for correctness oracles).

        ``tolist`` converts each column to python scalars in one
        vectorized pass — the same values ``.item()`` produces
        element-wise, minus the per-cell dispatch.
        """
        if not self.schema.names:
            return []
        columns = [self.columns[n].tolist() for n in self.schema.names]
        return list(zip(*columns))

    def sorted_rows(self) -> list[tuple]:
        """Rows sorted, for order-insensitive comparison."""
        return sorted(self.to_rows())


class _Windows(SequenceABC):
    """An arena table's chunks, each window made as it is indexed."""

    def __init__(self, arena: Arena, bounds: list[tuple[int, int]]):
        self.arena, self.bounds = arena, bounds

    def __len__(self) -> int:
        return len(self.bounds)

    def __getitem__(self, index: int) -> Chunk:
        return Chunk._from_arena(self.arena.schema, self.arena,
                                 *self.bounds[index])


class Table:
    """A named relation: a schema plus a list of chunks."""

    def __init__(self, schema: Schema, chunks: Optional[list[Chunk]] = None,
                 name: str = ""):
        self.schema = schema
        self.name = name
        self._chunks: Union[list[Chunk], _Windows] = []
        self._arena: Optional[Arena] = None
        for chunk in chunks or []:
            self.append(chunk)

    @classmethod
    def from_arrays(cls, schema: Schema,
                    columns: dict[str, Union[np.ndarray, Encoded]],
                    name: str = "", chunk_rows: int = 65536) -> "Table":
        """Build a table over arena storage, chunked as window views.

        The columns become one contiguous arena (integers narrowed —
        a narrow one taken as it is — exact decimal floats scaled,
        strings dictionary-encoded when profitable, an
        :class:`Encoded` one never made dense); a numeric column of
        another dtype is cast only when the cast is exact; each
        chunk is a ``[start, stop)`` window of it made per read, and
        whole-column reads (:meth:`column`, :meth:`combined`) come
        straight off the arena.
        """
        if set(columns) != set(schema.names):
            raise ValueError(
                f"columns {sorted(columns)} do not match schema "
                f"{schema.names}")
        arrays = {}
        for field in schema.fields:
            column = columns[field.name]
            if isinstance(column, Encoded):
                column = column.checked(field)
            elif not (field.dtype == DataType.INT64 and isinstance(
                    column, np.ndarray) and column.dtype.kind == "i"):
                column = _cast(field, column)
            arrays[field.name] = column
        lengths = {name_: len(col) for name_, col in arrays.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: lengths {lengths}")
        return cls._windowed(Arena.build(schema, arrays), name, chunk_rows)

    @classmethod
    def _windowed(cls, arena: Arena, name: str, chunk_rows: int) -> "Table":
        """A table of ``chunk_rows``-row windows over ``arena``."""
        schema, rows = arena.schema, arena.num_rows
        table = cls(schema, name=name)
        table._chunks = _Windows(arena, [
            (start, min(start + chunk_rows, rows))
            for start in range(0, max(rows, 1), chunk_rows)])
        table._arena = arena
        return table

    def append(self, chunk: Chunk) -> None:
        if chunk.schema.names != self.schema.names:
            raise ValueError(
                f"chunk schema {chunk.schema.names} does not match "
                f"table schema {self.schema.names}")
        # An appended chunk breaks the single-arena invariant, so
        # whole-column reads fall back to per-chunk concatenation.
        if self._arena is not None:
            self._chunks, self._arena = list(self._chunks), None
        # Tables are long-lived; a lazy chunk appended here would pin
        # whatever it views (a build side, a scanned window), so
        # settle it once.
        self._chunks.append(chunk.materialize())

    @property
    def chunks(self) -> Sequence[Chunk]:
        return self._chunks if self._arena is not None else list(self._chunks)

    @property
    def num_rows(self) -> int:
        if self._arena is not None:
            return self._arena.num_rows
        return sum(c.num_rows for c in self._chunks)

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self._chunks)

    def column(self, name: str) -> np.ndarray:
        """The full column, concatenated across chunks."""
        if self._arena is not None:
            self.schema.field(name)  # same KeyError as the slow path
            return self._arena.column_slice(name, 0, self._arena.num_rows)
        if not self._chunks:
            return np.empty(0, dtype=self.schema.field(name).numpy_dtype)
        return np.concatenate([c.columns[name] for c in self._chunks])

    def combined(self) -> Chunk:
        """All rows as a single chunk."""
        if self._arena is not None:
            return Chunk._from_arena(self.schema, self._arena, 0,
                                     self._arena.num_rows)
        if not self._chunks:
            return Chunk.empty(self.schema)
        return Chunk.concat(self._chunks)

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self._chunks)

    def __repr__(self) -> str:
        return (f"<Table {self.name or '?'} {self.num_rows} rows, "
                f"{len(self._chunks)} chunks>")

    def sorted_rows(self) -> list[tuple]:
        """All rows sorted (order-insensitive comparison oracle)."""
        return self.combined().sorted_rows()
