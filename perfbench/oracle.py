"""Plain-numpy evaluation of the benchmark's query shapes.

The two engines share their operators, fusion and codegen, so "the
engines agree" cannot catch a bug they share.  This module evaluates a
:class:`Shape` directly over column arrays with numpy calls only; it
imports nothing from ``repro`` and so shares no code with ``engine/``
or ``relational/expressions.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["Shape", "evaluate", "mismatch"]


@dataclass(frozen=True)
class Shape:
    """One query shape: scan, filter, optional join, then one tail.

    ``where`` is ``(column, op, *constants)`` with op in ``gt``, ``lt``,
    ``le`` and ``between`` (inclusive).  ``join`` is ``(right table,
    right where, left key, right key)``; right keys are unique.  The
    tail is a projection (``project``), an aggregation (``group`` set,
    possibly to ``()``, with ``aggs`` of ``(func, column, alias)``), or
    a stable sort on ``sort`` cut to ``limit`` rows.
    """

    table: str
    where: tuple
    join: Optional[tuple] = None
    project: tuple = ()
    group: Optional[tuple] = None
    aggs: tuple = ()
    sort: tuple = ()
    limit: int = 0

    @property
    def tables(self) -> tuple:
        return (self.table,) + ((self.join[0],) if self.join else ())

    def reads(self, column: str) -> bool:
        """Whether evaluating the shape needs ``column``."""
        if self.sort:           # the sort tail keeps whole rows
            return True
        named = {self.where[0], *self.project, *(self.group or ()),
                 *(agg[1] for agg in self.aggs)}
        if self.join is not None:
            named |= {self.join[1][0], self.join[2], self.join[3]}
        return column in named


def _mask(columns: dict, where: tuple) -> np.ndarray:
    name, op, *consts = where
    values = columns[name]
    if op == "gt":
        return values > consts[0]
    if op == "lt":
        return values < consts[0]
    if op == "le":
        return values <= consts[0]
    if op == "between":
        return (values >= consts[0]) & (values <= consts[1])
    raise ValueError(f"unknown filter op {op!r}")


def evaluate(shape: Shape, tables: dict) -> dict:
    """Result columns of ``shape`` over ``tables[name][column]`` arrays."""
    left = tables[shape.table]
    keep = _mask(left, shape.where)
    rows = {name: values[keep] for name, values in left.items()}
    if shape.join is not None:
        right_name, right_where, left_key, right_key = shape.join
        right = tables[right_name]
        right_keep = _mask(right, right_where)
        right = {name: values[right_keep] for name, values in right.items()}
        order = np.argsort(right[right_key], kind="stable")
        keys = right[right_key][order]
        slot = np.searchsorted(keys, rows[left_key])
        slot[slot == len(keys)] = 0
        hit = (keys[slot] == rows[left_key]) if len(keys) else \
            np.zeros(len(slot), dtype=bool)
        rows = {name: values[hit] for name, values in rows.items()}
        for name, values in right.items():
            rows[name] = values[order][slot[hit]]
    if shape.group is not None:
        return _aggregate(rows, shape.group, shape.aggs)
    if shape.sort:
        order = np.lexsort([rows[name] for name in reversed(shape.sort)])
        order = order[:shape.limit] if shape.limit else order
        return {name: values[order] for name, values in rows.items()
                if name in left}
    return {name: rows[name] for name in shape.project}


def _aggregate(rows: dict, group: tuple, aggs: tuple) -> dict:
    n = len(next(iter(rows.values())))
    if group:
        # One group id per row: the row's rank among distinct key tuples.
        order = np.lexsort([rows[name] for name in reversed(group)])
        sorted_keys = [rows[name][order] for name in group]
        new_group = np.zeros(n, dtype=bool)
        new_group[:1] = True
        for keys in sorted_keys:
            new_group[1:] |= keys[1:] != keys[:-1]
        starts = np.flatnonzero(new_group)
        out = {name: keys[starts] for name, keys in zip(group, sorted_keys)}
    else:
        order = np.arange(n)
        starts = np.zeros(1, dtype=int)
        out = {}
    ends = np.append(starts[1:], n)
    for func, column, alias in aggs:
        if func == "count":
            out[alias] = (ends - starts).astype(np.int64)
        elif func == "sum":
            values = rows[column][order]
            out[alias] = np.array([values[a:b].sum()
                                   for a, b in zip(starts, ends)],
                                  dtype=np.float64)
        else:
            raise ValueError(f"unknown aggregate {func!r}")
    return out


def _canonical(columns: dict, names: list) -> list:
    """Columns reordered into one row order both sides agree on."""
    arrays = [np.asarray(columns[name]) for name in names]
    # lexsort's last key is the primary one: exact (non-float) columns
    # decide the order, float sums only break ties between equal keys.
    floats = [a for a in arrays if a.dtype.kind == "f"]
    exact = [a for a in arrays if a.dtype.kind != "f"]
    keys = floats + exact
    order = np.lexsort(keys) if keys and len(keys[0]) else np.zeros(0, int)
    return [a[order] for a in arrays]


def mismatch(actual: dict, expected: dict) -> str:
    """Why ``actual`` differs from ``expected`` as a row set ('' if not)."""
    if sorted(actual) != sorted(expected):
        return f"columns {sorted(actual)} != {sorted(expected)}"
    names = sorted(expected)
    lengths = {len(actual[name]) for name in names} | \
        {len(expected[name]) for name in names}
    if len(lengths) != 1:
        return f"row counts differ: {sorted(lengths)}"
    for name, got, want in zip(names, _canonical(actual, names),
                               _canonical(expected, names)):
        if want.dtype.kind == "f":
            same = np.allclose(got.astype(np.float64), want,
                               rtol=1e-9, atol=0.0)
        else:
            same = np.array_equal(got.astype(want.dtype), want)
        if not same:
            return f"column {name!r} differs"
    return ""
