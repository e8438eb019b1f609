"""Zone maps: per-chunk min/max pruning (§2.1).

The paper notes that cloud-native engines use zone maps (where
conventional engines used indexes) "to fetch as little data as
possible".  A :class:`ZoneMap` records min/max per numeric column per
chunk; :func:`may_match` conservatively decides whether a chunk can
contain rows satisfying a predicate, and scans skip chunks that
cannot.

Pruning is *sound* (never skips a chunk that could match): integer
bounds are exact Python ints (a float would round ``2**53 + 1``), and
a float column zone holding a NaN records no bounds (every comparison
with NaN refutes, yet ``nan != x`` holds).  It is only
*effective* when data is clustered on the filtered column — the
classic behaviour bench E1 demonstrates: sorted data prunes to
~selectivity, shuffled data prunes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expressions import (
    And,
    Between,
    Col,
    Compare,
    Const,
    Expression,
    InSet,
    Not,
    Or,
)
from .schema import DataType
from .table import Table

__all__ = ["ZoneMap", "may_match", "prunable_chunks"]


@dataclass
class ZoneMap:
    """Min/max bounds per chunk for every numeric column."""

    zones: list[dict[str, tuple]] = field(default_factory=list)

    @classmethod
    def build(cls, table: Table) -> "ZoneMap":
        numeric = [f.name for f in table.schema.fields
                   if f.dtype in (DataType.INT64, DataType.FLOAT64)]
        zones = []
        for chunk in table.chunks:
            zone = {}
            for name in numeric if chunk.num_rows else ():
                # Off the stored (narrow) buffer: nothing is widened.
                values = chunk.stored(name)
                lo, hi = values.min().item(), values.max().item()
                if not np.isnan(lo):            # min() propagates NaN
                    zone[name] = (lo, hi)
            zones.append(zone)
        return cls(zones)

    def __len__(self) -> int:
        return len(self.zones)

    def bounds(self, chunk_index: int,
               column: str) -> Optional[tuple]:
        zone = self.zones[chunk_index]
        return zone.get(column)


def may_match(zone: dict[str, tuple],
              expr: Expression) -> bool:
    """Conservatively: could any row in this zone satisfy ``expr``?

    Unknown constructs answer True (no pruning) — soundness first.
    """
    if isinstance(expr, Compare):
        if isinstance(expr.left, Col) and isinstance(expr.right, Const):
            bounds = zone.get(expr.left.name)
            value = expr.right.value
            if bounds is None or not isinstance(value, (int, float)):
                return True
            lo, hi = bounds
            if expr.op == "==":
                return lo <= value <= hi
            if expr.op == "!=":
                return not (lo == hi == value)
            if expr.op == "<":
                return lo < value
            if expr.op == "<=":
                return lo <= value
            if expr.op == ">":
                return hi > value
            if expr.op == ">=":
                return hi >= value
        return True
    if isinstance(expr, Between):
        if isinstance(expr.operand, Col) \
                and isinstance(expr.low, Const) \
                and isinstance(expr.high, Const):
            bounds = zone.get(expr.operand.name)
            if bounds is None:
                return True
            lo, hi = bounds
            return not (hi < expr.low.value or lo > expr.high.value)
        return True
    if isinstance(expr, InSet):
        if isinstance(expr.operand, Col):
            bounds = zone.get(expr.operand.name)
            if bounds is None:
                return True
            lo, hi = bounds
            return any(isinstance(v, (int, float)) and lo <= v <= hi
                       for v in expr.values) or \
                any(not isinstance(v, (int, float))
                    for v in expr.values)
        return True
    if isinstance(expr, And):
        return may_match(zone, expr.left) and may_match(zone, expr.right)
    if isinstance(expr, Or):
        return may_match(zone, expr.left) or may_match(zone, expr.right)
    if isinstance(expr, Not):
        # Correct refutation of a negation needs must-match analysis;
        # stay conservative.
        return True
    return True


def prunable_chunks(zonemap: ZoneMap, predicate: Expression) -> set[int]:
    """Chunk indices that provably contain no matching rows."""
    return {index for index, zone in enumerate(zonemap.zones)
            if not may_match(zone, predicate)}
