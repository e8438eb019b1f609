"""Vectorized expression trees for predicates and projections.

Expressions evaluate against a :class:`~repro.relational.table.Chunk`
and return a numpy array.  They also self-describe for the optimizer:
``required_columns`` feeds projection pushdown, ``op_kind`` tells the
placement layer whether a device needs FILTER or REGEX capability
(LIKE predicates are regex work — the AQUA example of §3.3), and
``estimate_selectivity`` supports the movement cost model.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

import numpy as np

from ..hardware.device import OpKind
from .table import Chunk

__all__ = [
    "Expression",
    "Col",
    "Const",
    "Compare",
    "Arith",
    "And",
    "Or",
    "Not",
    "Like",
    "Between",
    "InSet",
    "col",
    "lit",
]


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regex for a SQL LIKE pattern (shared per pattern).

    Cached at module level so the many places that build a fresh
    :class:`Like` for the same pattern — one per operator instance,
    plus the kernel compiler sizing its automaton in
    :mod:`repro.engine.kernels` — share one compile.
    """
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$")


class Expression:
    """Base class for all expression nodes.

    ``evaluate`` walks the tree per chunk.  It is the one interpreter:
    lone operators and the unfused reference path call it, and the
    kernels :mod:`repro.engine.codegen` generates must return arrays
    equal to it in value and dtype.
    """

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        raise NotImplementedError

    def required_columns(self) -> set[str]:
        raise NotImplementedError

    def op_kind(self) -> str:
        """The device capability this expression needs (FILTER/REGEX)."""
        return OpKind.FILTER

    def estimate_selectivity(self, stats: Optional[dict] = None) -> float:
        """Fraction of rows expected to pass (predicates only)."""
        return 1.0

    # -- operator sugar ---------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        return Compare("==", self, _wrap(other))

    def __ne__(self, other):  # type: ignore[override]
        return Compare("!=", self, _wrap(other))

    def __lt__(self, other):
        return Compare("<", self, _wrap(other))

    def __le__(self, other):
        return Compare("<=", self, _wrap(other))

    def __gt__(self, other):
        return Compare(">", self, _wrap(other))

    def __ge__(self, other):
        return Compare(">=", self, _wrap(other))

    def __add__(self, other):
        return Arith("+", self, _wrap(other))

    def __sub__(self, other):
        return Arith("-", self, _wrap(other))

    def __mul__(self, other):
        return Arith("*", self, _wrap(other))

    def __truediv__(self, other):
        return Arith("/", self, _wrap(other))

    def __and__(self, other):
        return And(self, _wrap(other))

    def __or__(self, other):
        return Or(self, _wrap(other))

    def __invert__(self):
        return Not(self)

    def __hash__(self):
        return id(self)

    def like(self, pattern: str) -> "Like":
        """SQL LIKE with ``%`` and ``_`` wildcards."""
        return Like(self, pattern)

    def between(self, low, high) -> "Between":
        """Inclusive range predicate."""
        return Between(self, low, high)

    def isin(self, values) -> "InSet":
        """Membership predicate."""
        return InSet(self, values)


def _wrap(value) -> "Expression":
    return value if isinstance(value, Expression) else Const(value)


class Col(Expression):
    """A column reference."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        return chunk.columns[self.name]

    def required_columns(self) -> set[str]:
        return {self.name}

    def __repr__(self):
        return f"col({self.name!r})"


class Const(Expression):
    """A literal value, broadcast across the chunk."""

    def __init__(self, value):
        self.value = value

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        return np.full(chunk.num_rows, self.value)

    def required_columns(self) -> set[str]:
        return set()

    def __repr__(self):
        return f"lit({self.value!r})"


class _BinaryOp(Expression):
    """``left <op> right`` through the numpy ufunc ``_OPS[op]``."""

    _OPS: dict = {}

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in self._OPS:
            raise ValueError(
                f"unknown {type(self).__name__.lower()} op {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        # A lone Const operand is passed as a python scalar, not as the
        # ``np.full`` array its own ``evaluate`` builds: numpy then
        # keeps the column's dtype (``int32 + 1`` stays int32), which
        # is also what the generated kernels do.  Both-const stays on
        # the array path so the output keeps the chunk's row count.
        ufunc, left, right = self._OPS[self.op], self.left, self.right
        if isinstance(right, Const) and not isinstance(left, Const):
            return ufunc(left.evaluate(chunk), right.value)
        if isinstance(left, Const) and not isinstance(right, Const):
            return ufunc(left.value, right.evaluate(chunk))
        return ufunc(left.evaluate(chunk), right.evaluate(chunk))

    def required_columns(self) -> set[str]:
        return self.left.required_columns() | self.right.required_columns()

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class Compare(_BinaryOp):
    """A comparison producing a boolean mask."""

    _OPS = {
        "==": np.equal, "!=": np.not_equal, "<": np.less,
        "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
    }

    def estimate_selectivity(self, stats: Optional[dict] = None) -> float:
        # Range predicates over known min/max interpolate; equality
        # uses 1/distinct; otherwise textbook defaults.
        if isinstance(self.left, Col) and isinstance(self.right, Const) \
                and stats and self.left.name in stats:
            cstats = stats[self.left.name]
            lo, hi = cstats.get("min"), cstats.get("max")
            value = self.right.value
            if self.op == "==":
                distinct = cstats.get("distinct", 0)
                return 1.0 / distinct if distinct else 0.1
            if lo is not None and hi is not None and hi > lo \
                    and isinstance(value, (int, float)):
                frac = (value - lo) / (hi - lo)
                frac = min(max(frac, 0.0), 1.0)
                if self.op in ("<", "<="):
                    return frac
                if self.op in (">", ">="):
                    return 1.0 - frac
        return {"==": 0.1, "!=": 0.9}.get(self.op, 0.33)


class Arith(_BinaryOp):
    """Element-wise arithmetic."""

    _OPS = {"+": np.add, "-": np.subtract, "*": np.multiply,
            "/": np.divide}


class And(Expression):
    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        return np.logical_and(self.left.evaluate(chunk),
                              self.right.evaluate(chunk))

    def required_columns(self) -> set[str]:
        return self.left.required_columns() | self.right.required_columns()

    def op_kind(self) -> str:
        kinds = {self.left.op_kind(), self.right.op_kind()}
        return OpKind.REGEX if OpKind.REGEX in kinds else OpKind.FILTER

    def estimate_selectivity(self, stats: Optional[dict] = None) -> float:
        return (self.left.estimate_selectivity(stats)
                * self.right.estimate_selectivity(stats))

    def __repr__(self):
        return f"({self.left!r} & {self.right!r})"


class Or(Expression):
    def __init__(self, left: Expression, right: Expression):
        self.left = left
        self.right = right

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        return np.logical_or(self.left.evaluate(chunk),
                             self.right.evaluate(chunk))

    def required_columns(self) -> set[str]:
        return self.left.required_columns() | self.right.required_columns()

    def op_kind(self) -> str:
        kinds = {self.left.op_kind(), self.right.op_kind()}
        return OpKind.REGEX if OpKind.REGEX in kinds else OpKind.FILTER

    def estimate_selectivity(self, stats: Optional[dict] = None) -> float:
        a = self.left.estimate_selectivity(stats)
        b = self.right.estimate_selectivity(stats)
        return min(1.0, a + b - a * b)

    def __repr__(self):
        return f"({self.left!r} | {self.right!r})"


class Not(Expression):
    def __init__(self, operand: Expression):
        self.operand = operand

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        return np.logical_not(self.operand.evaluate(chunk))

    def required_columns(self) -> set[str]:
        return self.operand.required_columns()

    def op_kind(self) -> str:
        return self.operand.op_kind()

    def estimate_selectivity(self, stats: Optional[dict] = None) -> float:
        return 1.0 - self.operand.estimate_selectivity(stats)

    def __repr__(self):
        return f"~{self.operand!r}"


class Like(Expression):
    """SQL LIKE pattern matching — REGEX work for the device model.

    The regex is derived once in ``__init__`` (through the module's
    shared pattern cache) and reused for every chunk.
    """

    def __init__(self, operand: Expression, pattern: str):
        self.operand = operand
        self.pattern = pattern
        self._compiled = _like_regex(pattern)
        #: id(pool) -> (pool, per-entry verdicts); see ``evaluate``.
        self._pool_masks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _match(self, values: np.ndarray) -> np.ndarray:
        match = self._compiled.match
        # tolist() converts to python scalars in one pass, which is
        # much cheaper than per-element numpy indexing.
        data = values.tolist()
        return np.fromiter((match(str(v)) is not None for v in data),
                           dtype=bool, count=len(data))

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        operand = self.operand
        codes = (chunk.dict_codes(operand.name)
                 if isinstance(operand, Col) else None)
        if codes is None:
            return self._match(operand.evaluate(chunk))
        # Dictionary-encoded arena column: match the regex against the
        # (small, shared) pool once, then gather the boolean verdicts
        # by code — identical values, one regex per distinct string
        # instead of one per row.  The per-pool mask is cached; holding
        # the pool in the cache entry keeps its id stable, so the
        # identity check is exact.
        pool = chunk.dict_pool(operand.name)
        entry = self._pool_masks.get(id(pool))
        if entry is None or entry[0] is not pool:
            entry = (pool, self._match(pool))
            self._pool_masks[id(pool)] = entry
        return entry[1][codes]

    def required_columns(self) -> set[str]:
        return self.operand.required_columns()

    def op_kind(self) -> str:
        return OpKind.REGEX

    def estimate_selectivity(self, stats: Optional[dict] = None) -> float:
        return 0.05 if not self.pattern.startswith("%") else 0.1

    def __repr__(self):
        return f"{self.operand!r}.like({self.pattern!r})"


class Between(Expression):
    """Inclusive range predicate, decomposed for estimation."""

    def __init__(self, operand: Expression, low, high):
        self.operand = operand
        self.low = _wrap(low)
        self.high = _wrap(high)

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        values = self.operand.evaluate(chunk)    # once, for both bounds
        low, high = self.low, self.high
        if isinstance(low, Const) and isinstance(high, Const):
            # Literal bounds bind raw, as in ``_BinaryOp.evaluate``.
            return np.logical_and(values >= low.value,
                                  values <= high.value)
        return np.logical_and(values >= low.evaluate(chunk),
                              values <= high.evaluate(chunk))

    def required_columns(self) -> set[str]:
        return (self.operand.required_columns()
                | self.low.required_columns()
                | self.high.required_columns())

    def estimate_selectivity(self, stats: Optional[dict] = None) -> float:
        if isinstance(self.operand, Col) and isinstance(self.low, Const) \
                and isinstance(self.high, Const) and stats \
                and self.operand.name in stats:
            cstats = stats[self.operand.name]
            lo, hi = cstats.get("min"), cstats.get("max")
            if lo is not None and hi is not None and hi > lo:
                frac = (self.high.value - self.low.value) / (hi - lo)
                return min(max(frac, 0.0), 1.0)
        return 0.25

    def __repr__(self):
        return f"{self.operand!r}.between({self.low!r}, {self.high!r})"


class InSet(Expression):
    """Membership in a fixed value set."""

    def __init__(self, operand: Expression, values):
        self.operand = operand
        self.values = list(values)

    def evaluate(self, chunk: Chunk) -> np.ndarray:
        return np.isin(self.operand.evaluate(chunk), self.values)

    def required_columns(self) -> set[str]:
        return self.operand.required_columns()

    def estimate_selectivity(self, stats: Optional[dict] = None) -> float:
        if isinstance(self.operand, Col) and stats \
                and self.operand.name in stats:
            distinct = stats[self.operand.name].get("distinct", 0)
            if distinct:
                return min(1.0, len(self.values) / distinct)
        return min(1.0, 0.1 * len(self.values))

    def __repr__(self):
        return f"{self.operand!r}.isin({self.values!r})"


def col(name: str) -> Col:
    """Shorthand column reference: ``col("price") > 10``."""
    return Col(name)


def lit(value) -> Const:
    """Shorthand literal."""
    return Const(value)
