"""Kernel code generation: fused pipelines lowered to flat source.

A :class:`~repro.engine.fusion.FusedOp` runs a whole
Filter/Project/Map(/PartialAggregate) chain as one dispatch per
morsel.  This module supplies what it dispatches to: the pipeline is
lowered **once** to generated Python/numpy source — one flat function,
predicates inlined, schema byte-widths folded to literals, one charge
append per part — compiled per ``(pipeline, entry schema)`` fingerprint
and cached in-process, so the many fabrics and queries of one process
never generate or compile the same kernel twice.  (A cold generate +
``compile()`` costs ~0.4 ms and a process needs one or two kernels, so
nothing is persisted across processes.)

Bit-identity contract
---------------------
A generated kernel must be indistinguishable from the unfused
operators to the simulation: it returns the same chunk values and
appends, to the list ``FusedOp.run`` hands it, the same ``(kind,
nbytes)`` charge sequence ``run_chain`` over the parts would return,
with the same early-exit semantics (a part that empties the stream
stops the charges there).  Byte counts are folded at
generation time as ``rows x row_nbytes`` of the schema entering each
part — exactly what ``Chunk.nbytes`` reports for dense chunks,
selection views, and arena windows alike.  ``REPRO_NO_FUSE=1`` runs
the unfused reference; the regression gate compares both at
``--tolerance 0``.

Cache key derivation
--------------------
``fingerprint = sha256(entry schema sig | part descriptors)`` where
part descriptors embed the full predicate/expression reprs (constants
included), projection column lists, map output schemas, and aggregate
specs — everything the generated source depends on, so any change to
what the pipeline computes or to the shape of its input produces a
different key.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional, Sequence

from ..relational.expressions import (
    And,
    Arith,
    Between,
    Col,
    Compare,
    Const,
    InSet,
    Like,
    Not,
    Or,
)
from ..relational.schema import DataType, Schema
from ..relational.table import Chunk
from .operators import FilterOp, MapOp, PartialAggregate, PhysicalOp, ProjectOp

__all__ = [
    "UnsupportedPipeline",
    "pipeline_fingerprint",
    "generate_source",
    "resolve",
    "cached_source",
    "counters",
    "reset",
    "drain_trace_counters",
]


class UnsupportedPipeline(Exception):
    """The pipeline contains a construct codegen does not lower.

    Raised at generation time and caught by :func:`resolve`;
    :class:`~repro.engine.fusion.FusedOp` then runs ``run_chain`` over
    the pipeline's parts themselves, which support everything.
    """


# ---------------------------------------------------------------------------
# Counters (wall-clock observability; never serialized into records)
# ---------------------------------------------------------------------------

_COUNTER_NAMES = ("compiles", "memory_hits", "unsupported")
_counters = {name: 0 for name in _COUNTER_NAMES}
_drained = {name: 0 for name in _COUNTER_NAMES}


def counters() -> dict[str, int]:
    """A snapshot of the module's cache counters."""
    return dict(_counters)


def drain_trace_counters(trace) -> None:
    """Publish counter deltas since the last drain as trace counters.

    Engines call this at query end; counters land in the trace's
    ``codegen.*`` namespace (visible to ``--explain``/QueryResult),
    never in bench records or checksums, so cold- and warm-cache runs
    stay byte-identical where the regression gate looks.
    """
    for name in _COUNTER_NAMES:
        delta = _counters[name] - _drained[name]
        if delta:
            trace.add(f"codegen.{name}", delta)
            _drained[name] = _counters[name]


def reset() -> None:
    """Clear the in-memory cache and counters (tests only)."""
    _memory.clear()
    for name in _COUNTER_NAMES:
        _counters[name] = 0
        _drained[name] = 0


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

def _schema_sig(schema: Schema) -> str:
    return ";".join(f"{f.name}:{f.dtype}:{f.width}"
                    for f in schema.fields)


def _part_descriptor(part: PhysicalOp) -> str:
    if isinstance(part, FilterOp):
        return f"filter[{part.kind}]:{part.predicate!r}"
    if isinstance(part, ProjectOp):
        return f"project:{','.join(part.columns)}"
    if isinstance(part, MapOp):
        exprs = ";".join(f"{name}={expr!r}"
                         for name, expr in part.exprs.items())
        return f"map:{exprs}|{_schema_sig(part.output_schema)}"
    if isinstance(part, PartialAggregate):
        aggs = ";".join(f"{a.op}:{a.column}:{a.alias}" for a in part.aggs)
        return (f"pagg:{','.join(part.group_by)}|{aggs}"
                f"|{_schema_sig(part.state_schema)}")
    raise UnsupportedPipeline(f"cannot lower part {part.name!r}")


def pipeline_fingerprint(parts: Sequence[PhysicalOp],
                         entry_schema: Schema) -> str:
    """The cache key for one fused pipeline against one input shape.

    Covers the entry schema (names, dtypes, widths) and the complete
    part descriptors — predicates with their constants, projection
    lists, map expressions and output schemas, aggregate specs.
    """
    digest = hashlib.sha256()
    digest.update(f"schema={_schema_sig(entry_schema)}\x1e".encode())
    for part in parts:
        digest.update(_part_descriptor(part).encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


def schema_chain(parts: Sequence[PhysicalOp],
                 entry_schema: Schema) -> list[Schema]:
    """Schemas at each step boundary: ``chain[i]`` enters part ``i``.

    ``chain[len(parts)]`` is the pipeline's output schema.  The chain
    is derived deterministically from the parts, so a kernel taken
    from the cache binds to the same schemas the generator saw.
    """
    chain = [entry_schema]
    current = entry_schema
    for part in parts:
        if isinstance(part, FilterOp):
            pass
        elif isinstance(part, ProjectOp):
            current = current.project(part.columns)
        elif isinstance(part, MapOp):
            current = part.output_schema
        elif isinstance(part, PartialAggregate):
            current = part.state_schema
        else:
            raise UnsupportedPipeline(f"cannot lower part {part.name!r}")
        chain.append(current)
    return chain


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------

def _literal(value) -> str:
    """A python literal for a constant, or raise UnsupportedPipeline."""
    if isinstance(value, bool) or isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise UnsupportedPipeline(f"non-finite literal {value!r}")
        return repr(value)
    raise UnsupportedPipeline(f"unsupported literal {value!r}")


class _Writer:
    """Indented line accumulator for the generated module."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _KernelGen:
    """Lowers one fused pipeline into a self-contained module body.

    The generated module defines ``make_kernel(Chunk, schemas,
    terminal)`` returning ``kernel(chunk, charges)`` (``charges`` is
    always a list, already holding the first part's charge);
    everything the hot path touches — column names, dtype byte widths,
    predicate constants, LIKE regexes, charge kinds — is folded into
    the source as literals, so per-chunk execution is straight-line
    numpy with no dispatch, no intermediate chunks, and no tree walks.
    """

    def __init__(self, parts: Sequence[PhysicalOp], entry_schema: Schema):
        self.parts = list(parts)
        self.chain = schema_chain(parts, entry_schema)
        self.w = _Writer()
        self.prelude = _Writer()       # make_kernel-level constants
        self.temp = 0                  # temp-variable counter
        self.like_count = 0
        self.sel_var: Optional[str] = None
        self.rows_var = "n0"
        self.base_var = "base0"
        self.base_names: Optional[list[str]] = None
        self.origin_entry = True       # base still the entry columns
        self.col_cache: dict[str, str] = {}
        self.schema_refs: set[int] = set()

    # -- small helpers -----------------------------------------------------

    def fresh(self, prefix: str = "t") -> str:
        self.temp += 1
        return f"{prefix}{self.temp}"

    def schema_ref(self, index: int) -> str:
        self.schema_refs.add(index)
        return f"s{index}"

    def read_col(self, name: str, schema: Schema) -> str:
        """The variable holding column ``name`` at the current step."""
        if name not in schema:
            raise UnsupportedPipeline(
                f"column {name!r} not in pipeline schema")
        var = self.col_cache.get(name)
        if var is None:
            var = self.fresh("c")
            if self.sel_var is None:
                self.w.emit(f"{var} = {self.base_var}[{name!r}]")
            else:
                self.w.emit(
                    f"{var} = {self.base_var}[{name!r}][{self.sel_var}]")
            self.col_cache[name] = var
        return var

    # -- expression lowering ----------------------------------------------

    _CMP = {"==": "np.equal", "!=": "np.not_equal", "<": "np.less",
            "<=": "np.less_equal", ">": "np.greater",
            ">=": "np.greater_equal"}
    _ARI = {"+": "np.add", "-": "np.subtract", "*": "np.multiply",
            "/": "np.divide"}

    def expr_src(self, expr, schema: Schema) -> str:
        """Lower an expression tree to a source fragment.

        Mirrors ``Expression.evaluate`` node for node: Const
        operands of binary ops bind as raw scalars, Between evaluates
        its operand once, LIKE matches dictionary pools when the
        column is encoded.  Statements (column loads, temps) are
        emitted in place; the returned string is the value.
        """
        kind = type(expr)
        if kind is Col:
            return self.read_col(expr.name, schema)
        if kind is Const:
            return f"np.full({self.rows_var}, {_literal(expr.value)})"
        if kind in (Compare, Arith):
            ops = self._CMP if kind is Compare else self._ARI
            fn = ops[expr.op]
            left, right = expr.left, expr.right
            if type(right) is Const and type(left) is not Const:
                return (f"{fn}({self.expr_src(left, schema)}, "
                        f"{_literal(right.value)})")
            if type(left) is Const and type(right) is not Const:
                return (f"{fn}({_literal(left.value)}, "
                        f"{self.expr_src(right, schema)})")
            return (f"{fn}({self.expr_src(left, schema)}, "
                    f"{self.expr_src(right, schema)})")
        if kind is And:
            return (f"np.logical_and({self.expr_src(expr.left, schema)}, "
                    f"{self.expr_src(expr.right, schema)})")
        if kind is Or:
            return (f"np.logical_or({self.expr_src(expr.left, schema)}, "
                    f"{self.expr_src(expr.right, schema)})")
        if kind is Not:
            return f"np.logical_not({self.expr_src(expr.operand, schema)})"
        if kind is Between:
            operand = self.expr_src(expr.operand, schema)
            var = operand
            if not operand.isidentifier():
                var = self.fresh()
                self.w.emit(f"{var} = {operand}")
            if type(expr.low) is Const and type(expr.high) is Const:
                lo = _literal(expr.low.value)
                hi = _literal(expr.high.value)
            else:
                lo = self.expr_src(expr.low, schema)
                hi = self.expr_src(expr.high, schema)
            return (f"np.logical_and(np.greater_equal({var}, {lo}), "
                    f"np.less_equal({var}, {hi}))")
        if kind is InSet:
            values = "[" + ", ".join(_literal(v) for v in expr.values) + "]"
            return f"np.isin({self.expr_src(expr.operand, schema)}, {values})"
        if kind is Like:
            return self.like_src(expr, schema)
        raise UnsupportedPipeline(
            f"unsupported expression node {type(expr).__name__}")

    def like_src(self, expr: Like, schema: Schema) -> str:
        """Lower a LIKE: pool-mask fast path plus row-wise fallback."""
        index = self.like_count
        self.like_count += 1
        matcher = f"_m{index}"
        cache = f"_pm{index}"
        self.prelude.emit(
            f"{matcher} = re.compile({expr._compiled.pattern!r}).match")
        self.prelude.emit(f"{cache} = {{}}")
        out = self.fresh("lk")
        operand = expr.operand
        if (type(operand) is Col and self.origin_entry
                and schema.field(operand.name).dtype == DataType.STRING):
            name = operand.name
            codes = self.fresh("cd")
            self.w.emit(f"{codes} = chunk.dict_codes({name!r})")
            self.w.emit(f"if {codes} is not None:")
            self.w.indent += 1
            pool = self.fresh("pl")
            self.w.emit(f"{pool} = chunk.dict_pool({name!r})")
            self.w.emit(f"_e = {cache}.get(id({pool}))")
            self.w.emit(f"if _e is None or _e[0] is not {pool}:")
            self.w.emit(f"    _pmask = _like_mask({pool}, {matcher})")
            self.w.emit(f"    {cache}[id({pool})] = ({pool}, _pmask)")
            self.w.emit("else:")
            self.w.emit("    _pmask = _e[1]")
            if self.sel_var is None:
                self.w.emit(f"{out} = _pmask[{codes}]")
            else:
                self.w.emit(f"{out} = _pmask[{codes}[{self.sel_var}]]")
            self.w.indent -= 1
            self.w.emit("else:")
            self.w.indent += 1
            # Plain column: match row-wise on the gathered values.
            # The load is not cached — it only exists on this branch.
            if self.sel_var is None:
                src = f"{self.base_var}[{name!r}]"
            else:
                src = f"{self.base_var}[{name!r}][{self.sel_var}]"
            self.w.emit(f"{out} = _like_mask({src}, {matcher})")
            self.w.indent -= 1
            return out
        src = self.expr_src(operand, schema)
        self.w.emit(f"{out} = _like_mask({src}, {matcher})")
        return out

    # -- per-part lowering -------------------------------------------------

    def charge(self, index: int) -> None:
        """Replay part ``index``'s (kind, nbytes) charge (index >= 1)."""
        part = self.parts[index]
        row_nbytes = self.chain[index].row_nbytes
        self.w.emit(f"charges.append(({part.kind!r}, "
                    f"float({self.rows_var} * {row_nbytes})))")

    def lower_filter(self, index: int, part: FilterOp) -> None:
        schema = self.chain[index]
        mask_src = self.expr_src(part.predicate, schema)
        mask = self.fresh("m")
        self.w.emit(f"{mask} = np.asarray({mask_src}, dtype=bool)")
        new_sel = self.fresh("sel")
        if self.sel_var is None:
            self.w.emit(f"{new_sel} = np.flatnonzero({mask})")
        else:
            self.w.emit(f"{new_sel} = {self.sel_var}[{mask}]")
        rows = self.fresh("n")
        self.w.emit(f"{rows} = len({new_sel})")
        self.w.emit(f"if {rows} == 0:")
        self.w.emit("    return None")
        self.sel_var = new_sel
        self.rows_var = rows
        # Cached column vars are in the old row space; re-gather from
        # the base under the composed selection on next read (the same
        # cost a selection view pays).
        self.col_cache.clear()

    def lower_map(self, index: int, part: MapOp) -> None:
        schema = self.chain[index]
        out_schema = self.chain[index + 1]
        if set(out_schema.names) != set(schema.names) | set(part.exprs):
            raise UnsupportedPipeline("map output schema mismatch")
        mapped: dict[str, str] = {}
        for name, expr in part.exprs.items():
            field = out_schema.field(name)
            if field.dtype != DataType.FLOAT64:
                raise UnsupportedPipeline(
                    f"map output {name!r} is not float64")
            var = self.fresh("mv")
            src = self.expr_src(expr, schema)
            self.w.emit(f"{var} = np.asarray({src}, dtype=np.float64)")
            mapped[name] = var
        for name in schema.names:
            if name not in mapped:
                out_field = out_schema.field(name)
                if out_field != schema.field(name):
                    raise UnsupportedPipeline(
                        f"map changes passthrough column {name!r}")
        entries = []
        cache: dict[str, str] = {}
        for name in out_schema.names:
            var = mapped.get(name)
            if var is None:
                var = self.read_col(name, schema)
            entries.append(f"{name!r}: {var}")
            cache[name] = var
        base = self.fresh("base")
        self.w.emit(f"{base} = {{" + ", ".join(entries) + "}")
        self.base_var = base
        self.base_names = list(out_schema.names)
        self.sel_var = None
        self.origin_entry = False
        self.col_cache = cache

    def current_chunk_src(self, index: int) -> str:
        """Source for the chunk entering step ``index`` as an object."""
        schema = self.chain[index]
        ref = self.schema_ref(index)
        if self.sel_var is not None:
            return f"Chunk._view({ref}, {self.base_var}, {self.sel_var})"
        if self.origin_entry:
            if schema.names == self.chain[0].names:
                return "chunk"
            names = ", ".join(repr(n) for n in schema.names)
            return f"chunk.project([{names}])"
        if schema.names == self.base_names:
            return f"Chunk._from_valid({ref}, {self.base_var})"
        entries = ", ".join(
            f"{n!r}: {self.read_col(n, schema)}" for n in schema.names)
        return f"Chunk._from_valid({ref}, {{{entries}}})"

    def lower_terminal(self, index: int, part: PartialAggregate) -> None:
        cur = self.fresh("cur")
        self.w.emit(f"{cur} = {self.current_chunk_src(index)}")
        self.w.emit(f"emits = terminal.process({cur})")
        self.w.emit("if not emits:")
        self.w.emit("    return None")
        self.w.emit("return emits[0].chunk")

    def lower_output(self) -> None:
        """Emit the stream-final return (no terminal part)."""
        index = len(self.parts)
        self.w.emit(f"return {self.current_chunk_src(index)}")

    # -- assembly ----------------------------------------------------------

    def generate(self) -> str:
        parts = self.parts
        pipeline = " -> ".join(type(p).__name__ for p in parts)
        body = self.w
        body.indent = 1
        body.emit("def kernel(chunk, charges):")
        body.indent = 2
        body.emit("n0 = chunk.num_rows")
        body.emit("if n0 == 0:")
        body.emit("    return None")
        body.emit("base0 = chunk.columns")
        for index, part in enumerate(parts):
            if index:
                self.charge(index)
            if isinstance(part, FilterOp):
                self.lower_filter(index, part)
            elif isinstance(part, ProjectOp):
                pass  # schema-only: tracked in the chain
            elif isinstance(part, MapOp):
                self.lower_map(index, part)
            elif isinstance(part, PartialAggregate):
                if index != len(parts) - 1:
                    raise UnsupportedPipeline(
                        "aggregate must terminate the pipeline")
                self.lower_terminal(index, part)
            else:
                raise UnsupportedPipeline(
                    f"cannot lower part {part.name!r}")
        if not isinstance(parts[-1], PartialAggregate):
            self.lower_output()
        body.indent = 1
        body.emit("return kernel")

        out = _Writer()
        out.emit(f"# pipeline: {pipeline}")
        out.emit("# Generated by repro.engine.codegen - do not edit.")
        out.emit("import re")
        out.emit()
        out.emit("import numpy as np")
        out.emit()
        out.emit()
        out.emit("def _like_mask(values, match):")
        out.emit("    data = values.tolist()")
        out.emit("    return np.fromiter(")
        out.emit("        (match(str(v)) is not None for v in data),")
        out.emit("        dtype=bool, count=len(data))")
        out.emit()
        out.emit()
        out.emit("def make_kernel(Chunk, schemas, terminal):")
        out.indent = 1
        for index in sorted(self.schema_refs):
            out.emit(f"s{index} = schemas[{index}]")
        for line in self.prelude.lines:
            out.emit(line)
        out.indent = 0
        return out.source() + self.w.source()


def generate_source(parts: Sequence[PhysicalOp],
                    entry_schema: Schema) -> str:
    """The generated module body for one pipeline (header excluded)."""
    return _KernelGen(parts, entry_schema).generate()


# ---------------------------------------------------------------------------
# In-process cache
# ---------------------------------------------------------------------------

#: fingerprint -> (body, exec'd module namespace)
_memory: dict[str, tuple[str, dict]] = {}


def _exec_body(fingerprint: str, body: str) -> dict:
    namespace: dict = {}
    code = compile(body, f"<repro-kernel {fingerprint[:12]}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated source
    return namespace


def resolve(parts: Sequence[PhysicalOp], entry_schema: Schema):
    """Resolve (kernel, origin, fingerprint) for one fused pipeline.

    ``origin`` is ``"memory"`` (cache hit), ``"compiled"`` (fresh
    generate + compile) or ``"unsupported"``: the pipeline contains a
    construct codegen does not lower, ``kernel`` and ``fingerprint``
    are None, and the caller runs the parts themselves.
    """
    try:
        fingerprint = pipeline_fingerprint(parts, entry_schema)
        if fingerprint in _memory:
            origin = "memory"
            _counters["memory_hits"] += 1
        else:
            body = generate_source(parts, entry_schema)
            _memory[fingerprint] = (body, _exec_body(fingerprint, body))
            origin = "compiled"
            _counters["compiles"] += 1
    except UnsupportedPipeline:
        _counters["unsupported"] += 1
        return None, "unsupported", None
    terminal = parts[-1] if isinstance(parts[-1], PartialAggregate) else None
    schemas = schema_chain(parts, entry_schema)
    kernel = _memory[fingerprint][1]["make_kernel"](Chunk, schemas, terminal)
    return kernel, origin, fingerprint


def cached_source(fingerprint: str) -> Optional[str]:
    """The cached source body for a fingerprint, if resolved."""
    cached = _memory.get(fingerprint)
    return cached[0] if cached is not None else None
