"""Physical operators: real, vectorized chunk transformations.

Every operator consumes and produces :class:`~repro.relational.table.Chunk`
objects; the engines wrap them with simulated device time, so the same
implementation runs "on" a storage computational unit, a SmartNIC, a
near-memory accelerator, or a CPU core — only the charged rate differs.
Executors call one method, :meth:`PhysicalOp.run` (:func:`run_chain`
for a list of operators): it returns the emitted chunks and the ordered
``(kind, nbytes)`` device work they cost.  Operators never see the
simulator; the executor replays the charges on the device it chose.

The streaming/stateless-first design mirrors §3.3: filters, projections,
partitioning, and *partial* aggregation are per-chunk (safe to place on
constrained devices); join build, final aggregation and sort carry
state and belong on devices with memory.

The staged group-by of §4.4 is the :class:`PartialAggregate` /
:class:`MergeAggregate` pair: a partial stage collapses duplicates
within each chunk, a merge stage collapses partial states again, and a
final merge (stateful) produces the answer — so a pipeline
``storage.cu -> storage.nic -> compute.nic -> cpu`` each shrinks the
stream that reaches the next stage.

The hash join (:class:`JoinState`) pays for what it reads: the build
side is indexed once — directly addressed when its keys are dense
integers, binary-searched otherwise — and the probe emits a chunk
whose columns are gathered through the match indices when something
downstream first reads them, so payload columns no operator names
are never copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..hardware.device import OpKind
from ..relational.expressions import Expression
from ..relational.schema import DataType, Field, Schema
from ..relational.table import Chunk

__all__ = [
    "Emit",
    "PhysicalOp",
    "run_chain",
    "FilterOp",
    "ProjectOp",
    "MapOp",
    "PartitionOp",
    "PartialAggregate",
    "MergeAggregate",
    "HashJoinBuild",
    "HashJoinProbe",
    "JoinState",
    "SortOp",
    "SortRuns",
    "MergeRuns",
    "merge_sorted",
    "LimitOp",
    "partial_state_schema",
    "group_inverse",
]


@dataclass
class Emit:
    """One output chunk, optionally routed to a numbered partition."""

    chunk: Chunk
    route: Optional[int] = None


class PhysicalOp:
    """Base class: a (possibly stateful) chunk transformer."""

    kind: str = OpKind.GENERIC
    name: str = "op"

    def process(self, chunk: Chunk) -> list[Emit]:
        raise NotImplementedError

    def finish(self) -> list[Emit]:
        """Flush any state at end of stream."""
        return []

    def run(self, chunk: Chunk) -> tuple[list[Emit], list[tuple[str, float]]]:
        """Process ``chunk``; returns ``(emits, charges)``.

        The one method executors call.  ``charges`` is the ordered
        ``(kind, nbytes)`` device work the chunk cost, the operator's
        own charge first; a composite operator (the data-center-tax
        egress that serializes, compresses and encrypts in one pass)
        lists every step.
        """
        nbytes = float(chunk.nbytes)
        return self.process(chunk), [(self.kind, nbytes)]

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


def run_chain(ops: Sequence[PhysicalOp], chunk: Chunk,
              ) -> tuple[list[Emit], list[tuple[str, float]]]:
    """Thread ``chunk`` through ``ops``; returns ``(emits, charges)``.

    The one chain loop every executor shares: each operator runs over
    every emit of the one before it, its charges appended in that
    order, and the walk stops at the operator that empties the stream
    — no later operator is charged for input that never arrived.
    """
    emits = [Emit(chunk)]
    charges: list[tuple[str, float]] = []
    for op in ops:
        produced: list[Emit] = []
        for emit in emits:
            out, cost = op.run(emit.chunk)
            produced += out
            charges += cost
        emits = produced
        if not emits:
            break
    return emits, charges


class FilterOp(PhysicalOp):
    """Apply a predicate; REGEX work if the predicate contains LIKE."""

    def __init__(self, predicate: Expression):
        self.predicate = predicate
        self.kind = predicate.op_kind()
        self.name = f"filter({predicate!r})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        mask = self.predicate.evaluate(chunk)
        out = chunk.filter(np.asarray(mask, dtype=bool))
        if out.num_rows == 0:
            return []
        return [Emit(out)]


class ProjectOp(PhysicalOp):
    """Keep a subset of columns."""

    kind = OpKind.PROJECT

    def __init__(self, columns: Sequence[str]):
        self.columns = list(columns)
        self.name = f"project({','.join(self.columns)})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        return [Emit(chunk.project(self.columns))]


class MapOp(PhysicalOp):
    """Append computed columns (vectorized scalar expressions)."""

    kind = OpKind.PROJECT

    def __init__(self, exprs: dict, output_schema: Schema):
        self.exprs = dict(exprs)
        self.output_schema = output_schema
        self.name = f"map({','.join(self.exprs)})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        columns = dict(chunk.columns)
        for name, expr in self.exprs.items():
            columns[name] = np.asarray(expr.evaluate(chunk),
                                       dtype=np.float64)
        return [Emit(Chunk(self.output_schema, columns))]


class PartitionOp(PhysicalOp):
    """Hash-partition rows by a key column into ``n`` routed outputs.

    This is the exchange operator §4.4 puts on SmartNICs: partitioning
    on the fly so downstream nodes receive co-partitioned streams.
    """

    kind = OpKind.PARTITION

    def __init__(self, key: str, n_partitions: int):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.key = key
        self.n_partitions = n_partitions
        self.name = f"partition({key}, {n_partitions})"

    @staticmethod
    def hash_values(values: np.ndarray, n: int) -> np.ndarray:
        """The shared partition function (build/probe must agree)."""
        mixed = (values.astype(np.int64) * np.int64(0x9E3779B1))
        return (mixed % n + n) % n

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        parts = self.hash_values(chunk.column(self.key), self.n_partitions)
        emits = []
        for p in range(self.n_partitions):
            mask = parts == p
            if mask.any():
                emits.append(Emit(chunk.filter(mask), route=p))
        return emits


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _dense_span(values: np.ndarray, domain: Optional[int] = None,
                ) -> Optional[tuple[int, int]]:
    """``(lo, span)`` when ``values`` are dense integers, else None.

    Dense: integer keys whose value range is comparable to the row
    count (orderkeys, priorities, partition ids, dictionary codes), so
    a table of ``span`` slots addressed by ``value - lo`` beats a sort
    or a binary search.  The one density rule of the module.  Codes
    into a pool of ``domain`` entries span ``[0, domain)``: no min/max.
    """
    n = len(values)
    if n and values.dtype.kind == "i":
        lo = 0 if domain else int(values.min())
        span = domain or int(values.max()) - lo + 1
        if span <= max(1024, 4 * n):
            return lo, span
    return None


def _unique_inverse(values: np.ndarray, domain: Optional[int] = None,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)``, faster for dense ints.

    Dense keys take a counting path: one ``bincount`` plus two gathers
    instead of a sort, and no gather when every slot occurs (the
    offsets are then the inverse).  The outputs are identical — unique
    values ascending, inverse indices into them.
    """
    dense = _dense_span(values, domain)
    if dense is None:
        return np.unique(values, return_inverse=True)
    lo, span = dense
    offsets = values - lo
    present = np.flatnonzero(np.bincount(offsets, minlength=span))
    if len(present) == span:
        return present + lo, offsets
    remap = np.empty(span, dtype=np.int64)
    remap[present] = np.arange(len(present), dtype=np.int64)
    return present + lo, remap[offsets]


#: The group rows of every scalar aggregate's chunks.
_NO_GROUPS = Chunk._from_valid(Schema([]), {})


def group_inverse(chunk: Chunk, group_by: Sequence[str],
                  schema: Optional[Schema] = None,
                  ) -> tuple[Chunk, np.ndarray]:
    """Distinct group rows of a chunk plus each row's group index.

    ``schema`` is the group rows' schema, derived once by an operator
    (default: projected from the chunk's).
    """
    n = chunk.num_rows
    if not group_by:
        return _NO_GROUPS, np.zeros(n, dtype=np.int64)
    schema = schema or chunk.schema.project(group_by)
    if len(group_by) == 1:
        # Single-key fast path: unique over the plain column (sorted
        # ascending, like the structured-record path, so groups and
        # inverse indices are identical) without building records.
        g = group_by[0]
        codes = chunk.dict_codes(g)
        if codes is not None:
            # Dictionary-encoded key: the pool is the key's domain, so
            # one bincount over the narrow codes finds the groups, and
            # just those are decoded.  The pool is sorted, so ascending
            # codes are ascending values — groups and inverse match
            # the decoded path.
            pool = chunk.dict_pool(g)
            unique_codes, inverse = _unique_inverse(codes, len(pool))
            unique = pool[unique_codes]
        else:
            unique, inverse = _unique_inverse(chunk.columns[g])
        return (Chunk._from_valid(schema, {g: unique}),
                inverse.astype(np.int64, copy=False))
    dtype = [(g, chunk.columns[g].dtype) for g in group_by]
    records = np.empty(n, dtype=dtype)
    for g in group_by:
        records[g] = chunk.columns[g]
    unique, inverse = np.unique(records, return_inverse=True)
    groups = Chunk._from_valid(schema, {g: np.ascontiguousarray(unique[g])
                                        for g in group_by})
    return groups, inverse.astype(np.int64, copy=False)


def _state_fields(aggs) -> list[tuple[str, str, str]]:
    """(state column, dtype, source) triples for the partial layout."""
    fields = []
    for agg in aggs:
        if agg.op in ("sum", "avg"):
            fields.append((f"{agg.alias}$sum", DataType.FLOAT64, agg.column))
        if agg.op in ("count", "avg"):
            fields.append((f"{agg.alias}$cnt", DataType.INT64, ""))
        if agg.op == "min":
            fields.append((f"{agg.alias}$min", DataType.FLOAT64, agg.column))
        if agg.op == "max":
            fields.append((f"{agg.alias}$max", DataType.FLOAT64, agg.column))
    # Deduplicate (e.g. several counts share a column).
    seen, unique = set(), []
    for name, dtype, source in fields:
        if name not in seen:
            seen.add(name)
            unique.append((name, dtype, source))
    return unique


def partial_state_schema(input_schema: Schema, group_by: Sequence[str],
                         aggs) -> Schema:
    """Schema of the partial-aggregate state stream."""
    fields = [input_schema.field(g) for g in group_by]
    fields += [Field(name, dtype) for name, dtype, _src in
               _state_fields(aggs)]
    return Schema(fields)


def _reduce_states(groups: Chunk, inverse: np.ndarray, chunk: Chunk,
                   fields, schema: Schema, from_states: bool) -> Chunk:
    """Collapse rows of ``chunk`` into one state row per group.

    ``fields`` is ``_state_fields(aggs)``, derived once per operator;
    every column built here already has its field's dtype.
    """
    n_groups = groups.num_rows if groups.schema.names else 1
    columns = dict(groups.columns)
    for name, dtype, source in fields:
        if name.endswith("$cnt") and not from_states:
            # Counting raw rows: an unweighted integer bincount.
            columns[name] = np.bincount(
                inverse, minlength=n_groups).astype(np.int64, copy=False)
            continue
        values = chunk.column(name if from_states else source).astype(
            np.float64, copy=False)
        if name.endswith("$min"):
            out = np.full(n_groups, np.inf)
            np.minimum.at(out, inverse, values)
        elif name.endswith("$max"):
            out = np.full(n_groups, -np.inf)
            np.maximum.at(out, inverse, values)
        else:
            out = np.bincount(inverse, weights=values, minlength=n_groups)
            if name.endswith("$cnt"):
                out = out.astype(np.int64)
        columns[name] = out
    return Chunk._from_valid(schema, columns)


class PartialAggregate(PhysicalOp):
    """Stateless per-chunk pre-aggregation (raw rows -> state rows)."""

    kind = OpKind.AGGREGATE

    def __init__(self, input_schema: Schema, group_by: Sequence[str],
                 aggs, state_schema: Optional[Schema] = None):
        self.group_by = list(group_by)
        self.aggs = list(aggs)
        # A compiler that builds this operator once per query derives
        # the state schema once per plan and hands it in.
        self.state_schema = state_schema or partial_state_schema(
            input_schema, group_by, aggs)
        self._fields = _state_fields(aggs)
        self._groups = self.state_schema.project(self.group_by)
        self.name = f"partial_agg({','.join(group_by) or '*'})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        groups, inverse = group_inverse(chunk, self.group_by, self._groups)
        state = _reduce_states(groups, inverse, chunk, self._fields,
                               self.state_schema, from_states=False)
        return [Emit(state)]


MERGE_BATCH = 8
"""State chunks a non-final merge coalesces before it merges them:
what makes *chained* merge stages compound (§4.4) while keeping state
bounded, which a NIC can afford."""


class MergeAggregate(PhysicalOp):
    """Merge partial states; final=True holds state and emits the answer.

    Non-final merges are stateless (per-chunk) and idempotent, so they
    can be chained along the data path (§4.4's staged group-by).  A
    final merge keeps the state chunks it receives and merges them
    once, at the end of the stream: each chunk holds a group at most
    once, so every group's sums add in arrival order either way.
    """

    kind = OpKind.AGGREGATE

    def __init__(self, input_schema: Schema, group_by: Sequence[str],
                 aggs, final: bool = False,
                 output_schema: Optional[Schema] = None,
                 expected_groups: Optional[int] = None,
                 state_schema: Optional[Schema] = None):
        self.group_by = list(group_by)
        self.aggs = list(aggs)
        self.state_schema = state_schema or partial_state_schema(
            input_schema, group_by, aggs)
        self._fields = _state_fields(aggs)
        self._groups = self.state_schema.project(self.group_by)
        self.final = final
        self.output_schema = output_schema
        # For final merges on accelerators: a declared bound on the
        # number of groups.  §4.4 allows aggregates with small results
        # to finish on a NIC; the kernel compiler uses this bound to
        # decide whether the state fits an accelerator's table.
        self.expected_groups = expected_groups
        self._accumulated: list[Chunk] = []
        self.name = ("final_agg" if final else "merge_agg") + \
            f"({','.join(group_by) or '*'})"
        if final and output_schema is None:
            raise ValueError("final merge requires an output schema")

    def _merge(self, chunks: list[Chunk]) -> Chunk:
        chunk = Chunk.concat(chunks)
        groups, inverse = group_inverse(chunk, self.group_by, self._groups)
        return _reduce_states(groups, inverse, chunk, self._fields,
                              self.state_schema, from_states=True)

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        self._accumulated.append(chunk)
        if self.final or len(self._accumulated) < MERGE_BATCH:
            return []
        window, self._accumulated = self._accumulated, []
        return [Emit(self._merge(window))]

    def finish(self) -> list[Emit]:
        window, self._accumulated = self._accumulated, []
        if not self.final:
            return [Emit(self._merge(window))] if window else []
        state = (self._merge(window) if window
                 else Chunk.empty(self.state_schema))
        return [Emit(self._finalize(state))]

    def _finalize(self, state: Chunk) -> Chunk:
        n = state.num_rows
        if not self.group_by and n == 0:
            # Scalar aggregate over an empty stream: count 0, sums 0,
            # and no value (NaN) for min and max, as for avg.
            state = Chunk(self.state_schema, {
                f.name: (np.full(1, np.nan)
                         if f.name.endswith(("$min", "$max"))
                         else np.zeros(1, dtype=f.numpy_dtype))
                for f in self.state_schema.fields})
            n = 1
        columns = {g: state.column(g) for g in self.group_by}
        for agg in self.aggs:
            if agg.op == "sum":
                columns[agg.alias] = state.column(f"{agg.alias}$sum")
            elif agg.op == "count":
                columns[agg.alias] = state.column(f"{agg.alias}$cnt")
            elif agg.op == "min":
                columns[agg.alias] = state.column(f"{agg.alias}$min")
            elif agg.op == "max":
                columns[agg.alias] = state.column(f"{agg.alias}$max")
            elif agg.op == "avg":
                sums = state.column(f"{agg.alias}$sum")
                counts = state.column(f"{agg.alias}$cnt")
                with np.errstate(divide="ignore", invalid="ignore"):
                    columns[agg.alias] = np.where(
                        counts > 0, sums / counts, np.nan)
        return Chunk(self.output_schema, columns)


# ---------------------------------------------------------------------------
# Hash join
# ---------------------------------------------------------------------------

class JoinState:
    """Shared build-side state handed from build to probe.

    ``install`` indexes the build side by what it is.  Dense, unique
    integer keys (:func:`_dense_span` — every join of the benchmark
    workloads and paper experiments builds on a primary key) get
    ``row_of``: ``row_of[key - lo]`` is the build row or -1, so a probe
    is one table read.  Everything else — duplicates, sparse, string,
    float keys — gets the build rows in stable key order
    (``sort_order``); a probe key's matches are one run of it, found
    by binary search over ``sorted_keys``.
    """

    def __init__(self):
        self.build_chunk: Optional[Chunk] = None
        self.row_of: Optional[np.ndarray] = None
        self.sorted_keys: Optional[np.ndarray] = None
        self.sort_order: Optional[np.ndarray] = None

    def install(self, chunk: Chunk, key: str) -> None:
        self.build_chunk, self._key = chunk, key
        self.row_of = self.sorted_keys = self.sort_order = None
        keys = chunk.column(key)
        dense = _dense_span(keys)
        if dense is not None:
            lo, span = dense
            row_of = np.full(span, -1, dtype=np.int64)
            row_of[keys - lo] = np.arange(len(keys))
            # Unique iff no build row overwrote another's slot.
            if np.count_nonzero(row_of >= 0) == len(keys):
                self.row_of = row_of
                self._bounds = np.int64(lo), np.int64(lo + span - 1)
                return
        self._sort()

    def _sort(self) -> None:
        keys = self.build_chunk.column(self._key)
        self.sort_order = np.argsort(keys, kind="stable")
        self.sorted_keys = keys[self.sort_order]

    @property
    def ready(self) -> bool:
        return self.build_chunk is not None

    def match(self, probe_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(probe_indices, build_indices) of all equi matches."""
        if self.row_of is not None and probe_keys.dtype.kind == "i":
            # Range test before the subtraction: a probe key outside
            # [lo, hi] — at the type's limits, or of a narrower int
            # type — can neither wrap into the table nor raise.
            lo, hi = self._bounds
            inside = (probe_keys >= lo) & (probe_keys <= hi)
            rows = self.row_of[np.where(inside, probe_keys, lo) - lo]
            probe_idx = np.flatnonzero(inside & (rows >= 0))
            return probe_idx, rows[probe_idx]
        if self.sorted_keys is None:
            # A non-integer probe column against the direct table.
            self._sort()
        left = np.searchsorted(self.sorted_keys, probe_keys, side="left")
        right = np.searchsorted(self.sorted_keys, probe_keys, side="right")
        counts = right - left
        probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
        total = int(counts.sum())
        if total == 0:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        # Ranges [left[i], right[i]) concatenated.
        offsets = np.repeat(right - np.cumsum(counts), counts)
        build_pos = np.arange(total) + offsets
        return probe_idx, self.sort_order[build_pos]


class HashJoinBuild(PhysicalOp):
    """Accumulate the build side; installs state, emits nothing."""

    kind = OpKind.JOIN_BUILD

    def __init__(self, key: str, state: JoinState):
        self.key = key
        self.state = state
        self._chunks: list[Chunk] = []
        self.name = f"join_build({key})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows:
            self._chunks.append(chunk)
        return []

    def finish(self) -> list[Emit]:
        # No rows: install an empty build so probes produce nothing.
        self.state.install(
            Chunk.concat(self._chunks) if self._chunks else
            Chunk.empty(Schema([Field(self.key, DataType.INT64)])),
            self.key)
        self._chunks = []
        return []


class HashJoinProbe(PhysicalOp):
    """Probe the installed build side, streaming joined chunks."""

    kind = OpKind.JOIN_PROBE

    def __init__(self, probe_key: str, state: JoinState,
                 output_schema: Schema, build_rename: dict[str, str]):
        self.probe_key = probe_key
        self.state = state
        self.output_schema = output_schema
        self.build_rename = build_rename
        self.name = f"join_probe({probe_key})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        if not self.state.ready:
            raise RuntimeError("probe before build finished")
        probe_idx, build_idx = self.state.match(chunk.column(self.probe_key))
        if len(probe_idx) == 0:
            return []
        # Late materialisation: an output column is gathered through
        # the match indices when something downstream first reads it,
        # so payload no operator names is never copied.  A build
        # column wins over a probe column of the same output name.
        build = self.state.build_chunk
        probe_rows = chunk.take(probe_idx).columns
        build_rows = build.take(build_idx).columns
        from_build = {self.build_rename.get(name, name): name
                      for name in build.schema.names}

        def produce(name: str) -> np.ndarray:
            source = from_build.get(name)
            return (probe_rows[name] if source is None
                    else build_rows[source])
        return [Emit(Chunk._lazy(self.output_schema, len(probe_idx),
                                 produce))]

    def finish(self) -> list[Emit]:
        # End of stream: drop the index and build chunks (and their
        # decodes) now, not with the graph; emitted output keeps views.
        self.state.__init__()
        return []


# ---------------------------------------------------------------------------
# Sort / limit
# ---------------------------------------------------------------------------

class SortOp(PhysicalOp):
    """Accumulate and sort at end of stream (blocking)."""

    kind = OpKind.SORT

    def __init__(self, keys: Sequence[str]):
        self.keys = list(keys)
        self._chunks: list[Chunk] = []
        self.name = f"sort({','.join(self.keys)})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows:
            self._chunks.append(chunk)
        return []

    def finish(self) -> list[Emit]:
        if not self._chunks:
            return []
        combined = Chunk.concat(self._chunks)
        self._chunks = []
        # lexsort: last key is primary, so reverse.
        order = np.lexsort([combined.column(k)
                            for k in reversed(self.keys)])
        return [Emit(combined.take(order))]


def _sort_key_records(chunk: Chunk, keys: Sequence[str]) -> np.ndarray:
    """The sort keys of a chunk as one comparable structured array."""
    dtype = [(k, chunk.columns[k].dtype) for k in keys]
    records = np.empty(chunk.num_rows, dtype=dtype)
    for k in keys:
        records[k] = chunk.columns[k]
    return records


def merge_sorted(a: Chunk, b: Chunk, keys: Sequence[str]) -> Chunk:
    """Stable merge of two key-sorted chunks (a true linear merge).

    This is the cheap half of pre-sorted execution: runs arrive
    already ordered, so combining them costs a merge, not a sort.
    """
    if a.num_rows == 0:
        return b
    if b.num_rows == 0:
        return a
    ka = _sort_key_records(a, keys)
    kb = _sort_key_records(b, keys)
    # Stable: equal keys keep a-rows (the earlier run) first.
    insert_at = np.searchsorted(ka, kb, side="right")
    total = a.num_rows + b.num_rows
    b_positions = insert_at + np.arange(b.num_rows)
    from_b = np.zeros(total, dtype=bool)
    from_b[b_positions] = True
    columns = {}
    for name in a.schema.names:
        out = np.empty(total, dtype=a.columns[name].dtype)
        out[from_b] = b.columns[name]
        out[~from_b] = a.columns[name]
        columns[name] = out
    return Chunk(a.schema, columns)


class SortRuns(PhysicalOp):
    """Sort each chunk independently: bounded-state run generation.

    §3.3's "pre-sorting ... probably only to parts of the data rather
    than to the entire data set": a storage CU or NIC can sort one
    chunk at a time without holding the stream, emitting sorted runs
    a downstream merge combines cheaply.
    """

    kind = OpKind.SORT

    def __init__(self, keys: Sequence[str]):
        self.keys = list(keys)
        self.name = f"sort_runs({','.join(self.keys)})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        order = np.lexsort([chunk.column(k)
                            for k in reversed(self.keys)])
        return [Emit(chunk.take(order))]


class MergeRuns(PhysicalOp):
    """Merge pre-sorted runs into a total order (stateful, at the CPU).

    The device work is GENERIC (a linear merge), not SORT — the point
    of pre-sorting upstream is exactly that the expensive comparison
    work already happened where the data was.
    """

    kind = OpKind.GENERIC

    def __init__(self, keys: Sequence[str]):
        self.keys = list(keys)
        self._runs: list[Chunk] = []
        self.name = f"merge_runs({','.join(self.keys)})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows:
            self._runs.append(chunk)
        return []

    def finish(self) -> list[Emit]:
        if not self._runs:
            return []
        runs, self._runs = self._runs, []
        # Tournament-style pairwise merging: log(k) passes.
        while len(runs) > 1:
            merged = []
            for i in range(0, len(runs) - 1, 2):
                merged.append(merge_sorted(runs[i], runs[i + 1],
                                           self.keys))
            if len(runs) % 2:
                merged.append(runs[-1])
            runs = merged
        return [Emit(runs[0])]


class LimitOp(PhysicalOp):
    """Pass through the first ``n`` rows."""

    kind = OpKind.GENERIC

    def __init__(self, n: int):
        self.n = n
        self._seen = 0
        self.name = f"limit({n})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if self._seen >= self.n or chunk.num_rows == 0:
            return []
        remaining = self.n - self._seen
        if chunk.num_rows > remaining:
            chunk = chunk.slice(0, remaining)
        self._seen += chunk.num_rows
        return [Emit(chunk)]
