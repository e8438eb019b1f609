"""The aggregate hot path against the implementation it replaced.

``_reference_reduce`` and ``_reference_inverse`` are the pre-PR-21
``_reduce_states`` and the tail of ``group_inverse``, kept verbatim:
float-weighted ``bincount`` over a fresh ``np.ones`` for counts, an
unconditional ``astype`` copy per state column, ``_state_fields``
recomputed per chunk.  The operators must return equal columns —
values and dtypes — for counts, sums, min and max over int and float
inputs, with and without groups, and over dictionary-coded keys.

``_MergeOnArrival`` is the final merge as it was before it held its
state chunks: it merged each chunk when it arrived and merged the
merged chunks again at the end.  The final merge that merges once
must answer bit for bit alike.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AggSpec, MergeAggregate, PartialAggregate
from repro.engine import operators
from repro.engine.operators import (
    _state_fields,
    group_inverse,
    partial_state_schema,
)
from repro.relational import (
    Chunk,
    DataType,
    Encoded,
    Field,
    Schema,
    Table,
    standard_catalog,
)


def _reference_reduce(groups, inverse, chunk, aggs, schema, from_states):
    n_groups = max(1, groups.num_rows) if groups.schema.names else 1
    if groups.schema.names:
        n_groups = groups.num_rows
    columns = dict(groups.columns)
    for name, dtype, source in _state_fields(aggs):
        if from_states:
            values = chunk.column(name)
        elif name.endswith("$cnt"):
            values = np.ones(chunk.num_rows, dtype=np.int64)
        else:
            values = chunk.column(source).astype(np.float64)
        if name.endswith("$min"):
            out = np.full(n_groups, np.inf)
            np.minimum.at(out, inverse, values.astype(np.float64))
        elif name.endswith("$max"):
            out = np.full(n_groups, -np.inf)
            np.maximum.at(out, inverse, values.astype(np.float64))
        else:
            out = np.bincount(inverse, weights=values.astype(np.float64),
                              minlength=n_groups)
            if name.endswith("$cnt"):
                out = out.astype(np.int64)
        columns[name] = out
    return Chunk(schema, columns)


def _reference_inverse(chunk, group_by):
    groups, inverse = group_inverse(chunk, group_by)
    return groups, inverse.astype(np.int64)


AGGS = [AggSpec("count", alias="n"), AggSpec("sum", "i", "si"),
        AggSpec("sum", "f", "sf"), AggSpec("min", "i", "lo"),
        AggSpec("max", "f", "hi"), AggSpec("avg", "f", "mean"),
        AggSpec("count", "i", "ni")]


def _mixed_chunk(rows=997, seed=5):
    rng = np.random.default_rng(seed)
    schema = Schema.of(("g", DataType.INT64), ("h", DataType.INT64),
                       ("i", DataType.INT64), ("f", DataType.FLOAT64))
    return Chunk(schema, {
        "g": rng.integers(0, 13, rows), "h": rng.integers(-3, 3, rows),
        "i": rng.integers(-1000, 1000, rows),
        "f": rng.normal(0.0, 1e6, rows)})


def _same(got: Chunk, want: Chunk):
    assert got.schema.names == want.schema.names
    for name in want.schema.names:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("group_by", [[], ["g"], ["g", "h"]])
def test_partial_and_merge_equal_the_replaced_implementation(group_by):
    chunk = _mixed_chunk()
    schema = partial_state_schema(chunk.schema, group_by, AGGS)
    groups, inverse = _reference_inverse(chunk, group_by)
    want = _reference_reduce(groups, inverse, chunk, AGGS, schema, False)
    partial = PartialAggregate(chunk.schema, group_by, AGGS)
    [emit] = partial.process(chunk)
    _same(emit.chunk, want)
    # A pre-derived state schema changes nothing.
    [again] = PartialAggregate(chunk.schema, group_by, AGGS,
                               state_schema=schema).process(chunk)
    _same(again.chunk, want)
    # Merging states of two chunks: counts stay int64, sums float64.
    other = partial.process(_mixed_chunk(rows=311, seed=6))[0].chunk
    both = Chunk.concat([want, other])
    groups, inverse = _reference_inverse(both, group_by)
    merged_want = _reference_reduce(groups, inverse, both, AGGS, schema,
                                    True)
    merge = MergeAggregate(chunk.schema, group_by, AGGS)
    with mock.patch.object(operators, "MERGE_BATCH", 2):
        assert merge.process(want) == []
        [merged] = merge.process(other)
    _same(merged.chunk, merged_want)


def test_dictionary_coded_group_key_equals_the_replaced_implementation():
    table = standard_catalog(2000).table("lineitem")
    aggs = [AggSpec("count", alias="n"),
            AggSpec("sum", "l_extendedprice", "rev"),
            AggSpec("min", "l_quantity", "lo"),
            AggSpec("max", "l_quantity", "hi")]
    partial = PartialAggregate(table.schema, ["l_returnflag"], aggs)
    checked = 0
    for chunk in table.chunks:
        assert chunk.dict_codes("l_returnflag") is not None
        groups, inverse = _reference_inverse(chunk, ["l_returnflag"])
        want = _reference_reduce(groups, inverse, chunk, aggs,
                                 partial.state_schema, False)
        [emit] = partial.process(chunk)
        _same(emit.chunk, want)
        assert int(emit.chunk.column("n$cnt").sum()) == chunk.num_rows
        checked += 1
    assert checked == 2


def test_group_inverse_returns_int64_row_indices():
    chunk = _mixed_chunk()
    for group_by in ([], ["g"], ["g", "h"]):
        _groups, inverse = group_inverse(chunk, group_by)
        assert inverse.dtype == np.int64 and len(inverse) == chunk.num_rows


class _MergeOnArrival(MergeAggregate):
    """The replaced final merge: merge on arrival, then merge again."""

    def process(self, chunk):
        if chunk.num_rows == 0:
            return []
        self._accumulated.append(self._merge([chunk]))
        return []

    def finish(self):
        if self._accumulated:
            state = self._merge([Chunk.concat(self._accumulated)])
        else:
            state = Chunk.empty(self.state_schema)
        self._accumulated = []
        return [operators.Emit(self._finalize(state))]


def _bits(got: Chunk, want: Chunk):
    assert got.schema.names == want.schema.names
    for name in want.schema.names:
        a, b = got.column(name), want.column(name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


RAW = Schema.of(("g", DataType.INT64), ("i", DataType.INT64),
                ("f", DataType.FLOAT64))
FINAL_AGGS = [AggSpec("sum", "f", "sf"), AggSpec("sum", "i", "si"),
              AggSpec("min", "f", "lo"), AggSpec("max", "f", "hi"),
              AggSpec("avg", "f", "mean"), AggSpec("count", alias="n")]
SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e308,
           -1e308, 5e-324, 0.1, 1e16, 1.0]
floats = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def raw_streams(draw):
    """Chunks of raw rows; keys overlap across chunks or are disjoint."""
    disjoint = draw(st.booleans())
    chunks = []
    for index in range(draw(st.integers(0, 6))):
        rows = draw(st.integers(1, 30))
        base = 10 * index if disjoint else 0
        keys = draw(st.lists(st.integers(base, base + 6), min_size=rows,
                             max_size=rows))
        values = draw(st.lists(floats, min_size=rows, max_size=rows))
        chunks.append(Chunk(RAW, {
            "g": np.array(keys, dtype=np.int64),
            "i": np.array(keys, dtype=np.int64) * 3 - 7,
            "f": np.array(values, dtype=np.float64)}))
    return chunks


def _final(cls, group_by, aggs=FINAL_AGGS):
    output = Schema([RAW.field(g) for g in group_by]
                    + [Field(a.alias, DataType.INT64 if a.op == "count"
                             else DataType.FLOAT64) for a in aggs])
    return cls(RAW, group_by, aggs, final=True, output_schema=output)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(raw_streams(), st.sampled_from([[], ["g"], ["g", "i"]]),
       st.booleans())
def test_final_merge_equals_merge_on_arrival(chunks, group_by, staged):
    partial = PartialAggregate(RAW, group_by, FINAL_AGGS)
    states = [e.chunk for c in chunks for e in partial.process(c)]
    if staged:
        # A non-final merge on the way, as the staged group-by places.
        middle = MergeAggregate(RAW, group_by, FINAL_AGGS)
        with mock.patch.object(operators, "MERGE_BATCH", 2):
            states = [e.chunk for s in states
                      for e in middle.process(s)]
        states += [e.chunk for e in middle.finish()]
    merge, reference = _final(MergeAggregate, group_by), \
        _final(_MergeOnArrival, group_by)
    for state in states:
        assert merge.process(state) == reference.process(state) == []
    [got], [want] = merge.finish(), reference.finish()
    _bits(got.chunk, want.chunk)
    if not group_by:
        assert got.chunk.num_rows == 1


def test_scalar_final_merge_over_empty_and_nonempty_streams():
    for chunks in ([], [Chunk.empty(RAW)], [Chunk(RAW, {
            "g": np.arange(4), "i": np.arange(4),
            "f": np.array([1.5, -0.0, 2.0, 0.25])})]):
        merge, reference = _final(MergeAggregate, []), \
            _final(_MergeOnArrival, [])
        partial = PartialAggregate(RAW, [], FINAL_AGGS)
        for chunk in chunks:
            for emit in partial.process(chunk):
                merge.process(emit.chunk)
                reference.process(emit.chunk)
        [got], [want] = merge.finish(), reference.finish()
        _bits(got.chunk, want.chunk)
        assert got.chunk.column("n").tolist() == \
            [sum(c.num_rows for c in chunks)]


POOL = np.array(["ant", "bee", "cat", "dog", "eel"])
CODED = Schema.of(("k", DataType.STRING, 8), ("v", DataType.FLOAT64))


def _coded_chunks(codes):
    table = Table.from_arrays(CODED, {
        "k": Encoded(np.array(codes), POOL),
        "v": np.arange(len(codes), dtype=np.float64) / 4})
    return table, list(table.chunks)


def _decoded(chunk):
    return Chunk(chunk.schema, {n: chunk.column(n).copy()
                                for n in chunk.schema.names})


def test_coded_keys_group_over_their_pool():
    table, [chunk] = _coded_chunks([3, 0, 1, 4, 2, 2, 0, 3, 1, 4])
    some = chunk.filter(np.isin(chunk.dict_codes("k"), [1, 3]))
    cases = {"all present": chunk, "some absent": some,
             "one row": chunk.take(np.array([7]))}
    for label, case in cases.items():
        assert case.dict_codes("k") is not None, label
        groups, inverse = group_inverse(case, ["k"])
        want_groups, want_inverse = group_inverse(_decoded(case), ["k"])
        assert groups.column("k").tolist() == \
            want_groups.column("k").tolist(), label
        assert groups.column("k").dtype == CODED.field("k").numpy_dtype
        assert inverse.dtype == np.int64, label
        assert np.array_equal(inverse, want_inverse), label


def test_group_and_state_columns_carry_their_schema_dtypes():
    table = standard_catalog(2000).table("lineitem")
    aggs = [AggSpec("count", alias="n"),
            AggSpec("sum", "l_quantity", "q"),
            AggSpec("min", "l_extendedprice", "lo"),
            AggSpec("max", "l_orderkey", "hi")]
    for group_by in ([], ["l_returnflag"], ["l_orderkey"],
                     ["l_returnflag", "l_quantity"]):
        partial = PartialAggregate(table.schema, group_by, aggs)
        merge = MergeAggregate(table.schema, group_by, aggs)
        states = [e.chunk for c in table.chunks
                  for e in partial.process(c)]
        with mock.patch.object(operators, "MERGE_BATCH", 2):
            states += [e.chunk for s in states
                       for e in merge.process(s)]
        states += [e.chunk for e in merge.finish()]
        for state in states:
            for field in state.schema.fields:
                assert state.column(field.name).dtype == \
                    field.numpy_dtype, (group_by, field.name)


def test_coded_partial_builds_no_schema_and_final_groups_once(monkeypatch):
    table = standard_catalog(2000).table("lineitem")
    aggs = [AggSpec("count", alias="n"),
            AggSpec("sum", "l_extendedprice", "rev")]
    partial = PartialAggregate(table.schema, ["l_returnflag"], aggs)
    final = MergeAggregate(
        table.schema, ["l_returnflag"], aggs, final=True,
        output_schema=Schema.of(("l_returnflag", DataType.STRING, 1),
                                ("n", DataType.INT64),
                                ("rev", DataType.FLOAT64)))
    chunks = list(table.chunks)
    built = {"Schema": 0, "Chunk": 0, "group_inverse": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            built[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Schema, "__init__",
                        counting("Schema", Schema.__init__))
    monkeypatch.setattr(Chunk, "__init__", counting("Chunk", Chunk.__init__))
    states = [e.chunk for c in chunks for e in partial.process(c)]
    assert len(states) == len(chunks) == 2
    assert built == {"Schema": 0, "Chunk": 0, "group_inverse": 0}
    monkeypatch.setattr(operators, "group_inverse",
                        counting("group_inverse", operators.group_inverse))
    for state in states:
        assert final.process(state) == []
    assert built["group_inverse"] == 0
    [answer] = final.finish()
    assert built["group_inverse"] == 1
    assert answer.chunk.column("n").sum() == table.num_rows
