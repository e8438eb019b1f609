"""The aggregate hot path against the implementation it replaced.

``_reference_reduce`` and ``_reference_inverse`` are the pre-PR-21
``_reduce_states`` and the tail of ``group_inverse``, kept verbatim:
float-weighted ``bincount`` over a fresh ``np.ones`` for counts, an
unconditional ``astype`` copy per state column, ``_state_fields``
recomputed per chunk.  The operators must return equal columns —
values and dtypes — for counts, sums, min and max over int and float
inputs, with and without groups, and over dictionary-coded keys.
"""

import numpy as np
import pytest

from repro.engine import AggSpec, MergeAggregate, PartialAggregate
from repro.engine.operators import (
    _state_fields,
    group_inverse,
    partial_state_schema,
)
from repro.relational import Chunk, DataType, Schema, standard_catalog


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
    merge = MergeAggregate(chunk.schema, group_by, AGGS, batch=2)
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
