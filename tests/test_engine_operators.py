"""Tests for physical operators against naive Python oracles."""

from unittest import mock

import numpy as np
import pytest

from repro.engine import operators
from repro.engine.logical import AggSpec
from repro.engine.operators import (
    FilterOp,
    HashJoinBuild,
    HashJoinProbe,
    JoinState,
    LimitOp,
    MapOp,
    MergeAggregate,
    PartialAggregate,
    PartitionOp,
    PhysicalOp,
    ProjectOp,
    SortOp,
    group_inverse,
    partial_state_schema,
    run_chain,
)
from repro.hardware import OpKind
from repro.relational import (Chunk, DataType, Field, Schema, col,
                              make_lineitem)


def ints_chunk(**cols):
    schema = Schema([Field(n, DataType.INT64) for n in cols])
    return Chunk(schema, {n: np.asarray(v, dtype=np.int64)
                          for n, v in cols.items()})


# ---------------------------------------------------------------------------
# The executor-facing contract: run(chunk) -> (emits, charges)
# ---------------------------------------------------------------------------

def test_physical_op_contract_inventory():
    """One executor-facing method; a second cannot creep back unseen."""
    import repro.cloud.tax          # noqa: F401 - defines overrides

    public = {name for name, member in vars(PhysicalOp).items()
              if callable(member) and not name.startswith("_")}
    assert public == {"process", "run", "finish"}

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)
    composite = {cls.__name__ for cls in subclasses(PhysicalOp)
                 if cls.__module__.startswith("repro.")
                 and "run" in vars(cls)}
    assert composite == {"EgressOp", "IngressOp"}


def test_run_reports_the_input_bytes_under_the_ops_own_kind():
    chunk = ints_chunk(a=[1, 5, 9], b=[2, 2, 2])
    op = FilterOp(col("a") > 4)
    [emit], charges = op.run(chunk)
    assert emit.chunk.to_rows() == [(5, 2), (9, 2)]
    assert charges == [(OpKind.FILTER, 48.0)]


def test_run_chain_charges_per_emit_and_stops_at_an_empty_stream():
    chunk = ints_chunk(a=[1, 5, 9, 13], b=[2, 2, 2, 2])
    emits, charges = run_chain(
        [PartitionOp("a", 2), ProjectOp(["a"])], chunk)
    parts = PartitionOp("a", 2).process(chunk)
    assert [e.chunk.num_rows for e in emits] == [
        p.chunk.num_rows for p in parts]
    assert charges == [(OpKind.PARTITION, 64.0)] + [
        (OpKind.PROJECT, float(p.chunk.nbytes)) for p in parts]
    # Nothing survives the filter: the projection is never charged.
    assert run_chain([FilterOp(col("a") > 99), ProjectOp(["a"])],
                     chunk) == ([], [(OpKind.FILTER, 64.0)])
    # No operators: the chunk passes through, free.
    [same], free = run_chain([], chunk)
    assert same.chunk is chunk and free == []


def test_run_chain_charges_stop_where_the_stream_empties():
    # Mid-chain: the second filter keeps nothing, so the map behind it
    # is never charged, and each charge is the bytes that step saw.
    chunk = ints_chunk(a=[1, 5, 9, 13], b=[2, 2, 2, 2])
    mapped = Schema.of(("a", DataType.INT64), ("c", DataType.FLOAT64))
    assert run_chain([FilterOp(col("a") > 5), ProjectOp(["a"]),
                      FilterOp(col("a") > 99),
                      MapOp({"c": col("a") * 2}, mapped)], chunk) == (
        [], [(OpKind.FILTER, 64.0), (OpKind.PROJECT, 32.0),
             (OpKind.FILTER, 16.0)])


# ---------------------------------------------------------------------------
# Filter / project / limit
# ---------------------------------------------------------------------------

def test_filter_op():
    chunk = ints_chunk(x=[1, 5, 10], y=[1, 2, 3])
    out = FilterOp(col("x") > 3).process(chunk)
    assert len(out) == 1
    assert out[0].chunk.column("x").tolist() == [5, 10]


def test_filter_op_all_dropped_emits_nothing():
    chunk = ints_chunk(x=[1, 2])
    assert FilterOp(col("x") > 100).process(chunk) == []


def test_filter_op_kind_follows_predicate():
    assert FilterOp(col("x") > 3).kind == OpKind.FILTER
    schema = Schema.of(("s", DataType.STRING, 8))
    like = FilterOp(col("s").like("a%"))
    assert like.kind == OpKind.REGEX


def test_project_op():
    chunk = ints_chunk(x=[1, 2], y=[3, 4])
    out = ProjectOp(["y"]).process(chunk)
    assert out[0].chunk.schema.names == ["y"]


def test_limit_op_truncates_across_chunks():
    op = LimitOp(5)
    out1 = op.process(ints_chunk(x=[1, 2, 3]))
    out2 = op.process(ints_chunk(x=[4, 5, 6]))
    out3 = op.process(ints_chunk(x=[7]))
    got = [e.chunk.column("x").tolist() for e in out1 + out2 + out3]
    assert got == [[1, 2, 3], [4, 5]]


# ---------------------------------------------------------------------------
# Partition
# ---------------------------------------------------------------------------

def test_partition_places_every_row_exactly_once():
    rng = np.random.default_rng(0)
    values = rng.integers(0, 1000, size=500)
    chunk = ints_chunk(k=values)
    op = PartitionOp("k", 4)
    emits = op.process(chunk)
    total = sum(e.chunk.num_rows for e in emits)
    assert total == 500
    routes = {e.route for e in emits}
    assert routes <= {0, 1, 2, 3}


def test_partition_deterministic_by_key():
    op = PartitionOp("k", 3)
    emits = op.process(ints_chunk(k=[7, 7, 7, 42]))
    by_route = {e.route: e.chunk.column("k").tolist() for e in emits}
    # All 7s land in one partition.
    assert any(v == [7, 7, 7] for v in by_route.values())


def test_partition_function_consistent_across_instances():
    """Co-partitioning: build and probe sides agree (join invariant)."""
    keys = np.arange(100, dtype=np.int64)
    a = PartitionOp.hash_values(keys, 4)
    b = PartitionOp.hash_values(keys, 4)
    assert (a == b).all()
    assert set(np.unique(a)) <= {0, 1, 2, 3}


def test_partition_invalid_n():
    with pytest.raises(ValueError):
        PartitionOp("k", 0)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@mock.patch.object(operators, "MERGE_BATCH", 3)
def agg_pipeline(chunks, group_by, aggs, output_schema, merge_hops=0):
    """Run partial -> merge^n -> final (merges of three state chunks)
    and return the result chunk."""
    input_schema = chunks[0].schema
    partial = PartialAggregate(input_schema, group_by, aggs)
    merges = [MergeAggregate(input_schema, group_by, aggs)
              for _ in range(merge_hops)]
    final = MergeAggregate(input_schema, group_by, aggs, final=True,
                           output_schema=output_schema)
    emits_per_chunk = [partial.process(chunk) for chunk in chunks]
    # Drive each merge stage over the stream, flushing at end of
    # stream exactly like the stage executor does.
    stream = [e for emits in emits_per_chunk for e in emits]
    for merge in merges:
        out = []
        for e in stream:
            out.extend(merge.process(e.chunk))
        out.extend(merge.finish())
        stream = out
    for e in stream:
        final.process(e.chunk)
    out = final.finish()
    assert len(out) == 1
    return out[0].chunk


def test_grouped_sum_matches_oracle():
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 10, size=200)
    vals = rng.integers(0, 100, size=200)
    chunks = [ints_chunk(g=keys[i:i + 50], v=vals[i:i + 50])
              for i in range(0, 200, 50)]
    output = Schema([Field("g", DataType.INT64),
                     Field("total", DataType.FLOAT64)])
    result = agg_pipeline(chunks, ["g"], [AggSpec("sum", "v", "total")],
                          output)
    oracle = {}
    for k, v in zip(keys, vals):
        oracle[k] = oracle.get(k, 0) + v
    got = dict(zip(result.column("g").tolist(),
                   result.column("total").tolist()))
    assert got == {k: float(v) for k, v in oracle.items()}


def test_all_agg_ops_match_oracle():
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 5, size=300)
    vals = rng.integers(-50, 50, size=300)
    chunks = [ints_chunk(g=keys[i:i + 100], v=vals[i:i + 100])
              for i in range(0, 300, 100)]
    aggs = [AggSpec("sum", "v", "s"), AggSpec("count", alias="c"),
            AggSpec("min", "v", "lo"), AggSpec("max", "v", "hi"),
            AggSpec("avg", "v", "m")]
    output = Schema([Field("g", DataType.INT64),
                     Field("s", DataType.FLOAT64),
                     Field("c", DataType.INT64),
                     Field("lo", DataType.FLOAT64),
                     Field("hi", DataType.FLOAT64),
                     Field("m", DataType.FLOAT64)])
    result = agg_pipeline(chunks, ["g"], aggs, output)
    for i, g in enumerate(result.column("g").tolist()):
        mask = keys == g
        assert result.column("s")[i] == vals[mask].sum()
        assert result.column("c")[i] == mask.sum()
        assert result.column("lo")[i] == vals[mask].min()
        assert result.column("hi")[i] == vals[mask].max()
        assert result.column("m")[i] == pytest.approx(vals[mask].mean())


def test_merge_hops_do_not_change_result():
    """Staged pre-aggregation (§4.4) is semantically transparent."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 8, size=400)
    vals = rng.integers(0, 10, size=400)
    chunks = [ints_chunk(g=keys[i:i + 40], v=vals[i:i + 40])
              for i in range(0, 400, 40)]
    output = Schema([Field("g", DataType.INT64),
                     Field("t", DataType.FLOAT64)])
    specs = [AggSpec("sum", "v", "t")]
    base = agg_pipeline(chunks, ["g"], specs, output, merge_hops=0)
    staged = agg_pipeline(chunks, ["g"], specs, output, merge_hops=3)
    assert base.sorted_rows() == staged.sorted_rows()


def test_merge_stage_reduces_rows(monkeypatch):
    """A merge stage collapses duplicate groups across its window."""
    monkeypatch.setattr(operators, "MERGE_BATCH", 4)
    schema = ints_chunk(g=[0], v=[0]).schema
    specs = [AggSpec("sum", "v", "t")]
    partial = PartialAggregate(schema, ["g"], specs)
    states = []
    for base in range(4):
        chunk = ints_chunk(g=[1, 2], v=[base, base * 10])
        states.extend(e.chunk for e in partial.process(chunk))
    merge = MergeAggregate(schema, ["g"], specs)
    out = []
    for state in states:
        out.extend(merge.process(state))
    out.extend(merge.finish())
    # 4 state chunks x 2 groups -> one merged chunk with 2 groups.
    assert len(out) == 1
    assert out[0].chunk.num_rows == 2


def test_merge_batch_buffers_until_window_full(monkeypatch):
    monkeypatch.setattr(operators, "MERGE_BATCH", 3)
    schema = ints_chunk(g=[0], v=[0]).schema
    specs = [AggSpec("count", alias="n")]
    partial = PartialAggregate(schema, ["g"], specs)
    state = partial.process(ints_chunk(g=[1], v=[1]))[0].chunk
    merge = MergeAggregate(schema, ["g"], specs)
    assert merge.process(state) == []
    assert merge.process(state) == []
    out = merge.process(state)
    assert len(out) == 1
    # End-of-stream flush emits a partial window.
    merge.process(state)
    assert len(merge.finish()) == 1


def test_scalar_count_no_groups():
    chunks = [ints_chunk(x=[1, 2, 3]), ints_chunk(x=[4, 5])]
    output = Schema([Field("count", DataType.INT64)])
    result = agg_pipeline(chunks, [], [AggSpec("count")], output)
    assert result.column("count").tolist() == [5]


def test_scalar_aggregate_over_empty_stream():
    final = MergeAggregate(Schema.of(("x", DataType.INT64)), [],
                           [AggSpec("count")], final=True,
                           output_schema=Schema([Field("count",
                                                       DataType.INT64)]))
    out = final.finish()
    assert out[0].chunk.column("count").tolist() == [0]


def test_partial_state_is_small():
    """The state stream is narrower than the raw stream (reduction)."""
    schema = Schema.of(("g", DataType.INT64), ("v", DataType.INT64),
                       ("wide", DataType.STRING, 64))
    state = partial_state_schema(schema, ["g"], [AggSpec("sum", "v")])
    assert state.row_nbytes < schema.row_nbytes


def test_group_inverse_empty_groups():
    chunk = ints_chunk(x=[1, 2, 3])
    groups, inverse = group_inverse(chunk, [])
    assert groups.num_rows == 0
    assert inverse.tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# Hash join
# ---------------------------------------------------------------------------

def run_join(left_chunks, right_chunks, left_key, right_key,
             output_schema, rename):
    state = JoinState()
    build = HashJoinBuild(right_key, state)
    for chunk in right_chunks:
        build.process(chunk)
    build.finish()
    probe = HashJoinProbe(left_key, state, output_schema, rename)
    out = []
    for chunk in left_chunks:
        out.extend(e.chunk for e in probe.process(chunk))
    return out


def test_join_matches_bruteforce():
    rng = np.random.default_rng(4)
    lk = rng.integers(0, 20, size=100)
    lv = rng.integers(0, 1000, size=100)
    rk = rng.integers(0, 20, size=30)
    rv = rng.integers(0, 1000, size=30)
    left = [ints_chunk(k=lk[i:i + 25], lval=lv[i:i + 25])
            for i in range(0, 100, 25)]
    right = [ints_chunk(k=rk, rval=rv)]
    output = Schema([Field("k", DataType.INT64),
                     Field("lval", DataType.INT64),
                     Field("rval", DataType.INT64)])
    out = run_join(left, right, "k", "k", output, {"k": "r_k"})
    got = sorted(row for c in out for row in c.to_rows())
    oracle = sorted((int(a), int(b), int(d))
                    for a, b in zip(lk, lv)
                    for c, d in zip(rk, rv) if a == c)
    assert got == oracle


def test_join_with_duplicates_on_both_sides():
    left = [ints_chunk(k=[1, 1, 2], a=[10, 11, 12])]
    right = [ints_chunk(k=[1, 1, 3], b=[20, 21, 22])]
    output = Schema([Field("k", DataType.INT64),
                     Field("a", DataType.INT64),
                     Field("b", DataType.INT64)])
    out = run_join(left, right, "k", "k", output, {"k": "r_k"})
    rows = sorted(row for c in out for row in c.to_rows())
    assert rows == [(1, 10, 20), (1, 10, 21), (1, 11, 20), (1, 11, 21)]


def test_join_empty_build_side():
    left = [ints_chunk(k=[1, 2], a=[1, 2])]
    output = Schema([Field("k", DataType.INT64),
                     Field("a", DataType.INT64)])
    out = run_join(left, [], "k", "k", output, {})
    assert out == []


def _keyed_catalog(to_key):
    """``facts`` (400 rows) and ``dims`` (40 rows, keys 0..49 so some
    facts miss) joined on ``to_key(integer id)``."""
    from repro.relational import Catalog, Table
    rng = np.random.default_rng(19)
    fact_ids, dim_ids = rng.integers(0, 50, 400), rng.permutation(50)[:40]
    keys = np.array([to_key(i) for i in range(50)])
    dtype = DataType.STRING if keys.dtype.kind == "U" else DataType.INT64
    catalog = Catalog()
    catalog.register("facts", Table.from_arrays(
        Schema([Field("f_key", dtype, width=8),
                Field("f_value", DataType.FLOAT64)]),
        {"f_key": keys[fact_ids], "f_value": rng.random(400)},
        name="facts", chunk_rows=64))
    catalog.register("dims", Table.from_arrays(
        Schema([Field("d_key", dtype, width=8),
                Field("d_group", DataType.INT64)]),
        {"d_key": keys[dim_ids], "d_group": dim_ids % 4},
        name="dims", chunk_rows=16))
    expected = float(sum(v for i, v in zip(fact_ids, catalog.table(
        "facts").column("f_value")) if i in set(dim_ids.tolist())))
    return catalog, expected


@pytest.mark.parametrize("to_key", [lambda i: f"k{i:03d}",
                                    lambda i: (i - 25) * 10 ** 9],
                         ids=["string", "sparse"])
def test_join_on_non_dense_keys_end_to_end_on_both_engines(to_key):
    # Neither key kind can be addressed directly: both engines take
    # the binary-search path and still agree with each other and with
    # a sum computed from the ids.
    from repro.engine import DataflowEngine, Query, VolcanoEngine
    from repro.hardware import build_fabric, dataflow_spec
    catalog, expected = _keyed_catalog(to_key)
    query = (Query.scan("facts")
             .join(Query.scan("dims"), "f_key", "d_key")
             .aggregate(["d_group"], [AggSpec("sum", "f_value", "total"),
                                      AggSpec("count", alias="n")]))
    volcano = VolcanoEngine(build_fabric(dataflow_spec()),
                            catalog).execute(query)
    dataflow = DataflowEngine(build_fabric(dataflow_spec()),
                              catalog).execute(query)
    assert volcano.checksum() == dataflow.checksum()
    assert volcano.table.sorted_rows() == dataflow.table.sorted_rows()
    assert sorted(volcano.table.column("d_group")) == [0, 1, 2, 3]
    assert volcano.table.column("total").sum() == pytest.approx(expected)


def test_probe_before_build_raises():
    state = JoinState()
    probe = HashJoinProbe("k", state,
                          Schema([Field("k", DataType.INT64)]), {})
    with pytest.raises(RuntimeError):
        probe.process(ints_chunk(k=[1]))


# ---------------------------------------------------------------------------
# Sort
# ---------------------------------------------------------------------------

def test_sort_single_key():
    op = SortOp(["x"])
    op.process(ints_chunk(x=[3, 1], y=[30, 10]))
    op.process(ints_chunk(x=[2], y=[20]))
    out = op.finish()
    assert out[0].chunk.column("x").tolist() == [1, 2, 3]
    assert out[0].chunk.column("y").tolist() == [10, 20, 30]


def test_sort_multi_key_priority():
    op = SortOp(["a", "b"])
    op.process(ints_chunk(a=[1, 1, 0], b=[2, 1, 9]))
    out = op.finish()
    assert out[0].chunk.to_rows() == [(0, 9), (1, 1), (1, 2)]


def test_sort_empty_stream():
    assert SortOp(["x"]).finish() == []


# ---------------------------------------------------------------------------
# Encoded strings
# ---------------------------------------------------------------------------

def test_string_group_by_same_on_codes_and_decoded_rows():
    """An arena chunk groups on dictionary codes; the same rows held as
    decoded strings group to the same three return flags."""
    arena_chunk = make_lineitem(20_000, chunk_rows=20_000).chunks[0]
    dict_chunk = Chunk(arena_chunk.schema, dict(arena_chunk.columns))
    assert arena_chunk.dict_codes("l_returnflag") is not None
    assert dict_chunk.dict_codes("l_returnflag") is None
    specs = [AggSpec("sum", "l_extendedprice", "rev"),
             AggSpec("count", alias="n")]
    groups = [PartialAggregate(chunk.schema, ["l_returnflag"], specs)
              .process(chunk)[0].chunk for chunk in (arena_chunk, dict_chunk)]
    assert [g.num_rows for g in groups] == [3, 3]
    assert sorted(groups[0].to_rows()) == sorted(groups[1].to_rows())

