"""Micro-benchmarks of the *real* operator kernels (host throughput).

Unlike the experiment benches (which report simulated time), these
measure the wall-clock throughput of the vectorized operator
implementations themselves — the part of the library that actually
computes.  Useful for catching performance regressions in the numpy
kernels.
"""

import numpy as np
import pytest

from repro.engine.fusion import fuse_ops
from repro.engine.logical import AggSpec
from repro.engine.operators import (
    FilterOp,
    HashJoinBuild,
    HashJoinProbe,
    JoinState,
    MapOp,
    PartialAggregate,
    PartitionOp,
    ProjectOp,
    SortOp,
    run_chain,
)
from repro.relational import (
    Chunk,
    DataType,
    Field,
    Schema,
    col,
    lit,
    make_uniform_table,
)

ROWS = 500_000


def big_chunk(distinct=1000, seed=0):
    table = make_uniform_table(ROWS, columns=3, distinct=distinct,
                               seed=seed, chunk_rows=ROWS)
    return table.chunks[0]


def test_micro_filter_throughput(benchmark):
    chunk = big_chunk()
    op = FilterOp((col("k0") < 500) & (col("k1") > 100))
    result = benchmark(op.process, chunk)
    assert result[0].chunk.num_rows > 0
    benchmark.extra_info["rows"] = ROWS


def test_micro_partition_throughput(benchmark):
    chunk = big_chunk()
    op = PartitionOp("k0", 8)
    result = benchmark(op.process, chunk)
    assert sum(e.chunk.num_rows for e in result) == ROWS
    benchmark.extra_info["rows"] = ROWS


def test_micro_partial_aggregate_throughput(benchmark):
    chunk = big_chunk(distinct=100)
    op = PartialAggregate(chunk.schema, ["k0"],
                          [AggSpec("sum", "k1", "s"),
                           AggSpec("count", alias="n")])
    result = benchmark(op.process, chunk)
    assert result[0].chunk.num_rows == len(
        np.unique(chunk.column("k0")))
    benchmark.extra_info["rows"] = ROWS


def _join_sides(scale):
    """500k build rows keyed by a shuffled ``arange`` and 50k probe rows,
    every key times ``scale``.

    ``scale`` 1 leaves the build keys dense and unique (the direct row
    table); a large one spreads them out (the sorted index and its
    binary search).  Half the probe keys have no partner.
    """
    schema = Schema([Field("k0", DataType.INT64),
                     Field("k1", DataType.INT64)])
    payload = big_chunk(seed=1)
    probe_rows = big_chunk(distinct=2 * ROWS, seed=2).slice(0, 50_000)
    build = Chunk(schema, {
        "k0": np.random.default_rng(1).permutation(ROWS) * scale,
        "k1": payload.column("k1")})
    probe = Chunk(schema, {"k0": probe_rows.column("k0") * scale,
                           "k1": probe_rows.column("k1")})
    return schema, build, probe


def _match_count(build, probe):
    """Joined rows by a dict oracle; probe rows with a partner by isin."""
    keys, counts = np.unique(build.column("k0"), return_counts=True)
    per_key = dict(zip(keys.tolist(), counts.tolist()))
    total = sum(per_key.get(k, 0) for k in probe.column("k0").tolist())
    return total, int(np.isin(probe.column("k0"), keys).sum())


@pytest.mark.parametrize("scale", [1, 10 ** 9], ids=["dense", "sparse"])
def test_micro_hash_join_probe_throughput(benchmark, scale):
    schema, build_chunk, probe_chunk = _join_sides(scale)
    state = JoinState()
    build = HashJoinBuild("k0", state)
    build.process(build_chunk)
    build.finish()
    assert (state.row_of is not None) == (scale == 1)
    probe = HashJoinProbe("k0", state, schema, {})
    [emit] = benchmark(probe.process, probe_chunk)
    joined, _partnered = _match_count(build_chunk, probe_chunk)
    assert emit.chunk.num_rows == joined
    benchmark.extra_info["probe_rows"] = probe_chunk.num_rows


def test_micro_hash_join_build_install_throughput(benchmark):
    _schema, build_chunk, probe_chunk = _join_sides(1)
    state = JoinState()
    benchmark(state.install, build_chunk, "k0")
    probe_idx, build_idx = state.match(probe_chunk.column("k0"))
    joined, partnered = _match_count(build_chunk, probe_chunk)
    assert len(probe_idx) == len(build_idx) == joined
    assert len(np.unique(probe_idx)) == partnered
    benchmark.extra_info["build_rows"] = ROWS


def _pipeline_ops():
    """A representative filter -> project -> map chain."""
    out_schema = Schema([Field("k0", DataType.INT64),
                         Field("k1", DataType.INT64),
                         Field("score", DataType.FLOAT64)])
    return [
        FilterOp((col("k0") < 500) & (col("k1") > 100)),
        ProjectOp(["k0", "k1"]),
        MapOp({"score": col("k0") * lit(2.0) + col("k1")}, out_schema),
    ]


@pytest.mark.parametrize("chunk_rows", [1_000, 10_000, 100_000])
def test_micro_pipeline_unfused(benchmark, chunk_rows):
    """Reference path: one dispatch and one intermediate per op."""
    chunk = big_chunk().slice(0, chunk_rows)
    ops = _pipeline_ops()
    [emit], _ = benchmark(run_chain, ops, chunk)
    assert emit.chunk.num_rows > 0
    benchmark.extra_info["rows"] = chunk_rows
    benchmark.extra_info["variant"] = "unfused"


@pytest.mark.parametrize("chunk_rows", [1_000, 10_000, 100_000])
def test_micro_pipeline_fused(benchmark, chunk_rows):
    """Fused path: the chain lowered to one generated flat function
    (predicates inlined, no per-step dispatch or chunks).  Compare
    against ``test_micro_pipeline_unfused`` at the same chunk size."""
    chunk = big_chunk().slice(0, chunk_rows)
    ops = _pipeline_ops()
    [fused] = fuse_ops(ops)
    [reference], charges = run_chain(_pipeline_ops(), chunk)
    # Resolve (generate + compile) outside the timed region.
    fused.run(chunk)
    assert fused.kernel_origin in ("compiled", "memory")
    [emit], fused_charges = benchmark(fused.run, chunk)
    assert fused_charges == charges
    assert (emit.chunk.materialize().sorted_rows()
            == reference.chunk.sorted_rows())
    benchmark.extra_info["rows"] = chunk_rows
    benchmark.extra_info["variant"] = "fused"


STRING_ROWS = 200_000


def _string_chunks():
    """The same lineitem rows, arena-backed vs plain dict-of-arrays.

    The arena chunk carries dictionary codes for its string columns;
    the dict chunk holds the decoded unicode arrays — the layout the
    store used before arenas.  Same values, different physical form.
    """
    from repro.relational import Chunk
    from repro.relational.datagen import make_lineitem
    table = make_lineitem(STRING_ROWS, chunk_rows=STRING_ROWS)
    arena_chunk = table.chunks[0]
    dict_chunk = Chunk(table.schema, dict(arena_chunk.columns))
    assert arena_chunk.dict_codes("l_returnflag") is not None
    assert dict_chunk.dict_codes("l_returnflag") is None
    return arena_chunk, dict_chunk


def _groupby_op(schema):
    return PartialAggregate(schema, ["l_returnflag"],
                            [AggSpec("sum", "l_extendedprice", "rev"),
                             AggSpec("count", alias="n")])


def test_micro_groupby_string_arena(benchmark):
    """Group-by over a dict-encoded string key: unique on int32
    codes, decode only the handful of group labels."""
    chunk, _ = _string_chunks()
    op = _groupby_op(chunk.schema)
    result = benchmark(op.process, chunk)
    assert result[0].chunk.num_rows == 3
    benchmark.extra_info["rows"] = STRING_ROWS
    benchmark.extra_info["variant"] = "arena"


def test_micro_groupby_string_dict(benchmark):
    """Reference: the same group-by over decoded unicode rows."""
    _, chunk = _string_chunks()
    op = _groupby_op(chunk.schema)
    result = benchmark(op.process, chunk)
    assert result[0].chunk.num_rows == 3
    benchmark.extra_info["rows"] = STRING_ROWS
    benchmark.extra_info["variant"] = "dict"


def test_micro_like_filter_arena(benchmark):
    """LIKE over a dict-encoded column: one regex per pool entry,
    verdicts gathered by code."""
    chunk, _ = _string_chunks()
    op = FilterOp(col("l_comment").like("%ab%"))
    result = benchmark(op.process, chunk)
    benchmark.extra_info["rows"] = STRING_ROWS
    benchmark.extra_info["variant"] = "arena"
    benchmark.extra_info["hits"] = (
        result[0].chunk.num_rows if result else 0)


def test_micro_like_filter_dict(benchmark):
    """Reference: the same LIKE, one regex match per row."""
    _, chunk = _string_chunks()
    op = FilterOp(col("l_comment").like("%ab%"))
    result = benchmark(op.process, chunk)
    benchmark.extra_info["rows"] = STRING_ROWS
    benchmark.extra_info["variant"] = "dict"
    benchmark.extra_info["hits"] = (
        result[0].chunk.num_rows if result else 0)


def test_micro_sort_throughput(benchmark):
    chunk = big_chunk()

    def run():
        op = SortOp(["k0", "k1"])
        op.process(chunk)
        return op.finish()

    result = benchmark(run)
    keys = result[0].chunk.column("k0")
    assert (keys[:-1] <= keys[1:]).all()
    benchmark.extra_info["rows"] = ROWS
