"""Late materialisation, pinned by counts rather than the clock.

A column is gathered when an operator reads it, not when a chunk
crosses a channel, lands in a build table or leaves a join.  The
observable: how often ``Arena.column_slice`` decodes each column of
each source chunk.  Lazy chunks must also be indistinguishable from
their eager twins in everything the simulation charges or returns.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import AggSpec, DataflowEngine, Query, VolcanoEngine
from repro.engine.operators import HashJoinBuild, HashJoinProbe, JoinState
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import (
    Catalog,
    Chunk,
    DataType,
    Field,
    Schema,
    Table,
    col,
    make_lineitem,
    make_orders,
)
from repro.relational.arena import Arena

ROWS = 6000
CHUNK = 1000
ENGINES = {"volcano": VolcanoEngine, "dataflow": DataflowEngine}


def _catalog(cluster_by=None):
    """lineitem / orders at 6 000 rows; ``cluster_by`` sorts lineitem so
    a range filter leaves most source chunks without a survivor."""
    lineitem = make_lineitem(ROWS, orders=ROWS // 4, chunk_rows=CHUNK)
    if cluster_by is not None:
        order = np.argsort(lineitem.column(cluster_by), kind="stable")
        lineitem = Table.from_arrays(
            lineitem.schema,
            {n: lineitem.column(n)[order] for n in lineitem.schema.names},
            name="lineitem", chunk_rows=CHUNK)
    catalog = Catalog()
    catalog.register("lineitem", lineitem)
    catalog.register("orders", make_orders(ROWS // 4, chunk_rows=CHUNK))
    return catalog


def _joined():
    """The F6 shape: filter -> join(filter) -> ..."""
    return (Query.scan("lineitem")
            .filter(col("l_shipdate").between(8500, 8800))
            .join(Query.scan("orders").filter(col("o_priority") <= 2),
                  "l_orderkey", "o_orderkey"))


@pytest.fixture
def decodes(monkeypatch):
    """Counter of ``(column, start, stop)`` per ``Arena.column_slice``."""
    counts = Counter()
    original = Arena.column_slice

    def counting(self, name, start, stop):
        counts[name, start, stop] += 1
        return original(self, name, start, stop)
    monkeypatch.setattr(Arena, "column_slice", counting)
    return counts


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "no-fuse"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_join_query_never_decodes_a_column_nobody_reads(
        engine, fused, decodes, monkeypatch):
    if not fused:
        monkeypatch.setenv("REPRO_NO_FUSE", "1")
    query = _joined().aggregate(
        ["o_priority"], [AggSpec("sum", "l_extendedprice", "rev"),
                         AggSpec("count", alias="n")])
    catalog = _catalog()        # built before counting starts mattering
    decodes.clear()
    result = ENGINES[engine](build_fabric(dataflow_spec()),
                             catalog).execute(query)
    assert result.rows == 2
    read = {name for name, _start, _stop in decodes}
    # 176 + 128 of the 396 bytes a joined row has: never gathered.
    assert "l_comment" not in read and "o_comment" not in read
    assert read == {"l_shipdate", "l_orderkey", "l_extendedprice",
                    "o_priority", "o_orderkey"}
    # What an operator names is decoded once per source chunk, however
    # many channels, views and build tables the chunk goes through.
    assert set(decodes.values()) == {1}


#: ``checksum()`` of the query below on the parent commit (PR 18).
KEEPS_COMMENT_CHECKSUM = (
    "0ed30ad5491d7043aab51e92dc647e7def733f5450e15c516bc6d03a3fea189c")


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_a_kept_payload_column_is_decoded_once_per_surviving_chunk(
        engine, decodes):
    query = _joined().project(["l_orderkey", "l_comment", "o_priority"])
    catalog = _catalog(cluster_by="l_shipdate")
    lineitem, orders = catalog.table("lineitem"), catalog.table("orders")
    urgent = orders.column("o_orderkey")[orders.column("o_priority") <= 2]
    survives = (np.isin(lineitem.column("l_orderkey"), urgent)
                & (lineitem.column("l_shipdate") >= 8500)
                & (lineitem.column("l_shipdate") <= 8800))
    surviving = {start for start in range(0, ROWS, CHUNK)
                 if survives[start:start + CHUNK].any()}
    assert 0 < len(surviving) < ROWS // CHUNK       # the filter prunes
    decodes.clear()
    result = ENGINES[engine](build_fabric(dataflow_spec()),
                             catalog).execute(query)
    assert result.rows == int(survives.sum())
    assert result.checksum() == KEEPS_COMMENT_CHECKSUM
    comment = {start: n for (name, start, _stop), n in decodes.items()
               if name == "l_comment"}
    assert comment == dict.fromkeys(surviving, 1)
    assert not any(name == "o_comment" for name, _s, _e in decodes)


# ---------------------------------------------------------------------------
# A lazy chunk is its eager twin in everything but when it pays
# ---------------------------------------------------------------------------

SCHEMA = Schema([Field("k", DataType.INT64), Field("v", DataType.FLOAT64),
                 Field("s", DataType.STRING, width=6)])
BUILD = Schema([Field("k", DataType.INT64), Field("w", DataType.FLOAT64),
                Field("s", DataType.STRING, width=3)])
JOINED = Schema(SCHEMA.fields + [Field("w", DataType.FLOAT64),
                                 Field("r_s", DataType.STRING, width=3)])
RENAME = {"k": "r_k", "w": "w", "s": "r_s"}


def _columns(rng, rows, schema):
    return {"k": rng.integers(0, 8, rows),
            schema.names[1]: rng.random(rows),
            "s": rng.choice(np.array(["", "ab", "abc"]), rows)}


def _chunks(seed, sizes, schema, arena):
    """Dense dict chunks, or windows of one arena-backed table."""
    rng = np.random.default_rng(seed)
    if not arena:
        return [Chunk(schema, _columns(rng, rows, schema))
                for rows in sizes]
    table = Table.from_arrays(schema, _columns(rng, sum(sizes), schema),
                              chunk_rows=max(sizes))
    return [c for c in table.chunks if c.num_rows]


def _assert_twins(lazy, eager):
    assert type(eager.columns) is dict
    assert lazy.schema == eager.schema
    assert lazy.num_rows == eager.num_rows == len(lazy)
    assert lazy.nbytes == eager.nbytes          # before any column is read
    settled = lazy.materialize()
    assert type(settled.columns) is dict
    assert settled.nbytes == eager.nbytes
    for name in eager.schema.names:
        assert lazy.columns[name].dtype == eager.columns[name].dtype
        assert np.array_equal(lazy.columns[name], eager.columns[name])
        assert settled.columns[name] is lazy.columns[name]   # gathered once
    table = Table(lazy.schema)
    table.append(lazy)
    assert type(table.chunks[0].columns) is dict
    assert table.sorted_rows() == eager.sorted_rows()


_SIZES = st.lists(st.integers(1, 9), min_size=2, max_size=4)


@given(seed=st.integers(0, 99), sizes=_SIZES, arena=st.booleans(),
       filtered=st.booleans())
@settings(max_examples=60, deadline=None)
def test_lazy_concat_equals_eager_concat(seed, sizes, arena, filtered):
    chunks = _chunks(seed, sizes, SCHEMA, arena)
    if filtered:
        chunks = [c.filter(c.column("k") != 3) for c in chunks]
    if len(chunks) < 2:
        return                      # one chunk is returned as it is
    lazy = Chunk.concat(chunks)
    assert type(lazy.columns) is not dict and lazy.columns._cache == {}
    _assert_twins(lazy, Chunk(SCHEMA, {
        n: np.concatenate([c.columns[n] for c in chunks])
        for n in SCHEMA.names}))


@given(seed=st.integers(0, 99), rows=st.integers(1, 12),
       arena=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_lazy_take_equals_eager_gather(seed, rows, arena, data):
    [chunk] = _chunks(seed, [rows], SCHEMA, arena)
    indices = np.array(data.draw(st.lists(st.integers(0, rows - 1),
                                          max_size=16)), dtype=np.int64)
    again = np.arange(len(indices))[::-1]
    lazy = chunk.take(indices).take(again)      # takes compose
    assert lazy.columns._cache == {}
    _assert_twins(lazy, Chunk(SCHEMA, {
        n: chunk.columns[n][indices][again] for n in SCHEMA.names}))


@given(seed=st.integers(0, 99), sizes=_SIZES, rows=st.integers(1, 12),
       arena=st.booleans())
@settings(max_examples=60, deadline=None)
def test_lazy_join_output_equals_eager_join_output(seed, sizes, rows,
                                                   arena):
    state = JoinState()
    build = HashJoinBuild("k", state)
    for chunk in _chunks(seed, sizes, BUILD, arena):
        build.process(chunk)
    build.finish()
    [probe] = _chunks(seed + 1, [rows], SCHEMA, arena)
    emits = HashJoinProbe("k", state, JOINED, RENAME).process(probe)
    probe_idx, build_idx = state.match(probe.column("k"))
    if not len(probe_idx):
        assert emits == []
        return
    [emit] = emits
    assert emit.chunk.columns._cache == {}      # nothing gathered yet
    built = state.build_chunk
    _assert_twins(emit.chunk, Chunk(JOINED, {
        **{n: probe.columns[n][probe_idx] for n in SCHEMA.names},
        "w": built.columns["w"][build_idx],
        "r_s": built.columns["s"][build_idx]}))
