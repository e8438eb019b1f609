"""Property-based tests (hypothesis) for core invariants.

Targets the invariants called out in DESIGN.md: simulator event
ordering, credit-window occupancy, partition completeness and
consistency, aggregation against oracles under arbitrary chunking,
join correctness against brute force, LRU behaviour, and format
round-trips.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import operators
from repro.engine.logical import AggSpec
from repro.engine.operators import (
    HashJoinBuild,
    HashJoinProbe,
    JoinState,
    MergeAggregate,
    PartialAggregate,
    PartitionOp,
)
from repro.flow import CreditChannel
from repro.hardware import LRUCache
from repro.relational import (
    Chunk,
    DataType,
    Field,
    Schema,
    compress_chunk,
    decompress_chunk,
    deserialize_chunk,
    serialize_chunk,
    to_column_major,
    to_row_major,
)
from repro.sim import EventKind, Simulator, Store, Trace

ints = st.integers(min_value=-1000, max_value=1000)
small_ints = st.integers(min_value=0, max_value=20)


def int_chunk(cols: dict) -> Chunk:
    schema = Schema([Field(name, DataType.INT64) for name in cols])
    return Chunk(schema, {n: np.asarray(v, dtype=np.int64)
                          for n, v in cols.items()})


# ---------------------------------------------------------------------------
# Simulator ordering
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    fired = []

    def waiter(delay):
        yield sim.timeout(delay)
        fired.append(sim.now)

    for delay in delays:
        sim.process(waiter(delay))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# ---------------------------------------------------------------------------
# Credit flow control
# ---------------------------------------------------------------------------

@given(credits=st.integers(min_value=1, max_value=10),
       messages=st.integers(min_value=1, max_value=40),
       consumer_delay=st.floats(min_value=0.0, max_value=5.0,
                                allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_credit_window_never_exceeded(credits, messages, consumer_delay):
    sim = Simulator()
    inbox = Store(sim)
    channel = CreditChannel(sim, Trace(), "ch", links=[], inbox=inbox,
                            credits=credits)
    received = []

    def producer():
        for i in range(messages):
            yield from channel.send(i, 1.0)

    def consumer():
        for _ in range(messages):
            ch, payload = yield inbox.get()
            received.append(payload)
            if consumer_delay:
                yield sim.timeout(consumer_delay)
            ch.ack()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    # No loss, no duplication, FIFO, bounded occupancy.
    assert received == list(range(messages))
    assert channel.max_outstanding <= credits


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

@given(keys=st.lists(ints, min_size=1, max_size=300),
       n_parts=st.integers(min_value=1, max_value=8))
@settings(max_examples=50, deadline=None)
def test_partition_places_each_row_exactly_once(keys, n_parts):
    chunk = int_chunk({"k": keys, "v": list(range(len(keys)))})
    emits = PartitionOp("k", n_parts).process(chunk)
    seen = sorted(v for e in emits for v in e.chunk.column("v").tolist())
    assert seen == sorted(range(len(keys)))
    for emit in emits:
        assert 0 <= emit.route < n_parts
        # Every row in a partition hashes to that partition.
        hashes = PartitionOp.hash_values(emit.chunk.column("k"), n_parts)
        assert (hashes == emit.route).all()


# ---------------------------------------------------------------------------
# Aggregation vs oracle under arbitrary chunking
# ---------------------------------------------------------------------------

@given(rows=st.lists(st.tuples(small_ints, ints), min_size=1,
                     max_size=200),
       chunk_size=st.integers(min_value=1, max_value=50),
       merge_hops=st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_staged_aggregation_matches_oracle(rows, chunk_size, merge_hops):
    keys = [r[0] for r in rows]
    vals = [r[1] for r in rows]
    chunks = [int_chunk({"g": keys[i:i + chunk_size],
                         "v": vals[i:i + chunk_size]})
              for i in range(0, len(rows), chunk_size)]
    schema = chunks[0].schema
    specs = [AggSpec("sum", "v", "s"), AggSpec("count", alias="c"),
             AggSpec("min", "v", "lo"), AggSpec("max", "v", "hi")]
    output = Schema([Field("g", DataType.INT64),
                     Field("s", DataType.FLOAT64),
                     Field("c", DataType.INT64),
                     Field("lo", DataType.FLOAT64),
                     Field("hi", DataType.FLOAT64)])
    partial = PartialAggregate(schema, ["g"], specs)
    merges = [MergeAggregate(schema, ["g"], specs)
              for _ in range(merge_hops)]
    final = MergeAggregate(schema, ["g"], specs, final=True,
                           output_schema=output)
    stream = [e for chunk in chunks for e in partial.process(chunk)]
    for merge in merges:
        out = []
        with mock.patch.object(operators, "MERGE_BATCH", 3):
            for e in stream:
                out.extend(merge.process(e.chunk))
        out.extend(merge.finish())
        stream = out
    for e in stream:
        final.process(e.chunk)
    result = final.finish()[0].chunk

    oracle = {}
    for k, v in rows:
        s, c, lo, hi = oracle.get(k, (0, 0, float("inf"), float("-inf")))
        oracle[k] = (s + v, c + 1, min(lo, v), max(hi, v))
    got = {row[0]: row[1:] for row in result.to_rows()}
    assert set(got) == set(oracle)
    for k, (s, c, lo, hi) in oracle.items():
        gs, gc, glo, ghi = got[k]
        assert gs == s and gc == c and glo == lo and ghi == hi


# ---------------------------------------------------------------------------
# Join vs brute force
# ---------------------------------------------------------------------------

@given(left=st.lists(st.tuples(small_ints, ints), min_size=0,
                     max_size=100),
       right=st.lists(st.tuples(small_ints, ints), min_size=0,
                      max_size=50))
@settings(max_examples=30, deadline=None)
def test_hash_join_matches_bruteforce(left, right):
    output = Schema([Field("k", DataType.INT64),
                     Field("a", DataType.INT64),
                     Field("b", DataType.INT64)])
    state = JoinState()
    build = HashJoinBuild("k", state)
    if right:
        build.process(int_chunk({"k": [r[0] for r in right],
                                 "b": [r[1] for r in right]}))
    build.finish()
    probe = HashJoinProbe("k", state, output, {"k": "r_k"})
    got = []
    if left:
        for emit in probe.process(int_chunk(
                {"k": [pair[0] for pair in left],
                 "a": [pair[1] for pair in left]})):
            got.extend(emit.chunk.to_rows())
    oracle = sorted((lk, lv, rv) for lk, lv in left
                    for rk, rv in right if lk == rk)
    assert sorted(got) == oracle


# ---------------------------------------------------------------------------
# LRU cache
# ---------------------------------------------------------------------------

class ListLRU:
    """The reference: a plain list of (key, value, nbytes), oldest first."""

    def __init__(self, capacity):
        self.capacity, self.entries = capacity, []

    def get(self, key):
        for i, entry in enumerate(self.entries):
            if entry[0] == key:
                self.entries.append(self.entries.pop(i))
                return entry[1]
        return None

    def put(self, key, value, nbytes):
        self.entries = [e for e in self.entries if e[0] != key]
        if nbytes > self.capacity:
            return []
        evicted = []
        while self.used() + nbytes > self.capacity:
            victim, _value, victim_bytes = self.entries.pop(0)
            evicted.append((victim, victim_bytes))
        self.entries.append((key, value, nbytes))
        return evicted

    def used(self):
        return sum(entry[2] for entry in self.entries)


cache_ops = st.lists(
    st.one_of(st.tuples(st.just("get"), st.integers(0, 12)),
              st.tuples(st.just("put"), st.integers(0, 12),
                        st.integers(1, 25))),
    min_size=1, max_size=120)


@given(capacity=st.integers(min_value=1, max_value=20), ops=cache_ops)
@example(capacity=10, ops=[("put", 1, 4), ("put", 1, 11), ("get", 1)])
@settings(max_examples=100, deadline=None)
def test_lru_invariants(capacity, ops):
    """The byte-budgeted LRU agrees with a list model, op for op: same
    values, same victims in least-recently-used order, used bytes
    within the budget, exact hit / miss / eviction counts (each hit
    and miss also one ``cache_hit`` / ``cache_miss`` event), and an
    entry larger than the budget refused with any older copy of its
    key dropped."""
    trace = Trace()
    cache = LRUCache(capacity, name="c", trace=trace)
    reference = ListLRU(capacity)
    gets = hits = evictions = 0
    for n, (op, key, *size) in enumerate(ops):
        if op == "get":
            gets += 1
            want = reference.get(key)
            hits += want is not None
            assert cache.get(key) == want
        else:
            value = f"v{n}"
            evicted = cache.put(key, value, size[0])
            assert evicted == reference.put(key, value, size[0])
            evictions += len(evicted)
        assert cache.used_bytes == reference.used() <= capacity
    assert (cache.hits, cache.misses) == (hits, gets - hits)
    assert cache.evictions == evictions
    kinds = [event.kind for event in trace.events]
    assert kinds.count(EventKind.CACHE_HIT) == hits
    assert kinds.count(EventKind.CACHE_MISS) == gets - hits
    assert len(kinds) == gets
    assert not trace.counters


# ---------------------------------------------------------------------------
# Format round trips
# ---------------------------------------------------------------------------

@given(values=st.lists(ints, min_size=0, max_size=200),
       floats=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                 width=32),
                       min_size=0, max_size=200))
@settings(max_examples=30, deadline=None)
def test_serialize_compress_roundtrip(values, floats):
    n = min(len(values), len(floats))
    schema = Schema.of(("i", DataType.INT64), ("f", DataType.FLOAT64))
    chunk = Chunk(schema, {"i": np.asarray(values[:n], dtype=np.int64),
                           "f": np.asarray(floats[:n],
                                           dtype=np.float64)})
    assert deserialize_chunk(
        serialize_chunk(chunk)).sorted_rows() == chunk.sorted_rows()
    assert decompress_chunk(
        compress_chunk(chunk)).sorted_rows() == chunk.sorted_rows()


@given(values=st.lists(st.tuples(ints, st.booleans()), min_size=1,
                       max_size=100))
@settings(max_examples=30, deadline=None)
def test_transpose_roundtrip(values):
    schema = Schema.of(("i", DataType.INT64), ("b", DataType.BOOL))
    chunk = Chunk(schema, {
        "i": np.asarray([v[0] for v in values], dtype=np.int64),
        "b": np.asarray([v[1] for v in values], dtype=bool)})
    rows = to_row_major(chunk)
    assert to_column_major(rows, schema).sorted_rows() == \
        chunk.sorted_rows()
