"""Tests for the cloud substrate: object store, tax, buffer pool, caches."""

import numpy as np
import pytest

from repro.cloud import (
    BufferPool,
    EgressOp,
    IngressOp,
    ObjectStore,
    TaxConfig,
    xor_cipher,
)
from repro.engine import AggSpec, Query, plan_fingerprint
from repro.experiments import c5_no_bufferpool
from repro.flow import StageGraph
from repro.hardware import (
    DRAM,
    ComputationalStorage,
    LRUCache,
    build_fabric,
    dataflow_spec,
)
from repro.relational import (
    col,
    make_lineitem,
    make_uniform_table,
)
from repro.sim import EventKind, Simulator, Trace


def storage_env():
    sim = Simulator()
    trace = Trace()
    storage = ComputationalStorage(sim, trace, "s")
    return sim, trace, storage


# ---------------------------------------------------------------------------
# Object store
# ---------------------------------------------------------------------------

def test_objectstore_put_get_roundtrip():
    sim, trace, storage = storage_env()
    store = ObjectStore(storage)
    table = make_uniform_table(1000, chunk_rows=250)
    keys = store.put_table("t", table)
    assert len(keys) == 4

    def fetch_all():
        chunks = []
        for key in keys:
            chunk = yield from store.get(key)
            chunks.append(chunk)
        return chunks

    chunks = sim.run_process(fetch_all())
    got = sorted(row for c in chunks for row in c.to_rows())
    assert got == table.sorted_rows()


def test_objectstore_bills_bytes_scanned():
    sim, trace, store_backend = storage_env()
    store = ObjectStore(store_backend, compress=False)
    table = make_uniform_table(1000, chunk_rows=1000)
    keys = store.put_table("t", table)

    def fetch():
        yield from store.get(keys[0])

    sim.run_process(fetch())
    assert store.bill.bytes_scanned == store.objects[keys[0]].nbytes
    assert store.bill.dollars > 0


def test_objectstore_select_pushdown_reduces_returned_bytes():
    sim, trace, storage = storage_env()
    store = ObjectStore(storage)
    table = make_uniform_table(2000, distinct=100, chunk_rows=2000)
    keys = store.put_table("t", table)

    def run():
        full = yield from store.get(keys[0])
        reduced = yield from store.select(keys[0],
                                          predicate=col("k0") < 10,
                                          columns=["k0"])
        return full, reduced

    full, reduced = sim.run_process(run())
    assert reduced.num_rows < full.num_rows
    assert reduced.schema.names == ["k0"]
    # Billing covers scanned bytes regardless of what was returned.
    assert store.bill.bytes_scanned == pytest.approx(
        2 * store.objects[keys[0]].nbytes)
    # The returned rows are correct.
    expected = table.combined().filter(
        table.column("k0") < 10).project(["k0"])
    assert reduced.sorted_rows() == expected.sorted_rows()


def test_objectstore_select_on_empty_match():
    sim, trace, storage = storage_env()
    store = ObjectStore(storage)
    table = make_uniform_table(100, distinct=10, chunk_rows=100)
    keys = store.put_table("t", table)

    def run():
        return (yield from store.select(keys[0],
                                        predicate=col("k0") > 999))

    chunk = sim.run_process(run())
    assert chunk.num_rows == 0


def test_objectstore_select_empty_match_keeps_the_requested_schema():
    # Zero selectivity used to return before the projection: all of the
    # object's columns came back instead of the ones asked for.
    sim, trace, storage = storage_env()
    store = ObjectStore(storage)
    table = make_uniform_table(100, distinct=10, chunk_rows=100)
    [key] = store.put_table("t", table)

    def run(cutoff):
        return (yield from store.select(key, predicate=col("k0") > cutoff,
                                        columns=["k0"]))

    some = sim.run_process(run(4))
    none = sim.run_process(run(999))
    assert some.num_rows > 0 and none.num_rows == 0
    assert none.schema == some.schema
    assert none.schema.names == ["k0"]
    # The projection's input never arrived, so only the surviving
    # select was charged for one.
    row_nbytes = table.chunks[0].nbytes // 100
    assert trace.counters["device.s.cu.bytes.filter"] == 2 * 100 * row_nbytes
    assert (trace.counters["device.s.cu.bytes.project"]
            == some.num_rows * row_nbytes)


def test_objectstore_missing_key():
    sim, trace, storage = storage_env()
    store = ObjectStore(storage)
    with pytest.raises(KeyError):
        sim.run_process(store.get("nope"))


def test_objectstore_compression_shrinks_objects():
    sim, trace, storage = storage_env()
    table = make_uniform_table(5000, distinct=3, chunk_rows=5000)
    plain = ObjectStore(storage, compress=False)
    packed = ObjectStore(storage, compress=True)
    key_plain = plain.put_table("p", table)[0]
    key_packed = packed.put_table("c", table)[0]
    assert packed.objects[key_packed].nbytes < \
        plain.objects[key_plain].nbytes


# ---------------------------------------------------------------------------
# Data-center tax
# ---------------------------------------------------------------------------

def _reference_xor_cipher(payload: bytes, key: int = 0x5A) -> bytes:
    """The generator cipher ``xor_cipher`` replaced, kept verbatim
    (``xor_cipher`` has the one key ``0x5A``)."""
    keystream = bytes((key + i) % 256 for i in range(251))
    reps = len(payload) // len(keystream) + 1
    stream = (keystream * reps)[:len(payload)]
    return bytes(a ^ b for a, b in zip(payload, stream))


def test_xor_cipher_equals_the_generator_cipher():
    rng = np.random.default_rng(3)
    for length in (0, 1, 250, 251, 252, 503, 1999, 10_007):
        payload = rng.integers(0, 256, length, dtype=np.uint8).tobytes()
        assert xor_cipher(payload) == _reference_xor_cipher(payload), \
            length


def test_xor_cipher_involution():
    payload = b"the quick brown fox" * 100
    scrambled = xor_cipher(payload)
    assert scrambled != payload
    assert xor_cipher(scrambled) == payload


def test_tax_roundtrip_preserves_data():
    table = make_lineitem(500, chunk_rows=500)
    chunk = table.chunks[0]
    config = TaxConfig()
    egress = EgressOp(config)
    ingress = IngressOp(config)
    wire = egress.process(chunk)[0].chunk
    restored = ingress.process(wire)[0].chunk
    assert restored.sorted_rows() == chunk.sorted_rows()


def test_tax_wire_payload_is_compressed_and_scrambled():
    table = make_uniform_table(2000, distinct=3, chunk_rows=2000)
    chunk = table.chunks[0]
    wire = EgressOp(TaxConfig()).process(chunk)[0].chunk
    assert wire.nbytes < chunk.nbytes  # compression won
    # Without decryption, decompression fails (content is scrambled).
    import zlib
    with pytest.raises(zlib.error):
        zlib.decompress(wire.payload)


def test_tax_config_steps():
    assert TaxConfig().steps == ["serialize", "compress", "encrypt"]
    assert TaxConfig(compress=False).steps == ["serialize", "encrypt"]


def test_ingress_rejects_raw_chunk():
    table = make_uniform_table(10, chunk_rows=10)
    with pytest.raises(TypeError):
        IngressOp().process(table.chunks[0])


def test_tax_ops_report_every_step_they_charge():
    table = make_uniform_table(100, chunk_rows=100)
    chunk = table.chunks[0]
    [wire], charges = EgressOp(TaxConfig()).run(chunk)
    assert charges == [("serialize", float(chunk.nbytes)),
                       ("compress", float(chunk.nbytes)),
                       ("encrypt", float(chunk.nbytes))]
    [back], charges = IngressOp(TaxConfig()).run(wire.chunk)
    assert charges == [("deserialize", float(wire.chunk.nbytes)),
                       ("decrypt", float(wire.chunk.nbytes)),
                       ("decompress", float(wire.chunk.nbytes))]
    assert back.chunk.sorted_rows() == chunk.sorted_rows()
    off = TaxConfig(compress=False, encrypt=False)
    [plain], charges = EgressOp(off).run(chunk)
    assert charges == [("serialize", float(chunk.nbytes))]
    assert IngressOp(off).run(plain.chunk)[1] == [
        ("deserialize", float(plain.chunk.nbytes))]


def test_tax_stages_roundtrip_across_a_channel():
    """Paper claim C2's shape: an egress stage's wire payloads cross a
    channel into an ingress stage (the payload is not a Chunk)."""
    fabric = build_fabric(dataflow_spec())
    table = make_lineitem(3000, chunk_rows=1000)
    graph = StageGraph(fabric, name="tax")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    egress = graph.stage("egress", "storage.nic", [EgressOp(TaxConfig())])
    ingress = graph.stage("ingress", "compute0.nic",
                          [IngressOp(TaxConfig())])
    sink = graph.sink("out", "compute0.cpu")
    graph.connect(src, egress)
    graph.connect(egress, ingress)
    graph.connect(ingress, sink)
    result = graph.run()
    assert result.table().sorted_rows() == table.sorted_rows()
    assert fabric.sim.pending_events == 0


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------

MIB = 1 << 20


def bufferpool_env(capacity_bytes=4 * MIB):
    fabric = build_fabric(dataflow_spec())
    return fabric, BufferPool(fabric, capacity_bytes=capacity_bytes)


def test_bufferpool_hit_after_miss():
    fabric, pool = bufferpool_env()

    def run():
        miss = yield from pool.fetch("t", 0, MIB)
        hit = yield from pool.fetch("t", 0, MIB)
        return miss, hit

    miss, hit = fabric.sim.run_process(run())
    assert (miss, hit) == (False, True)
    assert pool.lru.hits == 1 and pool.lru.misses == 1
    assert [e.kind for e in fabric.trace.events
            if e.actor == "cache.bufferpool0"] == [EventKind.CACHE_MISS,
                                                   EventKind.CACHE_HIT]


def test_bufferpool_miss_moves_data_hit_does_not():
    fabric, pool = bufferpool_env()

    def run():
        yield from pool.fetch("t", 0, MIB)
        before = fabric.trace.counter("movement.network.bytes")
        yield from pool.fetch("t", 0, MIB)
        after = fabric.trace.counter("movement.network.bytes")
        return before, after

    before, after = fabric.sim.run_process(run())
    assert before > 0
    assert after == before


def test_bufferpool_evicts_and_frees_dram():
    """Chunks are held at their own size: three 0.75 MiB chunks fit a
    2 MiB pool twice over, so the fifth fetch evicts the oldest three
    and DRAM holds exactly what the pool does."""
    fabric, pool = bufferpool_env(capacity_bytes=2 * MIB)
    chunk = 3 * MIB // 4

    def run():
        for i in range(5):
            yield from pool.fetch("t", i, chunk)

    fabric.sim.run_process(run())
    assert pool.lru.evictions == 3
    assert pool.lru.used_bytes == 2 * chunk
    assert pool.peak_bytes == 2 * chunk
    assert fabric.compute[0].dram.used == 2 * chunk


def test_bufferpool_capacity_validation():
    """A chunk larger than the whole pool is refused before it moves."""
    fabric, pool = bufferpool_env(capacity_bytes=100)
    with pytest.raises(ValueError):
        fabric.sim.run_process(pool.fetch("t", 0, MIB))
    assert fabric.trace.counter("movement.network.bytes") == 0


@pytest.mark.parametrize("rows", [20_000, 80_000, 320_000])
def test_c5_pool_sized_to_twice_the_table_holds_the_table(rows,
                                                         monkeypatch):
    """C5's pool holds every chunk at its real size: its peak is the
    table, and it never evicts (a pool rounding each chunk up to a
    1 MiB page held a fraction of the table and evicted throughout)."""
    freed = []      # the pool frees a chunk's DRAM when it evicts it
    free = DRAM.free

    def counting_free(dram, nbytes):
        freed.append(nbytes)
        free(dram, nbytes)

    monkeypatch.setattr(DRAM, "free", counting_free)
    row = c5_no_bufferpool.run_size(rows)
    assert row["bufferpool_peak"] == row["table"]
    assert freed == []


# ---------------------------------------------------------------------------
# Caches: the data cache and result cache of §7.5 are one LRUCache each
# ---------------------------------------------------------------------------

def test_datacache_byte_budget_respected():
    cache = LRUCache(100, name="base")
    assert cache.put("a", "chunk a", 60) == []
    assert cache.put("b", "chunk b", 60) == [("a", 60)]   # evicts a
    assert cache.get("a") is None
    assert cache.get("b") == "chunk b"
    assert cache.used_bytes == 60
    assert cache.evictions == 1


def test_datacache_oversized_entry_not_admitted():
    """Refused, and an older copy of its key is dropped, not kept."""
    cache = LRUCache(100)
    cache.put("huge", "small copy", 10)
    assert cache.put("huge", "huge copy", 200) == []
    assert cache.get("huge") is None
    assert cache.used_bytes == 0
    assert cache.evictions == 0


def test_datacache_hit_tracking():
    fabric = build_fabric(dataflow_spec())
    cache = LRUCache(100, name="base", trace=fabric.trace)
    assert cache.get("x") is None
    cache.put("x", "chunk x", 10)
    assert cache.get("x") == "chunk x"
    assert (cache.hits, cache.misses) == (1, 1)
    events = [(e.kind, e.actor, e.label) for e in fabric.trace.events
              if e.actor == "cache.base"]
    assert events == [(EventKind.CACHE_MISS, "cache.base", "x"),
                      (EventKind.CACHE_HIT, "cache.base", "x")]


def test_plan_fingerprint_distinguishes_plans():
    q1 = Query.scan("t").filter(col("a") > 1)
    q2 = Query.scan("t").filter(col("a") > 2)
    q3 = Query.scan("t").filter(col("a") > 1)
    assert plan_fingerprint(q1.plan) != plan_fingerprint(q2.plan)
    assert plan_fingerprint(q1.plan) == plan_fingerprint(q3.plan)
    # A computed column's expression and an aggregate's op tell plans
    # apart, not just the names they bind: in the key and in the
    # describe() of the node it is built from.
    pairs = [
        (Query.scan("t").with_column("r", col("a") * col("b")),
         Query.scan("t").with_column("r", col("a") + col("b"))),
        (Query.scan("t").aggregate(["g"], [AggSpec("sum", "a", "r")]),
         Query.scan("t").aggregate(["g"], [AggSpec("max", "a", "r")])),
    ]
    for left, right in pairs:
        assert plan_fingerprint(left.plan) != plan_fingerprint(right.plan)
        assert left.plan.describe() != right.plan.describe()


def test_result_cache_roundtrip():
    """A rebuilt instance of one query hits the answer cached for it."""
    cache = LRUCache(64 << 20, name="results")

    def plan():
        return (Query.scan("t")
                .aggregate(["a"], [AggSpec("count", alias="n")]).plan)

    table = make_uniform_table(100, chunk_rows=100)
    assert cache.get(plan_fingerprint(plan())) is None
    cache.put(plan_fingerprint(plan()), table, table.nbytes)
    assert cache.get(plan_fingerprint(plan())) is table
    assert (cache.hits, cache.misses) == (1, 1)


def test_result_cache_evicts_by_bytes():
    table = make_uniform_table(1000, chunk_rows=1000)
    cache = LRUCache(int(table.nbytes * 1.5), name="results")
    k1 = plan_fingerprint(Query.scan("a").plan)
    k2 = plan_fingerprint(Query.scan("b").plan)
    cache.put(k1, table, table.nbytes)
    assert cache.put(k2, table, table.nbytes) == [(k1, table.nbytes)]
    assert cache.get(k1) is None
    assert cache.get(k2) is table
