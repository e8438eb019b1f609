"""Tests for the cloud substrate: object store, tax, buffer pool, caches."""

import pytest

from repro.cloud import (
    BufferPool,
    DataCache,
    EgressOp,
    IngressOp,
    ObjectStore,
    ResultCache,
    TaxConfig,
    plan_fingerprint,
    xor_cipher,
)
from repro.engine import AggSpec, Query
from repro.flow import StageGraph
from repro.hardware import ComputationalStorage, build_fabric, dataflow_spec
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
    store = ObjectStore(storage, trace)
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
    store = ObjectStore(store_backend, trace, compress=False)
    table = make_uniform_table(1000, chunk_rows=1000)
    keys = store.put_table("t", table)

    def fetch():
        yield from store.get(keys[0])

    sim.run_process(fetch())
    assert store.bill.bytes_scanned == store.objects[keys[0]].nbytes
    assert store.bill.dollars > 0


def test_objectstore_select_pushdown_reduces_returned_bytes():
    sim, trace, storage = storage_env()
    store = ObjectStore(storage, trace)
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
    store = ObjectStore(storage, trace)
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
    store = ObjectStore(storage, trace)
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
    store = ObjectStore(storage, trace)
    with pytest.raises(KeyError):
        sim.run_process(store.get("nope"))


def test_objectstore_compression_shrinks_objects():
    sim, trace, storage = storage_env()
    table = make_uniform_table(5000, distinct=3, chunk_rows=5000)
    plain = ObjectStore(storage, trace, compress=False)
    packed = ObjectStore(storage, trace, compress=True)
    key_plain = plain.put_table("p", table)[0]
    key_packed = packed.put_table("c", table)[0]
    assert packed.objects[key_packed].nbytes < \
        plain.objects[key_plain].nbytes


# ---------------------------------------------------------------------------
# Data-center tax
# ---------------------------------------------------------------------------

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


def test_tax_event_is_stamped_where_the_ops_work_starts():
    # Tax ops hold no sim handle and stamp their ring event from the
    # trace clock as they run; an executor runs an op first and then
    # replays its charges, so that is the start of the chunk's work on
    # the device (it used to be the end of it).
    fabric = build_fabric(dataflow_spec())
    table = make_lineitem(1000, chunk_rows=1000)
    graph = StageGraph(fabric, name="tax")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    egress = graph.stage("egress", "storage.nic",
                         [EgressOp(TaxConfig(), trace=fabric.trace)])
    sink = graph.sink("out", "compute0.cpu", [IngressOp(TaxConfig())])
    graph.connect(src, egress)
    graph.connect(egress, sink)
    graph.run()
    [event] = [e for e in fabric.trace.events
               if e.kind == EventKind.TAX_EGRESS]
    serialize, compress, encrypt = fabric.trace.spans[
        f"device.{egress.device.name}"]
    assert event.ts == serialize.start < serialize.end
    assert serialize.end <= compress.start < encrypt.end


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------

def bufferpool_env(capacity_pages=4):
    fabric = build_fabric(dataflow_spec())
    pool = BufferPool(fabric, capacity_bytes=capacity_pages << 20,
                      page_bytes=1 << 20)
    return fabric, pool


def test_bufferpool_hit_after_miss():
    fabric, pool = bufferpool_env()

    def run():
        miss = yield from pool.fetch("t", 0, 1 << 20)
        hit = yield from pool.fetch("t", 0, 1 << 20)
        return miss, hit

    miss, hit = fabric.sim.run_process(run())
    assert (miss, hit) == (False, True)
    assert pool.hits == 1 and pool.misses == 1


def test_bufferpool_miss_moves_data_hit_does_not():
    fabric, pool = bufferpool_env()

    def run():
        yield from pool.fetch("t", 0, 1 << 20)
        before = fabric.trace.counter("movement.network.bytes")
        yield from pool.fetch("t", 0, 1 << 20)
        after = fabric.trace.counter("movement.network.bytes")
        return before, after

    before, after = fabric.sim.run_process(run())
    assert before > 0
    assert after == before


def test_bufferpool_evicts_and_frees_dram():
    fabric, pool = bufferpool_env(capacity_pages=2)

    def run():
        for i in range(5):
            yield from pool.fetch("t", i, 1 << 20)

    fabric.sim.run_process(run())
    assert pool.resident_bytes <= 2 << 20
    assert pool.peak_bytes <= 2 << 20
    assert fabric.compute[0].dram.used <= 2 << 20


def test_bufferpool_capacity_validation():
    fabric = build_fabric(dataflow_spec())
    with pytest.raises(ValueError):
        BufferPool(fabric, capacity_bytes=100, page_bytes=1 << 20)


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------

def test_datacache_byte_budget_respected():
    cache = DataCache(capacity_bytes=100)
    cache.insert("a", 60)
    cache.insert("b", 60)   # evicts a
    assert "a" not in cache
    assert "b" in cache
    assert cache.used_bytes <= 100
    assert cache.evictions == 1


def test_datacache_oversized_entry_not_admitted():
    cache = DataCache(capacity_bytes=100)
    cache.insert("huge", 200)
    assert "huge" not in cache


def test_datacache_hit_tracking():
    cache = DataCache(capacity_bytes=100)
    assert cache.lookup("x") is False
    cache.insert("x", 10)
    assert cache.lookup("x") is True
    assert cache.hit_rate == 0.5


def test_plan_fingerprint_distinguishes_plans():
    q1 = Query.scan("t").filter(col("a") > 1)
    q2 = Query.scan("t").filter(col("a") > 2)
    q3 = Query.scan("t").filter(col("a") > 1)
    assert plan_fingerprint(q1.plan) != plan_fingerprint(q2.plan)
    assert plan_fingerprint(q1.plan) == plan_fingerprint(q3.plan)


def test_result_cache_roundtrip():
    cache = ResultCache()
    plan = (Query.scan("t")
            .aggregate(["a"], [AggSpec("count", alias="n")]).plan)
    table = make_uniform_table(100, chunk_rows=100)
    assert cache.get(plan) is None
    cache.put(plan, table)
    assert cache.get(plan) is table
    assert cache.hit_rate == 0.5


def test_result_cache_evicts_by_bytes():
    table = make_uniform_table(1000, chunk_rows=1000)
    cache = ResultCache(capacity_bytes=int(table.nbytes * 1.5))
    p1 = Query.scan("a").plan
    p2 = Query.scan("b").plan
    cache.put(p1, table)
    cache.put(p2, table)   # evicts p1
    assert cache.get(p1) is None
    assert cache.get(p2) is table
