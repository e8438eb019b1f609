"""Tests for §5.1's memory bus, the CPU's software rates and the LRU
cache."""

import pytest

from repro.hardware import (
    GIB,
    LRUCache,
    OpKind,
    build_fabric,
    dataflow_spec,
    memory_read,
)


# ---------------------------------------------------------------------------
# memory_read on a fabric's memory bus
# ---------------------------------------------------------------------------

def run_streams(n_streams, nbytes=16 << 20, dst="compute0.llc", **spec):
    """Run ``n_streams`` concurrent DRAM reads on a fresh Figure 6
    fabric; return it and each stream's finish time."""
    fabric = build_fabric(dataflow_spec(**spec))
    finish = []

    def stream():
        yield from memory_read(fabric, "compute0.dram", dst, nbytes)
        finish.append(fabric.sim.now)

    for _ in range(n_streams):
        fabric.sim.process(stream())
    fabric.sim.run()
    return fabric, finish


def controller_bandwidth(fabric):
    return fabric.spec.controller_gib * GIB


def test_single_stream_capped_at_fraction():
    """One core reaches ~80% of a controller, not 100% (§5.1)."""
    fabric, (finish,) = run_streams(1)
    controller = controller_bandwidth(fabric)
    assert (16 << 20) / finish == pytest.approx(0.8 * controller,
                                                abs=0.02 * controller)


def test_two_streams_exceed_single_stream():
    """Two streams together get more than one stream alone."""
    nbytes = 16 << 20
    _, (one,) = run_streams(1, nbytes)
    _, two = run_streams(2, nbytes)
    assert 2 * nbytes / max(two) > 1.1 * nbytes / one


def test_many_streams_saturate_at_channel_bandwidth():
    """Aggregate never exceeds the controllers; per-stream collapses."""
    nbytes = 16 << 20
    for n in (1, 2, 4, 8, 16):
        fabric, finish = run_streams(n, nbytes)
        socket = fabric.spec.controllers * controller_bandwidth(fabric)
        assert n * nbytes / max(finish) <= socket
    per_stream = sum(nbytes / t for t in finish) / n
    assert per_stream <= socket / n * 1.05
    assert per_stream < 0.8 * controller_bandwidth(fabric) / 2


def test_socket_round_robin_controllers():
    """Two streams each get a controller of their own: both keep a
    lone stream's bandwidth."""
    _, (one,) = run_streams(1)
    _, two = run_streams(2)
    assert two == [one, one]


def test_socket_aggregate_bandwidth():
    """The node's memory bus is ``controllers`` ports of
    ``controller_gib`` each."""
    fabric = build_fabric(dataflow_spec(controllers=4, controller_gib=10.0))
    (membus,) = fabric.route("compute0.dram", "compute0.llc")
    assert membus.segment == "membus"
    assert membus.ports * membus.bandwidth == pytest.approx(40.0 * GIB)


def test_controller_counts_movement():
    """Every byte read lands on the memory bus, one request per MiB."""
    nbytes = (3 << 20) + 1
    fabric, _ = run_streams(1, nbytes)
    assert fabric.trace.counter("movement.membus.bytes") == nbytes
    assert fabric.trace.link_report()["compute0.membus"]["chunks"] == 4


def test_socket_memory_read_crosses_caches():
    """A read that stops at the LLC crosses no cache; one that stops at
    the CPU crosses the cache bus too."""
    fabric, _ = run_streams(1, 1 << 20, dst="compute0.llc")
    assert fabric.trace.counter("movement.cache.bytes") == 0
    fabric, _ = run_streams(1, 1 << 20, dst="compute0.cpu")
    assert fabric.trace.counter("movement.cache.bytes") == 1 << 20
    assert fabric.trace.counter("movement.membus.bytes") == 1 << 20


def test_memory_read_needs_a_memory_bus_on_its_route():
    fabric = build_fabric(dataflow_spec())
    with pytest.raises(ValueError):
        fabric.sim.run_process(
            memory_read(fabric, "compute0.llc", "compute0.cpu", 1))


def test_core_rates_cover_all_kinds():
    cpu = build_fabric(dataflow_spec()).site_device("compute0.cpu")
    for kind in OpKind.ALL:
        assert cpu.supports(kind), kind


# ---------------------------------------------------------------------------
# LRUCache (byte-budgeted)
# ---------------------------------------------------------------------------

def test_lru_hit_after_insert():
    cache = LRUCache(2)
    assert cache.get("a") is None
    assert cache.put("a", "A", 1) == []
    assert cache.get("a") == "A"
    assert (cache.hits, cache.misses) == (1, 1)


def test_lru_evicts_least_recent():
    cache = LRUCache(2)
    cache.put("a", "A", 1)
    cache.put("b", "B", 1)
    cache.get("a")                            # refresh a
    assert cache.put("c", "C", 1) == [("b", 1)]   # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == "A"
    assert cache.evictions == 1


def test_lru_occupancy_never_exceeds_capacity():
    cache = LRUCache(3)
    for i in range(100):
        key = i % 7
        if cache.get(key) is None:
            cache.put(key, key, 1 + key % 2)
        assert cache.used_bytes <= 3


def test_lru_requires_positive_capacity():
    with pytest.raises(ValueError):
        LRUCache(0)
