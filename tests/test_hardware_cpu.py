"""Tests for the CPU socket model: §5.1's bandwidth claims."""

import pytest

from repro.hardware import GIB, CPUSocket, LRUCache, MemoryController, OpKind
from repro.sim import Simulator, Trace


def make_env():
    return Simulator(), Trace()


# ---------------------------------------------------------------------------
# MemoryController
# ---------------------------------------------------------------------------

def run_streams(n_streams, nbytes, fraction=0.8, bandwidth=100.0 * 1e6):
    """Run ``n_streams`` concurrent reads; return per-stream bandwidths."""
    sim, trace = make_env()
    ctrl = MemoryController(sim, trace, "mc", bandwidth=bandwidth,
                            single_stream_fraction=fraction,
                            chunk_bytes=1 << 16, arbitration_latency=0.0)
    finish = {}

    def stream(tag):
        yield from ctrl.access(nbytes)
        finish[tag] = sim.now

    for i in range(n_streams):
        sim.process(stream(i))
    sim.run()
    return {tag: nbytes / t for tag, t in finish.items()}, trace


def test_single_stream_capped_at_fraction():
    """One core reaches ~80% of controller bandwidth, not 100% (§5.1)."""
    bws, _ = run_streams(1, nbytes=10 << 20, fraction=0.8, bandwidth=1e8)
    only = list(bws.values())[0]
    assert only == pytest.approx(0.8e8, rel=0.02)


def test_two_streams_exceed_single_stream():
    """Two streams together get more than one stream alone."""
    one, _ = run_streams(1, nbytes=10 << 20, fraction=0.8, bandwidth=1e8)
    two, _ = run_streams(2, nbytes=10 << 20, fraction=0.8, bandwidth=1e8)
    aggregate = sum(two.values()) / 2 * 2  # both run concurrently
    # Aggregate of two streams approaches full bandwidth.
    total_two = 2 * (10 << 20) / ((10 << 20) / list(two.values())[0])
    assert total_two > list(one.values())[0] * 1.1


def test_many_streams_saturate_at_channel_bandwidth():
    """Aggregate never exceeds the channel; per-stream collapses (§5.1)."""
    n = 8
    bws, _ = run_streams(n, nbytes=1 << 20, fraction=0.8, bandwidth=1e8)
    per_stream = sum(bws.values()) / n
    # Streams finish at different times; check the slowest implies
    # aggregate <= channel bandwidth (within rounding).
    assert per_stream <= 1e8 / n * 1.05
    assert per_stream < 0.8e8 / 2


def test_controller_counts_movement():
    _, trace = run_streams(1, nbytes=1 << 20)
    assert trace.counter("memctrl.mc.bytes.read") == float(1 << 20)
    assert trace.counter("movement.membus.bytes") == float(1 << 20)


def test_invalid_fraction_rejected():
    sim, trace = make_env()
    with pytest.raises(ValueError):
        MemoryController(sim, trace, "mc", single_stream_fraction=0.0)
    with pytest.raises(ValueError):
        MemoryController(sim, trace, "mc2", single_stream_fraction=1.5)


# ---------------------------------------------------------------------------
# CPUSocket
# ---------------------------------------------------------------------------

def test_socket_round_robin_controllers():
    sim, trace = make_env()
    socket = CPUSocket(sim, trace, "s", cores=4, controllers=2)
    assert socket.controller_for(0) is socket.controllers[0]
    assert socket.controller_for(1) is socket.controllers[1]
    assert socket.controller_for(2) is socket.controllers[0]


def test_socket_memory_read_crosses_caches():
    sim, trace = make_env()
    socket = CPUSocket(sim, trace, "s", cores=2, controllers=1)

    def proc():
        yield from socket.memory_read(1 << 20, stream_id=0)

    sim.process(proc())
    sim.run()
    assert trace.counter("cache.s.L1.bytes") == float(1 << 20)
    assert trace.counter("cache.s.L3.bytes") == float(1 << 20)
    assert trace.counter("movement.cache.bytes") == 3 * float(1 << 20)


def test_socket_aggregate_bandwidth():
    sim, trace = make_env()
    socket = CPUSocket(sim, trace, "s", controllers=4,
                       controller_bandwidth=10.0 * GIB)
    assert socket.aggregate_bandwidth() == pytest.approx(40.0 * GIB)


def test_core_rates_cover_all_kinds():
    sim, trace = make_env()
    socket = CPUSocket(sim, trace, "s", cores=1)
    core = socket.core(0)
    for kind in OpKind.ALL:
        assert core.supports(kind), kind


# ---------------------------------------------------------------------------
# LRUCache
# ---------------------------------------------------------------------------

def test_lru_hit_after_insert():
    cache = LRUCache(capacity_blocks=2)
    assert cache.access("a") is False
    assert cache.access("a") is True
    assert cache.hit_rate == 0.5


def test_lru_evicts_least_recent():
    cache = LRUCache(capacity_blocks=2)
    cache.access("a")
    cache.access("b")
    cache.access("a")      # refresh a
    cache.access("c")      # evicts b
    assert "b" not in cache
    assert "a" in cache
    assert cache.evictions == 1


def test_lru_occupancy_never_exceeds_capacity():
    cache = LRUCache(capacity_blocks=3)
    for i in range(100):
        cache.access(i % 7)
        assert len(cache) <= 3


def test_lru_requires_positive_capacity():
    import pytest
    with pytest.raises(ValueError):
        LRUCache(capacity_blocks=0)


# ---------------------------------------------------------------------------
# Server / NUMA (§5.1)
# ---------------------------------------------------------------------------

def test_numa_remote_read_slower_than_local():
    sim, trace = make_env()
    from repro.hardware import Server
    server = Server(sim, trace, "srv", sockets=2)
    nbytes = 32 << 20

    def local():
        yield from server.memory_read(nbytes, socket=0, home_socket=0)

    sim.run_process(local())
    local_time = sim.now

    sim2 = Simulator()
    trace2 = Trace()
    server2 = Server(sim2, trace2, "srv", sockets=2)

    def remote():
        yield from server2.memory_read(nbytes, socket=0, home_socket=1)

    sim2.run_process(remote())
    assert sim2.now > local_time
    assert trace2.counter("numa.srv.remote_bytes") == nbytes
    assert trace2.counter("movement.xsocket.bytes") == nbytes


def test_numa_remote_reads_contend_on_interconnect():
    sim, trace = make_env()
    from repro.hardware import Server
    server = Server(sim, trace, "srv", sockets=2)
    nbytes = 16 << 20
    finish = []

    def remote(stream):
        yield from server.memory_read(nbytes, socket=0, home_socket=1,
                                      stream_id=stream)
        finish.append(sim.now)

    sim.process(remote(0))
    sim.run()
    solo = finish[0]

    sim2 = Simulator()
    trace2 = Trace()
    server2 = Server(sim2, trace2, "srv", sockets=2)
    finish2 = []

    def remote2(stream):
        yield from server2.memory_read(nbytes, socket=0,
                                       home_socket=1,
                                       stream_id=stream)
        finish2.append(sim2.now)

    for stream in range(4):
        sim2.process(remote2(stream))
    sim2.run()
    # Four concurrent remote readers share one interconnect: the last
    # finisher is measurably slower than a solo reader, and aggregate
    # remote bandwidth is capped by the interconnect.
    assert max(finish2) > 1.3 * solo
    aggregate_bw = 4 * nbytes / max(finish2)
    assert aggregate_bw <= server2.interconnect_bandwidth * 1.05


def test_server_requires_sockets():
    sim, trace = make_env()
    from repro.hardware import Server
    import pytest as _pytest
    with _pytest.raises(ValueError):
        Server(sim, trace, "bad", sockets=0)
