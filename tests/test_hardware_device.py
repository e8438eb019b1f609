"""Unit tests for Device, Link, and movement accounting."""

import pytest

from repro.hardware import (
    Device,
    Link,
    OpKind,
    UnsupportedOperation,
    pcie_link,
    rdma_link,
)
from repro.sim import Simulator, Trace


def make_env():
    sim = Simulator()
    return sim, Trace()


# ---------------------------------------------------------------------------
# Device
# ---------------------------------------------------------------------------

def test_device_service_time():
    sim, trace = make_env()
    dev = Device(sim, trace, "d", rates={OpKind.FILTER: 100.0}, startup=1.0)
    assert dev.service_time(OpKind.FILTER, 200.0) == pytest.approx(3.0)


def test_device_execute_charges_time_and_counters():
    sim, trace = make_env()
    dev = Device(sim, trace, "d", rates={OpKind.FILTER: 100.0})

    def proc():
        yield from dev.execute(OpKind.FILTER, 500.0)
        return sim.now

    assert sim.run_process(proc()) == pytest.approx(5.0)
    assert trace.counter("device.d.bytes.filter") == 500.0
    assert trace.counter("device.d.ops") == 1


def test_device_unsupported_kind_raises():
    sim, trace = make_env()
    dev = Device(sim, trace, "d", rates={OpKind.FILTER: 100.0})
    assert not dev.supports(OpKind.SORT)
    with pytest.raises(UnsupportedOperation):
        dev.rate_for(OpKind.SORT)


def test_device_default_rate_fallback():
    sim, trace = make_env()
    dev = Device(sim, trace, "d", rates={}, default_rate=50.0)
    assert dev.supports(OpKind.SORT)
    assert dev.rate_for(OpKind.SORT) == 50.0


def test_device_slots_limit_concurrency():
    sim, trace = make_env()
    dev = Device(sim, trace, "d", rates={OpKind.FILTER: 100.0}, slots=1)
    done = []

    def user(tag):
        yield from dev.execute(OpKind.FILTER, 100.0)
        done.append((sim.now, tag))

    sim.process(user("a"))
    sim.process(user("b"))
    sim.run()
    assert done == [(1.0, "a"), (2.0, "b")]


def test_device_parallel_slots():
    sim, trace = make_env()
    dev = Device(sim, trace, "d", rates={OpKind.FILTER: 100.0}, slots=2)
    done = []

    def user(tag):
        yield from dev.execute(OpKind.FILTER, 100.0)
        done.append((sim.now, tag))

    sim.process(user("a"))
    sim.process(user("b"))
    sim.run()
    assert done == [(1.0, "a"), (1.0, "b")]


def test_device_busy_span_recorded():
    sim, trace = make_env()
    dev = Device(sim, trace, "d", rates={OpKind.FILTER: 100.0})

    def proc():
        yield from dev.execute(OpKind.FILTER, 300.0)

    sim.process(proc())
    sim.run()
    assert trace.busy_time("device.d") == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------

def test_link_transfer_time():
    sim, trace = make_env()
    link = Link(sim, trace, "l", bandwidth=1000.0, latency=0.5)
    assert link.transfer_time(2000.0) == pytest.approx(2.5)


def test_link_transfer_counts_bytes_and_segment():
    sim, trace = make_env()
    link = Link(sim, trace, "l", bandwidth=1000.0, latency=0.0,
                segment="network")

    def proc():
        yield from link.transfer(800.0, flow="q1")

    sim.process(proc())
    sim.run()
    assert trace.counter("link.l.bytes") == 800.0
    assert trace.counter("movement.network.bytes") == 800.0
    assert trace.counter("flow.q1.bytes") == 800.0


def test_link_contention_serializes():
    sim, trace = make_env()
    link = Link(sim, trace, "l", bandwidth=100.0, latency=0.0, ports=1)
    done = []

    def sender(tag):
        yield from link.transfer(100.0)
        done.append((sim.now, tag))

    sim.process(sender("a"))
    sim.process(sender("b"))
    sim.run()
    assert done == [(1.0, "a"), (2.0, "b")]


def test_link_rejects_nonpositive_bandwidth():
    sim, trace = make_env()
    with pytest.raises(ValueError):
        Link(sim, trace, "l", bandwidth=0.0, latency=0.0)


def test_pcie_generations_double_bandwidth():
    sim, trace = make_env()
    gen3 = pcie_link(sim, trace, "g3", generation=3)
    gen5 = pcie_link(sim, trace, "g5", generation=5)
    ratio = gen5.bandwidth / gen3.bandwidth
    assert ratio == pytest.approx(4.0, rel=0.01)


def test_pcie_unknown_generation_rejected():
    sim, trace = make_env()
    with pytest.raises(ValueError):
        pcie_link(sim, trace, "bad", generation=2)


def test_rdma_bandwidth_matches_gbits():
    sim, trace = make_env()
    link = rdma_link(sim, trace, "r", gbits=100.0)
    assert link.bandwidth == pytest.approx(12.5e9)
    assert link.latency < 10e-6


def test_remaining_link_factories():
    from repro.hardware import cache_bus, ethernet_link, memory_bus
    sim, trace = make_env()
    eth = ethernet_link(sim, trace, "e", gbits=400.0)
    assert eth.bandwidth == pytest.approx(50e9)
    assert eth.segment == "network"
    mem = memory_bus(sim, trace, "m", gib_per_s=20.0)
    assert mem.segment == "membus"
    cache = cache_bus(sim, trace, "c")
    assert cache.segment == "cache"
    assert cache.latency < mem.latency < eth.latency


def test_cxl_requires_gen5_plus():
    from repro.hardware import cxl_link
    sim, trace = make_env()
    with pytest.raises(ValueError):
        cxl_link(sim, trace, "bad", generation=4)
