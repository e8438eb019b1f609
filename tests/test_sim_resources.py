"""Unit tests for the Store and Resource primitives."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------

def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    received = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            received.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    log = []

    def consumer():
        item = yield store.get()
        log.append((sim.now, item))

    def producer():
        yield sim.timeout(7.0)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert log == [(7.0, "x")]


def test_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=2)
    log = []

    def producer():
        for i in range(3):
            yield store.put(i)
            log.append((sim.now, f"put{i}"))

    def consumer():
        yield sim.timeout(5.0)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    # Third put completes only after the consumer frees a slot at t=5.
    assert log == [(0.0, "put0"), (0.0, "put1"), (5.0, "put2")]


def test_store_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_occupancy_never_exceeds_capacity():
    sim = Simulator()
    store = Store(sim, capacity=3)
    seen = []

    def producer():
        for i in range(20):
            yield store.put(i)
            seen.append(len(store))

    def consumer():
        for _ in range(20):
            yield store.get()
            yield sim.timeout(1.0)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert max(seen) == 3


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------

def test_resource_serializes_when_capacity_one():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(tag, hold):
        yield res.request()
        log.append((sim.now, tag, "start"))
        yield sim.timeout(hold)
        res.release()
        log.append((sim.now, tag, "end"))

    sim.process(user("a", 2.0))
    sim.process(user("b", 3.0))
    sim.run()
    assert log == [
        (0.0, "a", "start"),
        (2.0, "a", "end"),
        (2.0, "b", "start"),
        (5.0, "b", "end"),
    ]


def test_resource_parallel_when_capacity_two():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    ends = []

    def user(hold):
        yield res.request()
        yield sim.timeout(hold)
        res.release()
        ends.append(sim.now)

    sim.process(user(2.0))
    sim.process(user(2.0))
    sim.run()
    assert ends == [2.0, 2.0]


def test_resource_fifo_head_of_line():
    """Grants follow request order: the request at the head of the
    line is served first (hardware FIFO)."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        yield res.request()
        yield sim.timeout(10.0)
        res.release()

    def first():
        yield sim.timeout(1.0)
        yield res.request()
        order.append(("first", sim.now))
        yield sim.timeout(1.0)
        res.release()

    def second():
        yield sim.timeout(2.0)
        yield res.request()
        order.append(("second", sim.now))
        res.release()

    sim.process(holder())
    sim.process(first())
    sim.process(second())
    sim.run()
    assert order == [("first", 10.0), ("second", 11.0)]


def test_resource_over_release_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_utilization():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        yield res.request()
        yield sim.timeout(3.0)
        res.release()
        yield sim.timeout(7.0)

    sim.process(user())
    sim.run()
    assert sim.now == 10.0
    assert res.utilization() == pytest.approx(0.3)
