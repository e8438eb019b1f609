"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return sim.now

    assert sim.run_process(proc()) == 5.0
    assert sim.now == 5.0


def test_zero_delay_timeout_fires_at_current_time():
    sim = Simulator()

    def proc():
        yield sim.timeout(0.0)
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_timeout_fires_with_no_value():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(1.0)
        return sim.now, value

    assert sim.run_process(proc()) == (1.0, None)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        fired.append(tag)

    sim.process(waiter(3.0, "c"))
    sim.process(waiter(1.0, "a"))
    sim.process(waiter(2.0, "b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    fired = []

    def waiter(tag):
        yield sim.timeout(1.0)
        fired.append(tag)

    for tag in ["first", "second", "third"]:
        sim.process(waiter(tag))
    sim.run()
    assert fired == ["first", "second", "third"]


def test_process_waits_for_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 42

    def parent():
        result = yield sim.process(child())
        return result, sim.now

    assert sim.run_process(parent()) == (42, 2.0)


def test_process_return_value_none_by_default():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    assert sim.run_process(proc()) is None


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "done"

    def parent():
        proc = sim.process(child())
        yield sim.timeout(5.0)
        result = yield proc  # already finished
        return result, sim.now

    assert sim.run_process(parent()) == ("done", 5.0)


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(failing())
        except ValueError as exc:
            return str(exc)

    assert sim.run_process(parent()) == "boom"


def test_unhandled_process_exception_raises_from_run():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(failing())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 17

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_manual_event_succeed():
    sim = Simulator()
    evt = sim.event()
    results = []

    def waiter():
        value = yield evt
        results.append((sim.now, value))

    def firer():
        yield sim.timeout(4.0)
        evt.succeed("signal")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert results == [(4.0, "signal")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    evt = sim.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(1.0)
        t2 = sim.timeout(3.0)
        results = yield sim.all_of([t1, t2])
        return sim.now, results

    assert sim.run_process(proc()) == (3.0, {0: None, 1: None})


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        yield sim.all_of([])
        return sim.now

    assert sim.run_process(proc()) == 0.0


def test_any_of_fires_on_first():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(1.0)
        t2 = sim.timeout(9.0)
        results = yield sim.any_of([t1, t2])
        return sim.now, results

    # The first event (index 0) alone has fired.
    assert sim.run_process(proc()) == (1.0, {0: None})


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(target):
        yield sim.timeout(2.0)
        target.interrupt("wake up")

    target = sim.process(sleeper())
    sim.process(interrupter(target))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_interrupting_dead_process_is_an_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(0.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_run_until_stops_clock():
    sim = Simulator()
    fired = []

    def late():
        yield sim.timeout(10.0)
        fired.append("late")

    sim.process(late())
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert fired == []
    sim.run()
    assert fired == ["late"]
    assert sim.now == 10.0


def test_run_until_past_is_error():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_nested_processes_compose():
    sim = Simulator()

    def leaf(delay):
        yield sim.timeout(delay)
        return delay

    def mid():
        a = yield sim.process(leaf(1.0))
        b = yield sim.process(leaf(2.0))
        return a + b

    def root():
        total = yield sim.process(mid())
        return total, sim.now

    assert sim.run_process(root()) == (3.0, 3.0)


def test_all_of_fails_if_member_fails():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise ValueError("member died")

    def waiter():
        proc = sim.process(failing())
        other = sim.timeout(5.0)
        try:
            yield sim.all_of([proc, other])
        except ValueError as exc:
            return f"caught: {exc}"

    assert sim.run_process(waiter()) == "caught: member died"


def test_any_of_fails_if_first_event_fails():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise RuntimeError("early death")

    def waiter():
        proc = sim.process(failing())
        try:
            yield sim.any_of([proc, sim.timeout(10.0)])
        except RuntimeError:
            return "caught"

    assert sim.run_process(waiter()) == "caught"


def test_event_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().fail("not an exception")


def test_interrupt_while_waiting_on_store_get():
    from repro.sim import Store
    sim = Simulator()
    store = Store(sim)
    log = []

    def consumer():
        try:
            yield store.get()
        except Interrupt:
            log.append(("interrupted", sim.now))

    def interrupter(target):
        yield sim.timeout(3.0)
        target.interrupt()

    target = sim.process(consumer())
    sim.process(interrupter(target))
    sim.run()
    assert log == [("interrupted", 3.0)]


def test_pending_events_diagnostic():
    sim = Simulator()
    assert sim.pending_events == 0
    sim.timeout(1.0)
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0
