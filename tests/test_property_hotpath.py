"""Property test: the hot-path rewrites are observably invisible.

PR 9 moved the credit-flow hot path onto raw callbacks (the
``_Delivery`` / ``_CreditReturn`` chains) while keeping the generator reference implementation behind
``REPRO_SLOW_FLOW=1``.  These properties pin the contract with
randomized workloads instead of hand-picked scenarios:

* arbitrary mixes of timeout ladders and credit-channel traffic
  (random credit windows, link shapes, message sizes, producer gaps,
  consumer think times) produce **bit-identical** observable state —
  event ring, movement ledger, counters, payload order, final clock —
  on the fast path and on the reference path;
* every run drains: ``Simulator.pending_events == 0`` afterwards
  (a leaked event means a callback or credit return outlived the
  workload, which the fast path could otherwise hide).
"""

import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import CreditChannel
from repro.hardware.interconnect import Link
from repro.sim import Simulator, Store, Trace

delays = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
sizes = st.floats(min_value=1.0, max_value=65536.0, allow_nan=False)

workloads = st.fixed_dictionaries({
    # 0 links = in-node delivery; 1-2 links = serialized wire hops.
    "links": st.lists(
        st.tuples(st.floats(min_value=1e3, max_value=1e9,
                            allow_nan=False),   # bandwidth
                  st.floats(min_value=0.0, max_value=1e-3,
                            allow_nan=False)),  # latency
        min_size=0, max_size=2),
    "credits": st.integers(min_value=1, max_value=6),
    # (payload size, producer-side gap before the send)
    "messages": st.lists(st.tuples(sizes, delays),
                         min_size=1, max_size=15),
    # Consumer think times, cycled per ack.
    "thinks": st.lists(delays, min_size=1, max_size=4),
    # Independent timeout ladders racing the flow traffic.
    "tickers": st.lists(st.lists(delays, min_size=1, max_size=5),
                        min_size=0, max_size=3),
})


def _run_workload(spec: dict, slow_flow: bool = False) -> dict:
    """One deterministic run of ``spec``; returns observable state.

    The reference flag is read at ``CreditChannel`` construction, so
    setting it around the build is enough; saved and restored
    manually because hypothesis re-enters this function many times
    per test (no per-example fixture).
    """
    saved = os.environ.get("REPRO_SLOW_FLOW")
    try:
        os.environ.pop("REPRO_SLOW_FLOW", None)
        if slow_flow:
            os.environ["REPRO_SLOW_FLOW"] = "1"
        sim = Simulator()
        trace = Trace()
        links = [Link(sim, trace, f"l{i}", bandwidth=bandwidth,
                      latency=latency)
                 for i, (bandwidth, latency)
                 in enumerate(spec["links"])]
        inbox = Store(sim)
        channel = CreditChannel(sim, trace, "ch", links=links,
                                inbox=inbox, credits=spec["credits"],
                                actor="producer", direction="a->b")
        received: list[int] = []

        def producer():
            for index, (size, gap) in enumerate(spec["messages"]):
                if gap:
                    yield sim.timeout(gap)
                yield from channel.send(index, size)

        def consumer():
            thinks = spec["thinks"]
            for count in range(len(spec["messages"])):
                handle, payload = yield inbox.get()
                received.append(payload)
                think = thinks[count % len(thinks)]
                if think:
                    yield sim.timeout(think)
                handle.ack()

        def ticker(ladder):
            for delay in ladder:
                yield sim.timeout(delay)
                trace.add("ticker.steps")

        sim.process(producer())
        sim.process(consumer())
        for ladder in spec["tickers"]:
            sim.process(ticker(ladder))
        sim.run()
        return {
            "ring": [event.to_dict() for event in trace.events],
            "ledger": trace.movement_ledger(),
            "counters": dict(trace.counters),
            "received": received,
            "now": sim.now,
            "pending": sim.pending_events,
            "max_outstanding": channel.max_outstanding,
        }
    finally:
        if saved is None:
            os.environ.pop("REPRO_SLOW_FLOW", None)
        else:
            os.environ["REPRO_SLOW_FLOW"] = saved


@given(spec=workloads)
@settings(max_examples=40, deadline=None)
def test_fast_and_reference_paths_bit_identical(spec):
    fast = _run_workload(spec)
    slow_flow = _run_workload(spec, slow_flow=True)
    assert slow_flow == fast
    # Each path drained and delivered FIFO within the credit window.
    for state in (fast, slow_flow):
        assert state["pending"] == 0
        assert state["received"] == list(range(len(spec["messages"])))
        assert state["max_outstanding"] <= spec["credits"]
