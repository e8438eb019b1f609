"""C3 — credit-based flow control (§7.1).

The paper: queues along the pipeline connected by DMA engines, with
credit-based flow control — "easy to implement and ... low traffic".
For that design to be sound, three things must hold, and this experiment
sweeps the credit window to show them:

* receiver-side buffering is bounded by the window (that is the point
  of credits: bounded queues, no drops);
* beyond a modest window the pipeline reaches the same throughput as
  an unbounded queue — flow control costs (almost) no performance;
* the counter-stream of credit messages is a negligible fraction of
  the data moved.
"""

from ..flow import CreditChannel
from ..flow.credits import END
from ..hardware import Link
from ..sim import Simulator, Store, Trace
from . import above, below, exactly

MESSAGES = 400
CHUNK_BYTES = 16 * 1024.0
LINK_BW = 1e9          # 1 GB/s
LINK_LATENCY = 20e-6   # a long-ish pipe: the bandwidth-delay product
                       # spans several chunks, so the window matters


def run_window(credits: int) -> dict:
    sim = Simulator()
    trace = Trace()
    link = Link(sim, trace, "pipe", bandwidth=LINK_BW,
                latency=LINK_LATENCY, ports=2)
    inbox = Store(sim)
    channel = CreditChannel(sim, trace, "ch", links=[link], inbox=inbox,
                            credits=credits)

    def producer():
        for i in range(MESSAGES):
            yield from channel.send(i, CHUNK_BYTES)
        yield from channel.send_end()

    def consumer():
        while True:
            ch, payload = yield inbox.get()
            ch.ack()
            if payload is None:
                continue
            if payload is END:
                return
            # Consumer processes at ~link speed.
            yield sim.timeout(CHUNK_BYTES / LINK_BW)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    data_bytes = MESSAGES * CHUNK_BYTES
    control = trace.counter("flow.control.total_bytes")
    return {
        "credits": credits,
        "elapsed": sim.now,
        "throughput_mib_s": data_bytes / sim.now / (1 << 20),
        "max_outstanding": channel.max_outstanding,
        "buffer_bound": credits * CHUNK_BYTES,
        "control_overhead": control / data_bytes,
    }


def run() -> list[dict]:
    return [run_window(c) for c in (1, 2, 4, 8, 16, 64, 1024)]


CHECKS = {
    # Bounded occupancy (the §7.1 invariant).
    "occupancy_never_exceeds_the_window": lambda rows: exactly(
        sum(r["max_outstanding"] > r["credits"] for r in rows), 0),
    "credits_cost_under_0_1pct": lambda rows: below(
        max(r["control_overhead"] for r in rows), 0.001),
    # Tiny windows throttle the pipe (credits have to round-trip)...
    "one_credit_throttles_the_pipe": lambda rows: below(
        rows[0]["throughput_mib_s"] / rows[-1]["throughput_mib_s"], 0.7),
    # ...but a modest window recovers full throughput.
    "eight_credits_match_an_unbounded_queue": lambda rows: above(
        next(r["throughput_mib_s"] for r in rows if r["credits"] == 8)
        / rows[-1]["throughput_mib_s"], 0.95),
}
