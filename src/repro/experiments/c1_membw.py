"""C1 — single-core vs controller memory bandwidth (§5.1).

The paper's numbers: "the best rate that a single thread can achieve
on a read workload is 75-85% of the controller's bandwidth and has
remained constant for a long time", and controllers are
"oversubscribed w.r.t. the number of cores": no single core saturates
a controller, but a moderate number of memory-bound cores saturates
all of them and per-core bandwidth collapses.

Sweeps the number of concurrently reading cores on the Figure 6
fabric's node (two controllers): each core streams from DRAM to the
LLC over the memory bus, and the rows report per-core and aggregate
bandwidth.
"""

from ..hardware import GIB, build_fabric, dataflow_spec, memory_read
from . import above, at_most, between

READ_BYTES = 64 << 20


def run_cores(n_cores: int) -> dict:
    fabric = build_fabric(dataflow_spec(cores=n_cores))
    controller = fabric.spec.controller_gib * GIB
    finish = {}

    def stream(i):
        yield from memory_read(fabric, "compute0.dram", "compute0.llc",
                               READ_BYTES)
        finish[i] = fabric.sim.now

    for i in range(n_cores):
        fabric.sim.process(stream(i))
    fabric.sim.run()
    per_core = [READ_BYTES / t for t in finish.values()]
    aggregate = n_cores * READ_BYTES / max(finish.values())
    return {
        "cores": n_cores,
        "per_core_gib": sum(per_core) / len(per_core) / GIB,
        "aggregate_gib": aggregate / GIB,
        "fraction_of_one_controller":
            (sum(per_core) / len(per_core)) / controller,
        "fraction_of_socket":
            aggregate / (fabric.spec.controllers * controller),
    }


def run() -> list[dict]:
    return [run_cores(n) for n in (1, 2, 4, 8, 16, 32)]


CHECKS = {
    # The 75-85% claim.
    "one_core_gets_75_to_85pct": lambda rows: between(
        rows[0]["fraction_of_one_controller"], 0.75, 0.85),
    "aggregate_never_exceeds_the_socket": lambda rows: at_most(
        max(r["fraction_of_socket"] for r in rows), 1.01),
    "many_cores_saturate_the_socket":
        lambda rows: above(rows[-1]["fraction_of_socket"], 0.9),
    # 32 cores on 2 controllers: each gets a sliver of a lone core's.
    "per_core_bandwidth_collapses_8x": lambda rows: above(
        rows[0]["per_core_gib"] / rows[-1]["per_core_gib"], 8),
}
