"""C8 — CXL: hardware coherence + the PCIe bandwidth ladder (§6).

Two claims:

1. **Coherence**: with PCIe/RDMA-era *software* coherence a writer
   must ship invalidation RPCs to every sharer and sharers re-fetch
   whole regions; CXL's ``cxl.cache`` does line-granular hardware
   invalidation with no CPU involvement.  "Cache coherency expands
   the design space ... many active agents can cache and operate on
   the latest version simultaneously."  Sweep the number of sharers
   and compare invalidation traffic and time.

2. **Bandwidth**: each PCIe generation doubles bandwidth ("it does
   not seem we will lack bandwidth improvements"), so the time to
   ship a working set over the host interconnect halves per
   generation — which keeps shrinking the penalty of disaggregation.
"""

from ..hardware import (
    CoherenceDomain,
    Device,
    GIB,
    OpKind,
    cxl_link,
    pcie_link,
)
from ..hardware.interconnect import PCIE_LANE_GBPS
from ..sim import Simulator, Trace
from . import above, below, exactly

REGION = 1 << 20       # 1 MiB shared region
WRITES = 20


def run_coherence(mode: str, sharers: int) -> dict:
    sim = Simulator()
    trace = Trace()
    link = cxl_link(sim, trace, "ic") if mode == "hardware" else \
        pcie_link(sim, trace, "ic")
    cpu = Device(sim, trace, "hostcpu",
                 rates={OpKind.GENERIC: 8.0 * GIB})
    domain = CoherenceDomain(sim, trace, "region", link=link, mode=mode,
                             cpu=cpu)
    domain.add_sharer("writer")
    for i in range(sharers):
        sharer_cpu = Device(sim, trace, f"sharer{i}",
                            rates={OpKind.GENERIC: 8.0 * GIB})
        domain.add_sharer(f"agent{i}", sharer_cpu)

    def run():
        for _ in range(WRITES):
            yield from domain.write(REGION, writer="writer")

    sim.run_process(run())
    return {
        "mode": mode,
        "sharers": sharers,
        "coherence_bytes": sum(row["bytes"]
                               for row in trace.movement_ledger()
                               if row["actor"].startswith("coherence")),
        "elapsed": sim.now,
        "cpu_busy": trace.busy_time("device.hostcpu"),
    }


def run_pcie_ladder() -> list[dict]:
    rows = []
    for gen in sorted(PCIE_LANE_GBPS):
        sim = Simulator()
        trace = Trace()
        link = pcie_link(sim, trace, f"gen{gen}", generation=gen)

        def run():
            yield from link.transfer(1 << 30)

        sim.run_process(run())
        rows.append({
            "pcie_gen": gen,
            "bandwidth_gib_s": link.bandwidth / GIB,
            "transfer_1gib": sim.now,
        })
    return rows


def run():
    coherence = [run_coherence(mode, sharers)
                 for sharers in (1, 2, 4, 8)
                 for mode in ("software", "hardware")]
    ladder = run_pcie_ladder()
    return coherence, ladder


def _per_sharers(rows, mode, key):
    return [next(r[key] for r in rows[0] if r["mode"] == mode
                 and r["sharers"] == sharers) for sharers in (1, 2, 4, 8)]


def _hw_over_sw(rows, key):
    """Worst hardware/software ratio of ``key`` over the sharer sweep."""
    return max(hw / sw for hw, sw in zip(_per_sharers(rows, "hardware", key),
                                         _per_sharers(rows, "software", key)))


def _ladder(rows):
    """Transfer-time ratio between consecutive PCIe generations."""
    times = [r["transfer_1gib"] for r in rows[1]]
    return [a / b for a, b in zip(times, times[1:])]


CHECKS = {
    "hardware_sends_under_a_quarter_of_the_bytes":
        lambda rows: below(_hw_over_sw(rows, "coherence_bytes"), 1 / 4),
    "hardware_coherence_is_faster":
        lambda rows: below(_hw_over_sw(rows, "elapsed"), 1),
    "hardware_coherence_uses_no_cpu": lambda rows: exactly(
        max(_per_sharers(rows, "hardware", "cpu_busy")), 0.0),
    "software_coherence_uses_the_cpu": lambda rows: above(
        min(_per_sharers(rows, "software", "cpu_busy")), 0.0),
    # Software cost grows with sharers; each PCIe gen ~doubles.
    "software_cost_grows_with_sharers": lambda rows: above(
        _per_sharers(rows, "software", "coherence_bytes")[3]
        / _per_sharers(rows, "software", "coherence_bytes")[1], 3),
    "each_pcie_generation_doubles": lambda rows: (
        all(1.8 < ratio < 2.2 for ratio in _ladder(rows)),
        min(_ladder(rows))),
}
