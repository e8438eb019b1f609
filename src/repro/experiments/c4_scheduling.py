"""C4 — interference-aware scheduling (§7.3).

The paper: interference between plans contending for a limited
resource destroys sustained performance; the scheduler should (a)
choose among *data-path plan variants* per query and (b) dynamically
*rate-limit DMA engines*.  Only (a) is reproduced: here the contended
resource is the storage CU, and a fair share of the network only
restates the cap credit-based back-pressure already enforces.

Workload: a batch of concurrent LIKE queries — regex can only run on
the storage CU or the host CPU, so a naive scheduler piles everyone
onto the CU.  Policies compared: greedy full-offload and interference-
aware variant choice.  Ablation A1: the interference policy restricted
to a single variant (variant choice disabled) degenerates to greedy.
"""

import statistics

from .. import Catalog, Query, build_fabric, col, dataflow_spec, \
    make_lineitem
from ..obs import table_checksum
from ..scheduler import Scheduler
from . import at_least, below, exactly, same_answer

ROWS = 30_000
CHUNK = 4_096
N_QUERIES = 6


def make_env():
    # A modest CU and fast disk/network make the CU the contended
    # resource — the regime where scheduling decisions matter.
    fabric = build_fabric(dataflow_spec(storage_cu_scale=0.3,
                                        ssd_gib_per_s=16,
                                        network_gbits=400))
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(ROWS, chunk_rows=CHUNK))
    return fabric, catalog


def query():
    return (Query.scan("lineitem")
            .filter(col("l_comment").like("%express%"))
            .project(["l_orderkey"]))


def run_policy(policy: str, variants: int = 3) -> dict:
    fabric, catalog = make_env()
    scheduler = Scheduler(fabric, catalog, policy=policy,
                          variants_per_query=variants)
    for i in range(N_QUERIES):
        scheduler.submit(f"q{i}", query(), arrival=i * 1e-4)
    records = scheduler.run()
    latencies = [r.latency for r in records]
    label = policy if variants > 1 else f"{policy} (1 variant, A1)"
    return {
        "policy": label,
        "makespan": scheduler.makespan(),
        "mean_latency": statistics.mean(latencies),
        "p95_latency": sorted(latencies)[int(0.95 * len(latencies))],
        "variants_used": len({r.variant_name for r in records}),
        "checksum": table_checksum(records[0].table),
        "_answers": [r.table.sorted_rows() for r in records],
    }


def run() -> list[dict]:
    rows = [
        run_policy("greedy"),
        run_policy("interference", variants=1),      # ablation A1
        run_policy("interference"),
    ]
    # The exact oracle: every query of every policy answers as greedy's
    # first did.  Only its verdict is kept.
    reference = rows[0]["_answers"][0]
    for row in rows:
        row["answers_agree"] = all(answer == reference
                                   for answer in row.pop("_answers"))
    return rows


def _vs_greedy(rows, policy, key):
    """Row ``policy`` (1: A1, 2: interference) over greedy, on ``key``."""
    return rows[policy][key] / rows[0][key]


CHECKS = {
    "every_policy_computes_the_same_answer": same_answer,
    # A1: one variant == no room to maneuver.
    "a1_uses_one_variant": lambda rows: exactly(rows[1]["variants_used"], 1),
    "a1_is_no_better_than_greedy":
        lambda rows: at_least(_vs_greedy(rows, 1, "makespan"), 0.95),
    # Variant-aware scheduling beats greedy clearly.
    "interference_spreads_across_variants":
        lambda rows: at_least(rows[2]["variants_used"], 2),
    "interference_cuts_makespan_20pct":
        lambda rows: below(_vs_greedy(rows, 2, "makespan"), 0.8),
    "interference_cuts_mean_latency":
        lambda rows: below(_vs_greedy(rows, 2, "mean_latency"), 1),
}
