"""F1 — the conventional von Neumann data path (Figure 1, §2.1).

The paper: database engines are still designed for the
disk → memory → caches → registers path, so *every* byte of a table
crosses the entire path before the CPU can decide it is not needed.
For a selective query the movement amplification is 1/selectivity:
the engine moves the whole table to return a sliver of it.

This experiment runs a selection on the Volcano engine over the Figure 1
node (local NVMe storage) at decreasing selectivities and reports
bytes per path segment versus the bytes actually returned.
"""

from .. import (
    Catalog,
    Query,
    VolcanoEngine,
    build_fabric,
    col,
    conventional_spec,
    make_uniform_table,
)
from . import above, exactly

ROWS = 200_000
DISTINCT = 10_000
CHUNK = 16_384


def run_selectivity(selectivity: float) -> dict:
    fabric = build_fabric(conventional_spec())
    catalog = Catalog()
    table = make_uniform_table(ROWS, columns=4, distinct=DISTINCT,
                               chunk_rows=CHUNK)
    catalog.register("t", table)
    cutoff = int(DISTINCT * selectivity)
    query = Query.scan("t").filter(col("k0") < cutoff)
    result = VolcanoEngine(fabric, catalog).execute(query)
    returned = result.table.nbytes
    return {
        "selectivity": selectivity,
        "rows_out": result.rows,
        "storage": result.bytes_on("storage"),
        "pcie_or_cxl": result.bytes_on("pcie") + result.bytes_on("cxl"),
        "membus": result.bytes_on("membus"),
        "cache": result.bytes_on("cache"),
        "returned": returned,
        "amplification": (result.bytes_on("membus") / returned
                          if returned else float("inf")),
        "elapsed": result.elapsed,
    }


def run() -> list[dict]:
    return [run_selectivity(s)
            for s in (1.0, 0.5, 0.1, 0.01, 0.001)]


CHECKS = {
    # The full table crosses the memory bus at every selectivity, to
    # the byte...
    "full_table_crosses_the_memory_bus":
        lambda rows: exactly(len({r["membus"] for r in rows}), 1),
    # ...and amplification explodes as selectivity drops.
    "amplification_grows_100x": lambda rows: above(
        rows[-1]["amplification"] / rows[0]["amplification"], 100),
}
