"""E1 (extension) — zone maps: fetch as little as possible (§2.1).

The paper: engines "try to reduce the amount of data movement by, for
instance, using indexes in conventional engines or zone maps in cloud
native engines to fetch as little data as possible" — but these
mechanisms help only when the physical layout cooperates, and they
are orthogonal to (and compose with) processing along the data path.

This experiment runs a selective filter over the same rows stored
*clustered* (sorted on the filter column) and *shuffled*, with zone
maps on/off, on both engines, and finally shows zone maps composing
with storage pushdown: pruning cuts what is read, pushdown cuts what
is shipped.  The clustered Volcano case runs once more per spelling
of the same range (``<``, ``BETWEEN``, ``AND``, ``OR``, ``IN``): each
must prune alike.
"""

import numpy as np

from .. import (
    Catalog,
    DataflowEngine,
    DataType,
    Query,
    Schema,
    Table,
    VolcanoEngine,
    build_fabric,
    col,
    cpu_only,
    dataflow_spec,
    pushdown,
)
from . import above, at_most, below, exactly

ROWS = 200_000
CHUNK = 8_192
CUTOFF = ROWS // 20          # 5% selectivity

#: The same 5 % range, spelled every way a zone map can prune it.
SPELLINGS = {
    "k0 < c": col("k0") < CUTOFF,
    "k0 BETWEEN 0 AND c-1": col("k0").between(0, CUTOFF - 1),
    "k0 >= 0 AND k0 < c": (col("k0") >= 0) & (col("k0") < CUTOFF),
    "k0 < c OR k0 > ROWS": (col("k0") < CUTOFF) | (col("k0") > ROWS),
    "k0 IN (0, ..., c-1)": col("k0").isin(range(CUTOFF)),
}


def make_table(clustered: bool) -> Table:
    schema = Schema.of(("k0", DataType.INT64), ("k1", DataType.INT64),
                       ("pad", DataType.STRING, 32))
    rng = np.random.default_rng(5)
    k0 = np.arange(ROWS, dtype=np.int64)
    if not clustered:
        k0 = rng.permutation(k0)
    return Table.from_arrays(schema, {
        "k0": k0,
        "k1": rng.integers(0, 1000, size=ROWS),
        "pad": np.full(ROWS, "x" * 32),
    }, chunk_rows=CHUNK)


def _load(clustered: bool):
    fabric = build_fabric(dataflow_spec())
    catalog = Catalog()
    catalog.register("t", make_table(clustered))
    return fabric, catalog


def _measured(fabric, result) -> dict:
    return {
        "rows": result.rows,
        "storage_read": fabric.trace.counter("movement.storage.bytes"),
        "network": result.bytes_on("network"),
        "pruned_chunks": int(
            fabric.trace.counter("zonemap.pruned_chunks")),
        "elapsed": result.elapsed,
    }


def run_case(layout: str, engine_name: str, zonemaps: bool,
             push: bool = False) -> dict:
    fabric, catalog = _load(clustered=layout == "clustered")
    query = Query.scan("t").filter(SPELLINGS["k0 < c"]).project(["k1"])
    if engine_name == "volcano":
        engine = VolcanoEngine(fabric, catalog, use_zonemaps=zonemaps)
        result = engine.execute(query)
    else:
        engine = DataflowEngine(fabric, catalog, use_zonemaps=zonemaps)
        placement = (pushdown(query.plan, fabric) if push
                     else cpu_only(query.plan, fabric))
        result = engine.execute(query, placement=placement)
    return {"layout": layout,
            "engine": engine_name + ("+pushdown" if push else ""),
            "zonemaps": zonemaps, **_measured(fabric, result)}


def run_spelling(spelling: str) -> dict:
    """Clustered, Volcano, zone maps on: the range as ``spelling``."""
    fabric, catalog = _load(clustered=True)
    query = Query.scan("t").filter(SPELLINGS[spelling]).project(["k1"])
    result = VolcanoEngine(fabric, catalog, use_zonemaps=True).execute(query)
    return {"layout": "clustered", "engine": "volcano", "zonemaps": True,
            "spelling": spelling, **_measured(fabric, result)}


def run() -> list[dict]:
    rows = []
    for layout in ("clustered", "shuffled"):
        for zonemaps in (False, True):
            rows.append(run_case(layout, "volcano", zonemaps))
            rows.append(run_case(layout, "dataflow", zonemaps,
                                 push=True))
    return rows + [run_spelling(spelling) for spelling in SPELLINGS]


def _pick(rows, layout, engine, zonemaps, key):
    return next(r[key] for r in rows if r["layout"] == layout
                and r["engine"] == engine and r["zonemaps"] == zonemaps
                and "spelling" not in r)


def _spellings_alike(rows):
    """Every spelling returns the range and prunes as ``k0 < c`` does."""
    spelled = [r for r in rows if "spelling" in r]
    pruned = _pick(rows, "clustered", "volcano", True, "pruned_chunks")
    return (len(spelled) == len(SPELLINGS)
            and all(r["rows"] == CUTOFF and r["pruned_chunks"] == pruned
                    for r in spelled),
            min(r["pruned_chunks"] for r in spelled))


def _pruned_share(rows, layout, engine, key):
    """``key`` with zone maps over ``key`` without."""
    return (_pick(rows, layout, engine, True, key)
            / _pick(rows, layout, engine, False, key))


CHECKS = {
    "same_answer_everywhere": lambda rows: (
        {r["rows"] for r in rows} == {CUTOFF}, len({r["rows"] for r in rows})),
    # Clustered: pruning cuts reads by ~the selectivity.
    "clustered_pruning_reads_under_10pct": lambda rows: below(
        _pruned_share(rows, "clustered", "volcano", "storage_read"), 0.1),
    "clustered_pruning_skips_20_chunks": lambda rows: above(
        _pick(rows, "clustered", "volcano", True, "pruned_chunks"), 20),
    # Shuffled: pruning is useless.
    "shuffled_pruning_skips_nothing": lambda rows: exactly(
        _pick(rows, "shuffled", "volcano", True, "pruned_chunks"), 0),
    "shuffled_pruning_reads_everything": lambda rows: exactly(
        _pick(rows, "shuffled", "volcano", True, "storage_read"),
        _pick(rows, "shuffled", "volcano", False, "storage_read")),
    # Composition: zone maps + pushdown beat pushdown alone on both.
    "pruning_composes_with_pushdown_on_reads": lambda rows: below(
        _pruned_share(rows, "clustered", "dataflow+pushdown",
                      "storage_read"), 0.1),
    "pruning_composes_with_pushdown_on_network": lambda rows: at_most(
        _pruned_share(rows, "clustered", "dataflow+pushdown", "network"), 1),
    "every_spelling_of_the_range_prunes_alike": _spellings_alike,
}
