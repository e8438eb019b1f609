"""Synthetic workload generators.

TPC-H-flavoured relations (lineitem / orders at a controllable
scale) plus generic helpers.  All generators are seeded, so every
experiment is reproducible bit for bit.  The schemas carry wide comment columns on purpose: they make
projection pushdown matter, which is the point of Figure 2.

String columns are born encoded: a generator draws ``n`` indices into
a small pool of phrases and hands the table exactly that (an
:class:`~repro.relational.arena.Encoded`); ``n x width`` unicode is
never built just for the arena to turn it back into those indices.
Integers and codes are narrowed as drawn (the draws stay int64).
"""

from __future__ import annotations

import numpy as np

from .arena import Encoded, narrowest
from .catalog import Catalog
from .schema import DataType, Field, Schema
from .table import Table

__all__ = [
    "uniform_ints",
    "lineitem_schema",
    "orders_schema",
    "sensor_schema",
    "make_lineitem",
    "make_orders",
    "make_sensor_readings",
    "make_uniform_table",
    "standard_catalog",
]

_WORDS = (
    "packages sleep quickly express pending bold final ironic regular "
    "special deposits requests accounts platelets foxes theodolites "
    "pinto beans instructions dependencies carefully furiously blithely "
    "slyly quietly ruthlessly silent dolphins warhorses epitaphs"
).split()


def uniform_ints(rng: np.random.Generator, n: int, low: int,
                 high: int) -> np.ndarray:
    """``n`` uniform integers in [low, high], narrowest-typed."""
    return rng.integers(low, high + 1, size=n,
                        dtype=np.int64).astype(narrowest(low, high))


def _phrases(rng: np.random.Generator, n: int, words: int,
             width: int) -> Encoded:
    """``n`` phrases of ``words`` dictionary words, truncated to width.

    Phrases are drawn from a pre-built pool of up to 4096 combinations
    (a bounded vocabulary, like real comment columns), which keeps
    generation vectorized and the column encoded from birth.
    """
    pool = min(4096, max(1, n))
    picks = rng.integers(0, len(_WORDS), size=(pool, words))
    # The <U{width} dtype truncates each joined phrase, identical to
    # a per-row ``" ".join(...)[:width]``.
    phrases = np.array([" ".join([_WORDS[j] for j in row])
                        for row in picks.tolist()], dtype=f"<U{width}")
    return Encoded(uniform_ints(rng, n, 0, pool - 1), phrases)


def lineitem_schema() -> Schema:
    return Schema([
        Field("l_orderkey", DataType.INT64),
        Field("l_partkey", DataType.INT64),
        Field("l_quantity", DataType.INT64),
        Field("l_extendedprice", DataType.FLOAT64),
        Field("l_discount", DataType.FLOAT64),
        Field("l_shipdate", DataType.INT64),       # days since epoch
        Field("l_returnflag", DataType.STRING, 1),
        Field("l_comment", DataType.STRING, 44),
    ])


def orders_schema() -> Schema:
    return Schema([
        Field("o_orderkey", DataType.INT64),
        Field("o_custkey", DataType.INT64),
        Field("o_totalprice", DataType.FLOAT64),
        Field("o_orderdate", DataType.INT64),
        Field("o_priority", DataType.INT64),       # 1..5
        Field("o_comment", DataType.STRING, 32),
    ])


def sensor_schema() -> Schema:
    return Schema([
        Field("ts", DataType.INT64),
        Field("sensor_id", DataType.INT64),
        Field("temperature", DataType.FLOAT64),
        Field("status", DataType.INT64),           # 0 ok, 1 warn, 2 err
    ])


def make_lineitem(n: int, seed: int = 7, orders: int = 0,
                  chunk_rows: int = 65536) -> Table:
    """A lineitem-flavoured fact table of ``n`` rows.

    ``orders`` bounds l_orderkey (default n // 4, ~4 lines per order),
    so lineitem joins orders of :func:`make_orders` with the same n.
    """
    rng = np.random.default_rng(seed)
    orders = orders or max(1, n // 4)
    schema = lineitem_schema()
    columns = {
        "l_orderkey": uniform_ints(rng, n, 0, orders - 1),
        "l_partkey": uniform_ints(rng, n, 0, max(1, n // 10)),
        "l_quantity": uniform_ints(rng, n, 1, 50),
        "l_extendedprice": rng.uniform(1.0, 100000.0, size=n),
        "l_discount": rng.uniform(0.0, 0.1, size=n).round(2),
        "l_shipdate": uniform_ints(rng, n, 8000, 11000),
        "l_returnflag": Encoded(rng.choice(3, size=n).astype(np.int8),
                                ["A", "N", "R"]),
        "l_comment": _phrases(rng, n, words=5, width=44),
    }
    return Table.from_arrays(schema, columns, name="lineitem",
                             chunk_rows=chunk_rows)


def make_orders(n: int, seed: int = 11,
                chunk_rows: int = 65536) -> Table:
    """An orders-flavoured table; o_orderkey is the dense key 0..n-1,
    o_custkey one of ``n // 10`` customers."""
    rng = np.random.default_rng(seed)
    customers = max(1, n // 10)
    schema = orders_schema()
    columns = {
        "o_orderkey": np.arange(n, dtype=narrowest(0, n - 1)),
        "o_custkey": uniform_ints(rng, n, 0, customers - 1),
        "o_totalprice": rng.uniform(100.0, 500000.0, size=n),
        "o_orderdate": uniform_ints(rng, n, 8000, 11000),
        "o_priority": uniform_ints(rng, n, 1, 5),
        "o_comment": _phrases(rng, n, words=4, width=32),
    }
    return Table.from_arrays(schema, columns, name="orders",
                             chunk_rows=chunk_rows)


def make_sensor_readings(n: int, sensors: int = 100, seed: int = 17,
                         error_rate: float = 0.01,
                         chunk_rows: int = 65536) -> Table:
    """Time-ordered sensor readings for the streaming example."""
    rng = np.random.default_rng(seed)
    schema = sensor_schema()
    status = np.zeros(n, dtype=np.int8)
    noise = rng.uniform(0, 1, size=n)
    status[noise < error_rate * 3] = 1
    status[noise < error_rate] = 2
    columns = {
        "ts": np.arange(n, dtype=narrowest(0, n - 1)),
        "sensor_id": uniform_ints(rng, n, 0, sensors - 1),
        "temperature": rng.normal(20.0, 5.0, size=n),
        "status": status,
    }
    return Table.from_arrays(schema, columns, name="sensors",
                             chunk_rows=chunk_rows)


def make_uniform_table(n: int, columns: int = 4, distinct: int = 1000,
                       seed: int = 23, chunk_rows: int = 65536) -> Table:
    """A generic integer table ``k0..k{columns-1}`` for micro tests."""
    rng = np.random.default_rng(seed)
    schema = Schema([Field(f"k{i}", DataType.INT64)
                     for i in range(columns)])
    data = {f"k{i}": uniform_ints(rng, n, 0, distinct - 1)
            for i in range(columns)}
    return Table.from_arrays(schema, data, name="uniform",
                             chunk_rows=chunk_rows)


# The generators are seeded (the same rows come back bit for bit) and
# every scenario treats tables as read-only, so one catalog per
# (rows, chunk rows) serves the bench harness, the figure scenarios
# and the serving scenarios of a process alike.
_STANDARD_CATALOGS: dict[tuple[int, int], Catalog] = {}


def standard_catalog(rows: int, chunk_rows: int = 1000) -> Catalog:
    """The memoised lineitem + orders (rows / 4) + uniform catalog."""
    catalog = _STANDARD_CATALOGS.get((rows, chunk_rows))
    if catalog is None:
        orders = max(1, rows // 4)
        catalog = Catalog()
        catalog.register("lineitem", make_lineitem(
            rows, orders=orders, chunk_rows=chunk_rows))
        catalog.register("orders", make_orders(
            orders, chunk_rows=chunk_rows))
        catalog.register("uniform", make_uniform_table(
            rows, columns=3, distinct=50, chunk_rows=chunk_rows))
        _STANDARD_CATALOGS[(rows, chunk_rows)] = catalog
    return catalog
