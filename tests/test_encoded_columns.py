"""String columns handed over encoded: same arena, none of the payload.

``Table.from_arrays`` takes a string column either dense or as an
:class:`Encoded` (codes, pool); the generators use the second form.
These tests pin that the two forms are indistinguishable once stored —
by values and by bytes, never by the clock:

* adopting ``(codes, pool)`` builds the column the dense path builds
  from ``pool[codes]`` (a hypothesis property, with ``np.unique`` as a
  third, independent oracle);
* the generators return the tables the dense generators of PR 19
  returned — kept here verbatim as the reference — so the RNG stream
  did not shift;
* building a table no longer peaks far above what it retains;
* statistics read the arena, they do not rebuild it;
* a malformed encoded column is a ``ValueError`` naming the column.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (Catalog, DataType, Encoded, Field, Schema,
                              Table)
from repro.relational.arena import (_DICT_MAX_POOL_FRACTION, ArenaColumn,
                                    _adopt, _encode)
from repro.relational.datagen import (_WORDS, lineitem_schema,
                                      make_lineitem, make_orders,
                                      orders_schema, uniform_ints)


def same_column(got, want):
    """Two ``ArenaColumn``s equal in layout, values and dtypes."""
    assert got.is_dict == want.is_dict
    parts = ("codes", "pool") if want.is_dict else ("buffer",)
    for part in parts:
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        assert np.array_equal(a, b), part
        assert a.flags.c_contiguous, part


# ---------------------------------------------------------------------------
# (a) adopting (codes, pool) == encoding pool[codes]
# ---------------------------------------------------------------------------

_WIDTH = 3
# Short alphabet and lengths past the field width: duplicates, unused
# entries and entries that collide only after truncation all occur.
_POOLS = st.lists(st.text("abc", max_size=_WIDTH + 2), min_size=1,
                  max_size=12)


@given(pool=_POOLS, data=st.data())
@settings(max_examples=300, deadline=None)
def test_adopt_equals_encode_of_the_decoded_column(pool, data):
    codes = np.array(data.draw(st.lists(
        st.integers(0, len(pool) - 1), max_size=16)), dtype=np.int64)
    field = Field("s", DataType.STRING, _WIDTH)
    column = Encoded(codes, pool).checked(field)
    assert column.pool.dtype == field.numpy_dtype      # truncated here
    dense = np.array(pool, dtype=field.numpy_dtype)[codes]

    adopted, encoded = _adopt(column), _encode(dense)
    same_column(adopted, encoded)
    assert np.array_equal(adopted.decode(0, len(codes)), dense)

    # Independent of both: the definition of the canonical layout.
    uniques, inverse = np.unique(dense, return_inverse=True)
    wants_dict = 0 < len(uniques) <= _DICT_MAX_POOL_FRACTION * len(dense)
    assert adopted.is_dict == wants_dict
    if wants_dict:
        assert np.array_equal(adopted.pool, uniques)
        assert np.array_equal(adopted.codes, inverse)
        # At most 12 pool entries: one byte a code.
        assert adopted.codes.dtype == np.int8


@pytest.mark.parametrize("rows,distinct,is_dict", [
    (0, 0, False), (1, 1, False), (4, 3, True), (4, 4, False),
    (8, 6, True), (8, 7, False)])
def test_pool_fraction_boundary(rows, distinct, is_dict):
    """Both sides of ``_DICT_MAX_POOL_FRACTION`` (0.75), and no rows."""
    pool = [f"v{i}" for i in range(max(distinct, 1))]
    codes = np.arange(rows) % max(distinct, 1)
    column = Encoded(codes, pool).checked(Field("s", DataType.STRING, 4))
    adopted = _adopt(column)
    assert adopted.is_dict == is_dict
    same_column(adopted, _encode(column.pool[codes]))


# ---------------------------------------------------------------------------
# (b) the generators against the dense generators they replaced
# ---------------------------------------------------------------------------

def dense_random_strings(rng, n, words=4, width=32, pool=4096):
    """The phrase generator as it was before PR 20, verbatim."""
    pool = min(pool, max(1, n))
    picks = rng.integers(0, len(_WORDS), size=(pool, words))
    phrases = np.array([" ".join([_WORDS[j] for j in row])
                        for row in picks.tolist()], dtype=f"<U{width}")
    return phrases[rng.integers(0, pool, size=n)]


def dense_lineitem(n, seed=7):
    rng = np.random.default_rng(seed)
    orders = max(1, n // 4)
    return Table.from_arrays(lineitem_schema(), {
        "l_orderkey": uniform_ints(rng, n, 0, orders - 1),
        "l_partkey": uniform_ints(rng, n, 0, max(1, n // 10)),
        "l_quantity": uniform_ints(rng, n, 1, 50),
        "l_extendedprice": rng.uniform(1.0, 100000.0, size=n),
        "l_discount": rng.uniform(0.0, 0.1, size=n).round(2),
        "l_shipdate": uniform_ints(rng, n, 8000, 11000),
        "l_returnflag": rng.choice(np.array(["A", "N", "R"]), size=n),
        "l_comment": dense_random_strings(rng, n, words=5, width=44),
    })


def dense_orders(n, seed=11):
    rng = np.random.default_rng(seed)
    customers = max(1, n // 10)
    return Table.from_arrays(orders_schema(), {
        "o_orderkey": np.arange(n, dtype=np.int64),
        "o_custkey": uniform_ints(rng, n, 0, customers - 1),
        "o_totalprice": rng.uniform(100.0, 500000.0, size=n),
        "o_orderdate": uniform_ints(rng, n, 8000, 11000),
        "o_priority": uniform_ints(rng, n, 1, 5),
        "o_comment": dense_random_strings(rng, n, words=4, width=32),
    })


@pytest.mark.parametrize("n", [0, 1, 2, 5, 100, 2_000, 3_000, 100_000])
@pytest.mark.parametrize("make,dense", [
    (make_lineitem, dense_lineitem), (make_orders, dense_orders)])
def test_generators_equal_their_dense_predecessors(make, dense, n):
    for seed in ({}, {"seed": 3}):
        got, want = make(n, **seed), dense(n, **seed)
        assert got.num_rows == want.num_rows == n
        for field in want.schema.fields:
            same_column(got._arena.columns[field.name],
                        want._arena.columns[field.name])
            a, b = got.column(field.name), want.column(field.name)
            assert a.dtype == b.dtype == field.numpy_dtype
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# (c) footprint: nothing n x width is built on the way in
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [make_lineitem, make_orders])
def test_building_a_table_peaks_below_twice_what_it_retains(make):
    make(10)                              # one-time imports and caches
    tracemalloc.start()
    try:
        table = make(200_000)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.num_rows == 200_000
    # PR 19: 66.8 MB peak over 12.6 retained (lineitem), 51.3 over 9.3
    # (orders) — the dense comment column plus its tolist().
    assert peak <= 2 * retained, (peak, retained)


# ---------------------------------------------------------------------------
# Statistics and re-chunking read the arena they have
# ---------------------------------------------------------------------------

def test_string_statistics_come_off_the_pool(monkeypatch):
    """PR 19 decoded 35 MB of ``l_comment`` into the arena's cache, for
    the catalog's life, to answer ``distinct``."""
    catalog = Catalog()
    table = catalog.register("lineitem", make_lineitem(200_000))
    columns = catalog.stats("lineitem").columns
    decodes = []
    original = ArenaColumn.decode
    monkeypatch.setattr(ArenaColumn, "decode", lambda self, *rows: (
        decodes.append(rows), original(self, *rows))[1])
    stats = {name: columns[name] for name in ("l_comment", "l_returnflag")}
    assert decodes == []                               # nothing decoded
    monkeypatch.undo()
    for name, got in stats.items():
        assert table._arena.columns[name].is_dict
        assert got.distinct == len(set(table.column(name).tolist()))
        assert (got.min, got.max) == (None, None)
    assert stats["l_comment"].distinct == 4_095    # one duplicate phrase


def test_plain_string_statistics_keep_the_set_based_count():
    values = np.array([f"u{i % 40}" for i in range(50)], dtype="<U8")
    table = Table.from_arrays(
        Schema([Field("s", DataType.STRING, 8)]), {"s": values})
    assert not table._arena.columns["s"].is_dict
    catalog = Catalog()
    catalog.register("t", table)
    assert catalog.stats("t").columns["s"].distinct == 40


# ---------------------------------------------------------------------------
# Robustness: the encoded form is validated once, at the door
# ---------------------------------------------------------------------------

_SCHEMA = Schema([Field("k", DataType.INT64),
                  Field("tag", DataType.STRING, 4)])
_KEYS = np.arange(3, dtype=np.int64)

BAD_INPUTS = {
    # name: (columns, what the message must say besides the column)
    "float codes": ({"k": _KEYS, "tag": Encoded(
        np.array([0.0, 1.0, 0.0]), ["a", "b"])}, "float64"),
    "bool codes": ({"k": _KEYS, "tag": Encoded(
        np.array([True, False, True]), ["a", "b"])}, "bool"),
    "negative code": ({"k": _KEYS, "tag": Encoded(
        np.array([0, -1, 1]), ["a", "b"])}, r"\[-1, 1\]"),
    "code past the pool": ({"k": _KEYS, "tag": Encoded(
        np.array([0, 2, 1]), ["a", "b"])}, r"\[0, 2\].*\[0, 2\)"),
    "any code into an empty pool": ({"k": _KEYS, "tag": Encoded(
        np.array([0, 0, 0]), [])}, r"\[0, 0\)"),
    "2-D codes": ({"k": _KEYS, "tag": Encoded(
        np.zeros((3, 1), dtype=np.int64), ["a"])}, r"\(3, 1\)"),
    "2-D pool": ({"k": _KEYS, "tag": Encoded(
        np.zeros(3, dtype=np.int64), [["a", "b"]])}, r"\(1, 2\)"),
    "ragged pool": ({"k": _KEYS, "tag": Encoded(
        np.zeros(3, dtype=np.int64), [["a", "b"], ["c"]])}, "<U4"),
    "undecodable pool": ({"k": _KEYS, "tag": Encoded(
        np.zeros(3, dtype=np.int64), [b"\xff"])}, "<U4"),
    "encoded non-string field": ({"k": Encoded(
        np.zeros(3, dtype=np.int64), ["a"]), "tag": np.array(["a"] * 3)},
        "int64"),
    "length disagrees": ({"k": _KEYS, "tag": Encoded(
        np.zeros(2, dtype=np.int64), ["a"])}, ": 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_malformed_encoded_column_is_a_named_value_error(case):
    columns, says = BAD_INPUTS[case]
    culprit = next(name for name, column in columns.items()
                   if isinstance(column, Encoded))
    with pytest.raises(ValueError, match=f"'{culprit}'.*{says}"):
        Table.from_arrays(_SCHEMA, columns)


def test_well_formed_encoded_column_is_taken_as_given():
    """Unsigned and narrow codes, a wide pool, an unused entry."""
    table = Table.from_arrays(_SCHEMA, {"k": _KEYS, "tag": Encoded(
        np.array([2, 0, 2], dtype=np.uint8), ["beta-long", "unused", "al"])})
    assert table.column("tag").tolist() == ["al", "beta", "al"]
    assert table._arena.columns["tag"].pool.tolist() == ["al", "beta"]
