"""The join index against two independent references, on both indexes.

``JoinState.install`` indexes the build side by what it is: dense and
unique integer keys get the direct row table (``row_of[key - lo]`` is
the build row, a probe is one read), everything else — duplicates,
sparse, string, float keys — the sorted index and binary search.  Both
must return the exact ``(probe_idx, build_idx)`` arrays — row order is
part of the contract, because float sums downstream depend on it — of

* ``reference_match``: the two-``searchsorted`` ``install`` + ``match``
  every join used before PR 19, kept here verbatim, and
* ``nested_loop``: the definition of an equi join, which shares no
  code with either.

Every case also pins which index ``install`` chose, and the last test
counts — exactly, on any host — what the three scale shapes cost a
client: one rendering per result, no sort to build, no ``repeat`` to
probe.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bench, obs
from repro.analysis import QUERIES
from repro.engine import DataflowEngine, VolcanoEngine
from repro.engine.operators import JoinState
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import (
    Chunk,
    DataType,
    Field,
    Schema,
    standard_catalog,
)

INT64 = np.iinfo(np.int64)


def reference_match(build_keys, probe_keys):
    """``JoinState.install`` + ``match`` as they were before PR 19."""
    sort_order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[sort_order]
    left = np.searchsorted(sorted_keys, probe_keys, side="left")
    right = np.searchsorted(sorted_keys, probe_keys, side="right")
    counts = right - left
    probe_idx = np.repeat(np.arange(len(probe_keys)), counts)
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64))
    # Ranges [left[i], right[i]) concatenated.
    offsets = np.repeat(right - np.cumsum(counts), counts)
    build_pos = np.arange(total) + offsets
    return probe_idx, sort_order[build_pos]


def nested_loop(build_keys, probe_keys):
    """Every (probe row, build row) with equal keys, in probe order and,
    within one probe row, in build order (what a stable sort keeps)."""
    build, probe = build_keys.tolist(), probe_keys.tolist()
    return [(i, j) for i, p in enumerate(probe)
            for j, b in enumerate(build) if b == p]


def installed(build_keys) -> JoinState:
    kind = build_keys.dtype.kind
    field = (Field("k", DataType.STRING, width=8) if kind == "U" else
             Field("k", DataType.FLOAT64 if kind == "f" else DataType.INT64))
    state = JoinState()
    state.install(Chunk(Schema([field]), {"k": build_keys}), "k")
    return state


def assert_matches(state, probe_keys):
    build_keys = state.build_chunk.column("k")
    probe_idx, build_idx = state.match(probe_keys)
    want_probe, want_build = reference_match(build_keys, probe_keys)
    for got, want in ((probe_idx, want_probe), (build_idx, want_build)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert list(zip(probe_idx.tolist(), build_idx.tolist())) == nested_loop(
        build_keys, probe_keys)


def check(build_keys, probe_keys, index):
    state = installed(build_keys)
    # The index under test: exactly one of the two is built.
    assert (state.row_of is not None) == (index == "direct")
    assert (state.sorted_keys is not None) == (index == "search")
    assert_matches(state, probe_keys)


def ints(values, dtype=np.int64):
    return np.array(values, dtype=dtype)


WORDS = ["", "a", "ab", "b", "zz"]
FLOATS = [-1.5, -0.0, 0.0, 0.25, 3.0, 1e300]
GIGA = 10 ** 9

# Dense and unique build keys: name -> (build keys, probe keys).
UNIQUE = {
    "dense": (ints([3, 1, 2, 7, 5]), ints([1, 3, 4, 7, 9, 3])),
    "negative": (ints([-3, -1, -2, 4]), ints([-4, -3, 0, 4, 5])),
    "int32-probe": (ints([5, 6, 9]), ints([6, 9, 4, 10, 5], np.int32)),
    "int8-probe": (ints([5, 6, 9]), ints([6, 9, -128, 127, 5], np.int8)),
    "int32-probe-int64-sized-build": (
        ints([2 ** 40, 2 ** 40 + 2]),
        ints([0, 2 ** 31 - 1, -2 ** 31], np.int32)),
    "int32-build": (ints([5, 6, 9], np.int32), ints([6, 2 ** 40, 9, 7])),
    "probe-at-the-type-limits": (
        ints([5, 6, 9]), ints([INT64.min, 6, INT64.max, 9, 4])),
    "build-at-the-type-limits": (
        ints([INT64.max, INT64.max - 1]), ints([INT64.min, INT64.max, 0])),
    "build-at-the-lower-limit": (
        ints([INT64.min + 2, INT64.min]),
        ints([INT64.min, INT64.max, 0, INT64.min + 1, INT64.min + 2])),
    "probe-outside-lo-hi": (ints([10, 12, 11]), ints([9, 13, 12, -50, 500])),
    "duplicate-probe-keys": (ints([1, 2, 4]), ints([1, 2, 1, 1, 3])),
    "all-miss": (ints([1, 2, 3]), ints([7, 8, -1])),
    "empty-probe": (ints([1, 2, 3]), ints([])),
    "one-row-build": (ints([4]), ints([4, 5, 4])),
}

# name: (build keys, probe keys, the index install chooses)
CASES = {
    "sparse": (ints([3, 1, 2, 3, 7, 1]) * GIGA,
               ints([1, 3, 5, 7, 9, 3]) * GIGA, "search"),
    "sparse-unique": (ints([3, 1, 2, 7]) * GIGA,
                      ints([1, 3, 5, 7, 9, 3]) * GIGA, "search"),
    "all-miss-sparse": (ints([1, 2, 3]) * GIGA, ints([7, 8, 2]), "search"),
    "string": (np.array(["b", "a", "b", "zz"]),
               np.array(["b", "", "zz", "c", "a"]), "search"),
    "float": (np.array([0.5, -0.0, 0.5, 3.0]),
              np.array([0.0, 0.5, 2.0, 1e300]), "search"),
    "duplicates-both-sides": (ints([1, 1, 2, 1]), ints([1, 2, 1, 1]),
                              "search"),
    "empty-build": (ints([]), ints([1, 2]), "search"),
    # A non-integer probe column against the direct table goes through
    # the sorted form, built on first need (unsigned and bool: below).
    "float-probe-int-build": (ints([1, 2, 3]),
                              np.array([2.0, 1.5, 1.0, np.nan]), "direct"),
}
for _name, (_build, _probe) in UNIQUE.items():
    CASES[_name] = (_build, _probe, "direct")
    # The same keys with ONE duplicate appended: search, same answer.
    CASES[f"{_name}+one-duplicate"] = (
        np.append(_build, _build[:1]), _probe, "search")


@pytest.mark.parametrize("case", sorted(CASES))
def test_match_equals_reference_and_nested_loop(case):
    check(*CASES[case])


def test_non_integer_probes_sort_the_direct_build_once(monkeypatch):
    sorts = []
    sort = JoinState._sort
    monkeypatch.setattr(JoinState, "_sort",
                        lambda self: sorts.append(1) or sort(self))
    state = installed(ints([4, 0, 1, 3]))
    assert_matches(state, ints([3, 4, 2]))          # integer: the table
    assert state.row_of is not None and sorts == []
    for probe in (np.array([1.0, np.nan, 4.0, 2.5]),
                  ints([4, 2 ** 64 - 1, 0], np.uint64),
                  np.array([True, True, False]),
                  np.array([0.0, 3.0])):
        assert_matches(state, probe)
    assert_matches(state, ints([1, 1, 5]))          # still the table
    assert sorts == [1]


def _keys(values, scale=1, **kwargs):
    return st.lists(values, max_size=24, **kwargs).map(
        lambda keys: np.array(keys, dtype=np.int64) * scale)


_SMALL = st.integers(-12, 12)
_EDGES = st.sampled_from([INT64.min, INT64.max, INT64.min + 1, 0])


@given(build=_keys(_SMALL, unique=True), probe=_keys(_SMALL | _EDGES),
       narrow=st.booleans())
@settings(max_examples=150, deadline=None)
def test_direct_path_property(build, probe, narrow):
    if narrow:
        probe = np.clip(probe, -2 ** 31, 2 ** 31 - 1).astype(np.int32)
    check(build, probe, "direct" if len(build) else "search")


_WITH_DUPLICATE = _keys(_SMALL, min_size=1).flatmap(
    lambda keys: st.sampled_from(keys.tolist()).map(
        lambda again: np.append(keys, again)))
_SPARSE = _keys(_SMALL, GIGA).filter(
    lambda keys: len(keys) and np.ptp(keys) > 0)


@given(build=_WITH_DUPLICATE | _SPARSE,
       probe=_keys(_SMALL | st.integers(-3, 3).map(lambda v: v * GIGA)
                   | _EDGES))
@settings(max_examples=150, deadline=None)
def test_search_path_property(build, probe):
    check(build, probe, "search")


@given(build=st.lists(st.sampled_from(WORDS), max_size=16),
       probe=st.lists(st.sampled_from(WORDS + ["c"]), max_size=16))
@settings(max_examples=60, deadline=None)
def test_string_keys_property(build, probe):
    check(np.array(build, dtype="<U8"), np.array(probe, dtype="<U8"),
          "search")


@given(build=st.lists(st.sampled_from(FLOATS), max_size=16),
       probe=st.lists(st.sampled_from(FLOATS + [7.0]), max_size=16))
@settings(max_examples=60, deadline=None)
def test_float_keys_property(build, probe):
    check(np.array(build, dtype=np.float64),
          np.array(probe, dtype=np.float64), "search")


def test_scale_shapes_render_once_and_never_sort_or_repeat(monkeypatch):
    counts: Counter = Counter()
    inside: list[str] = []

    def scope(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            inside.append(name)
            try:
                return method(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def count(name, function, within=None):
        def wrapper(*args, **kwargs):
            if within is None or within in inside:
                counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(JoinState, "install",
                        scope("install", JoinState.install))
    monkeypatch.setattr(JoinState, "match", scope("match", JoinState.match))
    monkeypatch.setattr(np, "argsort",
                        count("argsort in install", np.argsort, "install"))
    monkeypatch.setattr(np, "repeat",
                        count("repeat in match", np.repeat, "match"))
    monkeypatch.setattr(obs, "table_checksum",
                        count("renderings", obs.table_checksum))

    catalog = standard_catalog(20_000, bench.SCALE_CHUNK)
    recorded = []
    for shape, _rows in bench.SCALE_QUERIES.values():
        query = QUERIES[shape]()
        pull = VolcanoEngine(build_fabric(dataflow_spec()),
                             catalog).execute(query)
        flow = DataflowEngine(build_fabric(dataflow_spec()),
                              catalog).execute(query)
        assert pull.checksum() == flow.checksum()           # compare,
        recorded += [pull.checksum(), flow.checksum()]      # then record
    assert len(set(recorded)) == 3
    # Two of the three shapes join, on both engines; each probes.
    assert counts["install"] == 4 and counts["match"] >= 4
    assert counts["renderings"] == 6                        # one per result
    assert counts["argsort in install"] == 0
    assert counts["repeat in match"] == 0
