"""The join index against two independent references, on both paths.

``JoinState.match`` finds a probe key's run of build rows either by
subtraction (dense integer build keys: the direct-address ``starts``
table) or by binary search (everything else).  Both must return the
exact ``(probe_idx, build_idx)`` arrays — row order is part of the
contract, because float sums downstream depend on it — of

* ``reference_match``: the two-``searchsorted`` ``install`` + ``match``
  the index replaced, kept here verbatim, and
* ``nested_loop``: the definition of an equi join, which shares no
  code with either.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operators import JoinState
from repro.relational import Chunk, DataType, Field, Schema

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


def check(build_keys, probe_keys, dense):
    state = installed(build_keys)
    assert (state.starts is not None) == dense      # the path under test
    probe_idx, build_idx = state.match(probe_keys)
    want_probe, want_build = reference_match(
        state.build_chunk.column("k"), probe_keys)
    for got, want in ((probe_idx, want_probe), (build_idx, want_build)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert list(zip(probe_idx.tolist(), build_idx.tolist())) == nested_loop(
        state.build_chunk.column("k"), probe_keys)


def ints(values, dtype=np.int64):
    return np.array(values, dtype=dtype)


WORDS = ["", "a", "ab", "b", "zz"]
FLOATS = [-1.5, -0.0, 0.0, 0.25, 3.0, 1e300]
GIGA = 10 ** 9

CASES = {
    # name: (build keys, probe keys, takes the direct-address path)
    "dense": (ints([3, 1, 2, 3, 7, 1]), ints([1, 3, 5, 7, 9, 3]), True),
    "sparse": (ints([3, 1, 2, 3, 7, 1]) * GIGA,
               ints([1, 3, 5, 7, 9, 3]) * GIGA, False),
    "negative": (ints([-3, -1, -2, -3, 4]), ints([-4, -3, 0, 4, 5]), True),
    "int32-probe": (ints([5, 6, 6, 9]), ints([6, 9, 4, 10, 5], np.int32),
                    True),
    "int32-probe-int64-sized-build": (
        ints([2 ** 40, 2 ** 40 + 2, 2 ** 40]),
        ints([0, 2 ** 31 - 1, -2 ** 31], np.int32), True),
    "probe-at-the-type-limits": (
        ints([5, 6, 6, 9]), ints([INT64.min, 6, INT64.max, 9, 4]), True),
    "build-at-the-type-limits": (
        ints([INT64.max, INT64.max - 1]), ints([INT64.min, INT64.max, 0]),
        True),
    "string": (np.array(["b", "a", "b", "zz"]),
               np.array(["b", "", "zz", "c", "a"]), False),
    "float": (np.array([0.5, -0.0, 0.5, 3.0]),
              np.array([0.0, 0.5, 2.0, 1e300]), False),
    "float-probe-int-build": (ints([1, 2, 2]), np.array([2.0, 1.5, 1.0]),
                              True),
    "duplicates-both-sides": (ints([1, 1, 2, 1]), ints([1, 2, 1, 1]), True),
    "all-miss": (ints([1, 2, 3]), ints([7, 8, -1]), True),
    "all-miss-sparse": (ints([1, 2, 3]) * GIGA, ints([7, 8, 2]), False),
    "empty-probe": (ints([1, 2, 3]), ints([]), True),
    "empty-build": (ints([]), ints([1, 2]), False),
    "one-row-build": (ints([4]), ints([4, 5, 4]), True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_match_equals_reference_and_nested_loop(case):
    check(*CASES[case])


def _keys(values, scale=1):
    return st.lists(values, max_size=24).map(
        lambda keys: np.array(keys, dtype=np.int64) * scale)


_SMALL = st.integers(-12, 12)
_EDGES = st.sampled_from([INT64.min, INT64.max, INT64.min + 1, 0])


@given(build=_keys(_SMALL), probe=_keys(_SMALL | _EDGES),
       narrow=st.booleans())
@settings(max_examples=150, deadline=None)
def test_dense_path_property(build, probe, narrow):
    if narrow:
        probe = np.clip(probe, -2 ** 31, 2 ** 31 - 1).astype(np.int32)
    check(build, probe, dense=len(build) > 0)


@given(build=_keys(_SMALL, GIGA).filter(
           lambda keys: len(keys) and np.ptp(keys) > 0),
       probe=_keys(_SMALL | st.integers(-3, 3).map(lambda v: v * GIGA)))
@settings(max_examples=100, deadline=None)
def test_sparse_path_property(build, probe):
    check(build, probe, dense=False)


@given(build=st.lists(st.sampled_from(WORDS), max_size=16),
       probe=st.lists(st.sampled_from(WORDS + ["c"]), max_size=16))
@settings(max_examples=60, deadline=None)
def test_string_keys_property(build, probe):
    check(np.array(build, dtype="<U8"), np.array(probe, dtype="<U8"),
          dense=False)


@given(build=st.lists(st.sampled_from(FLOATS), max_size=16),
       probe=st.lists(st.sampled_from(FLOATS + [7.0]), max_size=16))
@settings(max_examples=60, deadline=None)
def test_float_keys_property(build, probe):
    check(np.array(build, dtype=np.float64),
          np.array(probe, dtype=np.float64), dense=False)
