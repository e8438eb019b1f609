"""The bulk checksum renderer against the per-cell one it replaced.

``_reference_columns_checksum`` and its helpers are the renderer
``obs.columns_checksum`` used before all-integer/float tables were
rendered by one ``%`` format, kept verbatim.  Every digest must stay
bit-identical: results, perfbench digests and the recorded baselines
all hash through it.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    _CELL_SEP,
    _ESCAPE,
    _ESCAPES,
    _LONE_EMPTY,
    _ROW_SEP,
    CHECKSUM_FLOAT_DIGITS,
    columns_checksum,
)


def _reference_cell(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return format(value, f".{CHECKSUM_FLOAT_DIGITS}g")
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


def _reference_escaped(cells):
    joined = "".join(cells)
    if _ESCAPE in joined or _ROW_SEP in joined or _CELL_SEP in joined:
        return [cell.translate(_ESCAPES) for cell in cells]
    return cells


def _reference_column(values):
    kind = values.dtype.kind
    if kind == "f":
        fmt = f".{CHECKSUM_FLOAT_DIGITS}g"
        return ["nan" if v != v else format(v, fmt)
                for v in values.tolist()]
    if kind == "U":
        return _reference_escaped(values.tolist())
    if kind in "iu":
        return [str(v) for v in values.tolist()]
    return _reference_escaped([_reference_cell(v) for v in values.tolist()])


def _reference_columns_checksum(names, columns) -> str:
    digest = hashlib.sha256()
    digest.update(_CELL_SEP.join(names).encode())
    rendered = [_reference_column(values) for values in columns]
    if len(rendered) == 1:
        rows = [cell or _LONE_EMPTY for cell in rendered[0]]
    else:
        rows = [_CELL_SEP.join(cells) for cells in zip(*rendered)]
    rows.sort()  # canonical order, independent of row layout
    digest.update(_ROW_SEP.join(rows).encode())
    return digest.hexdigest()


EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
               5e-324, 1e16, 123456.5, 1e-5, -2.5e300, 0.1]
INT64 = np.iinfo(np.int64)
EDGE_INTS = [0, -1, 1, INT64.min, INT64.max, 10 ** 15]

floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ints = st.one_of(st.sampled_from(EDGE_INTS),
                 st.integers(INT64.min, INT64.max))
strings = st.text(alphabet=["a", "b", _CELL_SEP, _ROW_SEP, _ESCAPE, "é"],
                  max_size=3)
KINDS = {"f": (floats, np.float64), "i": (ints, np.int64),
         "U": (strings, "<U3")}


@st.composite
def tables(draw, kinds="fi"):
    """1-4 columns of 0, 1 or many rows; ``kinds`` picks column types."""
    rows = draw(st.sampled_from([0, 1, draw(st.integers(2, 40))]))
    columns = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=4)):
        values, dtype = KINDS[kind]
        columns.append(np.array(draw(st.lists(values, min_size=rows,
                                              max_size=rows)),
                                dtype=dtype))
    names = [f"c{i}" for i in range(len(columns))]
    return names, columns


@settings(max_examples=300, deadline=None)
@given(tables())
def test_numeric_tables_render_as_the_reference(table):
    names, columns = table
    assert columns_checksum(names, columns) == \
        _reference_columns_checksum(names, columns)


@settings(max_examples=100, deadline=None)
@given(tables(kinds="fiU"))
def test_tables_with_strings_fall_back_to_the_reference(table):
    names, columns = table
    assert columns_checksum(names, columns) == \
        _reference_columns_checksum(names, columns)


def test_every_edge_value_renders_as_the_reference():
    cases = [
        [np.array(EDGE_FLOATS)],
        [np.array(EDGE_INTS, dtype=np.int64)],
        [np.array(EDGE_INTS, dtype=np.int64),
         np.array(EDGE_FLOATS[:len(EDGE_INTS)]),
         np.array(EDGE_INTS[::-1], dtype=np.int64)],
        [np.array([2 ** 64 - 1, 0], dtype=np.uint64),
         np.array([1.5, -0.0], dtype=np.float32)],
        [np.array([True, False]), np.array([1, 2])],     # bool: per cell
        [np.array(["x", ""]), np.array([1.0, 2.0])],     # strings: per cell
        [np.array([""])],
        [np.empty(0), np.empty(0, dtype=np.int64)],
        [],
    ]
    for columns in cases:
        names = [f"c{i}" for i in range(len(columns))]
        assert columns_checksum(names, columns) == \
            _reference_columns_checksum(names, columns), columns
