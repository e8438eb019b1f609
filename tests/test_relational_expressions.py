"""Tests for the expression layer, including the selectivity model."""

import numpy as np
import pytest

from repro.hardware import OpKind
from repro.relational import (Chunk, ColumnStats, DataType, Field, Schema,
                              col, lit)


def chunk():
    schema = Schema.of(("x", DataType.INT64), ("y", DataType.FLOAT64),
                       ("name", DataType.STRING, 16))
    return Chunk(schema, {
        "x": np.array([1, 5, 10, 15], dtype=np.int64),
        "y": np.array([1.0, 2.0, 3.0, 4.0]),
        "name": np.array(["alpha", "beta", "alphabet", "gamma"]),
    })


def test_comparison_operators():
    c = chunk()
    assert (col("x") > 5).evaluate(c).tolist() == [False, False, True, True]
    assert (col("x") <= 5).evaluate(c).tolist() == [True, True, False, False]
    assert (col("x") == 10).evaluate(c).tolist() == [False, False, True,
                                                     False]
    assert (col("x") != 10).evaluate(c).tolist() == [True, True, False, True]


def test_arithmetic():
    c = chunk()
    expr = col("x") * lit(2) + col("y")
    assert expr.evaluate(c).tolist() == [3.0, 12.0, 23.0, 34.0]
    assert (col("x") - lit(1)).evaluate(c).tolist() == [0, 4, 9, 14]
    assert (col("y") / lit(2)).evaluate(c).tolist() == [0.5, 1.0, 1.5, 2.0]


def _scalar_cases():
    """(expression, the same arithmetic in plain numpy) pairs.

    Short ids keep every case's test name distinct in a width-limited
    report.
    """
    cases = [
        ("x>3", col("x") > lit(3), lambda x: x > 3),
        ("3<=x", lit(3) <= col("x"), lambda x: 3 <= x),
        ("x==2.5", col("x") == lit(2.5), lambda x: x == 2.5),
        ("x+1", col("x") + lit(1), lambda x: x + 1),
        ("2*x", lit(2) * col("x"), lambda x: 2 * x),
        ("x-0.5", col("x") - lit(0.5), lambda x: x - 0.5),
        ("x/2", col("x") / lit(2), lambda x: x / 2),
        ("between(2,5)", col("x").between(2, 5),
         lambda x: (x >= 2) & (x <= 5)),
        ("between(2,x+1)", col("x").between(lit(2), col("x") + lit(1)),
         lambda x: (x >= 2) & (x <= x + 1)),
        ("(x+1)*3>10", (col("x") + lit(1)) * lit(3) > lit(10),
         lambda x: (x + 1) * 3 > 10),
    ]
    return [pytest.param(expr, ref, id=name) for name, expr, ref in cases]


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
@pytest.mark.parametrize("expr, reference", _scalar_cases())
def test_evaluate_matches_numpy(expr, reference, dtype):
    # A literal operand is a python scalar to numpy, so the column's
    # dtype survives: int32 + 1 stays int32.
    schema = Schema([Field("x", DataType.INT64)])
    # _from_valid keeps the array's own dtype (as dictionary codes do).
    c = Chunk._from_valid(schema, {"x": np.arange(8).astype(dtype)})
    got, want = expr.evaluate(c), reference(c.columns["x"])
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_boolean_combinators():
    c = chunk()
    expr = (col("x") > 1) & (col("x") < 15)
    assert expr.evaluate(c).tolist() == [False, True, True, False]
    expr = (col("x") == 1) | (col("x") == 15)
    assert expr.evaluate(c).tolist() == [True, False, False, True]
    expr = ~(col("x") > 5)
    assert expr.evaluate(c).tolist() == [True, True, False, False]


def test_like_patterns():
    c = chunk()
    assert col("name").like("alpha%").evaluate(c).tolist() == [
        True, False, True, False]
    assert col("name").like("%et%").evaluate(c).tolist() == [
        False, True, True, False]
    assert col("name").like("bet_").evaluate(c).tolist() == [
        False, True, False, False]


def test_between_inclusive():
    c = chunk()
    assert col("x").between(5, 10).evaluate(c).tolist() == [
        False, True, True, False]


def test_isin():
    c = chunk()
    assert col("x").isin([1, 15]).evaluate(c).tolist() == [
        True, False, False, True]


def test_required_columns():
    expr = (col("x") > 5) & (col("name").like("a%")) | (col("y") < lit(2))
    assert expr.required_columns() == {"x", "y", "name"}


def test_op_kind_regex_propagates():
    plain = (col("x") > 5) & (col("y") < 2)
    assert plain.op_kind() == OpKind.FILTER
    with_like = (col("x") > 5) & col("name").like("a%")
    assert with_like.op_kind() == OpKind.REGEX
    with_like_or = (col("x") > 5) | col("name").like("a%")
    assert with_like_or.op_kind() == OpKind.REGEX
    negated = ~col("name").like("a%")
    assert negated.op_kind() == OpKind.REGEX


def _stats(name, min=None, max=None, distinct=0):
    return ColumnStats(name, DataType.INT64, min=min, max=max,
                       distinct=distinct)


def test_selectivity_range_interpolation():
    stats = {"x": _stats("x", 0, 100, 100)}
    assert (col("x") < 25).estimate_selectivity(stats) == pytest.approx(0.25)
    assert (col("x") > 25).estimate_selectivity(stats) == pytest.approx(0.75)
    assert (col("x") == 7).estimate_selectivity(stats) == pytest.approx(0.01)


def test_selectivity_between():
    stats = {"x": _stats("x", 0, 100, 100)}
    sel = col("x").between(10, 30).estimate_selectivity(stats)
    assert sel == pytest.approx(0.2)


def test_selectivity_conjunction_multiplies():
    stats = {"x": _stats("x", 0, 100, 100), "y": _stats("y", 0, 10, 10)}
    expr = (col("x") < 50) & (col("y") < 5)
    assert expr.estimate_selectivity(stats) == pytest.approx(0.25)


def test_selectivity_disjunction_inclusion_exclusion():
    stats = {"x": _stats("x", 0, 100, 100)}
    expr = (col("x") < 50) | (col("x") < 50)
    assert expr.estimate_selectivity(stats) == pytest.approx(0.75)


def test_selectivity_clamped_to_unit_interval():
    stats = {"x": _stats("x", 0, 100)}
    assert (col("x") < 200).estimate_selectivity(stats) == 1.0
    assert (col("x") < -5).estimate_selectivity(stats) == 0.0


def test_selectivity_without_stats_uses_defaults():
    assert 0.0 < (col("x") == 1).estimate_selectivity(None) < 1.0
    assert 0.0 < col("name").like("a%").estimate_selectivity(None) < 1.0


def test_selectivity_isin_uses_distinct():
    stats = {"x": _stats("x", distinct=20)}
    assert col("x").isin([1, 2]).estimate_selectivity(stats) == \
        pytest.approx(0.1)


def test_unknown_ops_rejected():
    from repro.relational import Arith, Compare
    with pytest.raises(ValueError):
        Compare("~=", col("x"), lit(1))
    with pytest.raises(ValueError):
        Arith("%", col("x"), lit(1))
