"""Generated kernels: cache keys, fallback, and agreement with evaluate.

The contract under test: the cache key covers everything the generated
code depends on (pipeline, entry schema); a pipeline codegen declines
is ``run_chain`` over its parts, same chunks and charges;
and a kernel computes arrays equal in value *and dtype* to
``Expression.evaluate``.  (Kernel vs unfused engine runs, down to the
event ring: ``tests/test_fusion.py``.)
"""

import numpy as np
import pytest

from repro.engine import DataflowEngine, codegen
from repro.engine.fusion import FusedOp
from repro.engine.logical import Query
from repro.engine.operators import FilterOp, MapOp, ProjectOp, run_chain
from repro.hardware import build_fabric, dataflow_spec
from repro.relational import Catalog
from repro.relational.datagen import make_lineitem, make_orders
from repro.relational.expressions import Expression, col, lit
from repro.relational.schema import DataType, Field, Schema
from repro.relational.table import Chunk

ROWS = 4000


@pytest.fixture(autouse=True)
def _fresh_kernel_cache(monkeypatch):
    """Each test starts with an empty kernel cache and zero counters."""
    monkeypatch.delenv("REPRO_NO_FUSE", raising=False)
    codegen.reset()
    yield
    codegen.reset()


def _schema(extra=()):
    fields = [Field("a", DataType.INT64), Field("b", DataType.FLOAT64)]
    fields += list(extra)
    return Schema(fields)


def _pipeline():
    return [FilterOp(col("a") > lit(5)), ProjectOp(["a"])]


# ---------------------------------------------------------------------------
# Fingerprints: everything that changes the kernel changes the key
# ---------------------------------------------------------------------------

def test_same_pipeline_same_schema_same_fingerprint():
    fp1 = codegen.pipeline_fingerprint(_pipeline(), _schema())
    fp2 = codegen.pipeline_fingerprint(_pipeline(), _schema())
    assert fp1 == fp2


def test_schema_change_changes_fingerprint():
    base = codegen.pipeline_fingerprint(_pipeline(), _schema())
    widened = codegen.pipeline_fingerprint(
        _pipeline(), _schema([Field("c", DataType.STRING, 8)]))
    assert base != widened


def test_predicate_constant_changes_fingerprint():
    loose = codegen.pipeline_fingerprint(
        [FilterOp(col("a") > lit(5))], _schema())
    tight = codegen.pipeline_fingerprint(
        [FilterOp(col("a") > lit(6))], _schema())
    assert loose != tight


def test_compile_then_memory_hit():
    kernel, origin, fp = codegen.resolve(_pipeline(), _schema())
    assert origin == "compiled" and kernel is not None
    _, origin2, fp2 = codegen.resolve(_pipeline(), _schema())
    assert origin2 == "memory" and fp2 == fp
    stats = codegen.counters()
    assert stats["compiles"] == 1
    assert stats["memory_hits"] == 1


# ---------------------------------------------------------------------------
# Fallback: a declined pipeline is run_chain over its parts
# ---------------------------------------------------------------------------

class _Opaque(Expression):
    """``inner`` behind a node type codegen has never heard of."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, chunk):
        return self.inner.evaluate(chunk)

    def required_columns(self):
        return self.inner.required_columns()

    def __repr__(self):
        return f"opaque({self.inner!r})"


@pytest.mark.parametrize("cutoff, survivors", [(7, 2), (100, 0)])
def test_unsupported_expression_runs_the_parts_themselves(cutoff,
                                                          survivors):
    def parts():
        return [FilterOp(_Opaque(col("a") > 5)), ProjectOp(["a"]),
                FilterOp(col("a") > lit(cutoff)),
                MapOp({"c": col("a") * lit(2)},
                      Schema([Field("a", DataType.INT64),
                              Field("c", DataType.FLOAT64)]))]
    chunk = Chunk(_schema(), {
        "a": np.arange(10, dtype=np.int64),
        "b": np.zeros(10)})
    fused = FusedOp(parts())
    emits, charges = fused.run(chunk)
    assert fused.kernel_origin == "unsupported"
    assert codegen.counters()["unsupported"] == 1
    expected, expected_charges = run_chain(parts(), chunk)
    assert charges == expected_charges
    # The opaque filter keeps a in 6..9 (4 rows of 16 bytes, 8 once
    # projected).  cutoff 100: the second filter empties the stream
    # mid-chain, so the map behind it is never charged.
    assert [nbytes for _, nbytes in charges] == (
        [160.0, 64.0, 32.0] + ([8.0 * survivors] if survivors else []))
    if not survivors:
        assert emits == [] and expected == []
        return
    [emit], [expected] = emits, expected
    assert emit.chunk.schema.names == expected.chunk.schema.names == ["a", "c"]
    assert emit.chunk.sorted_rows() == expected.chunk.sorted_rows()
    assert emit.chunk.sorted_rows() == [(8, 16.0), (9, 18.0)]


# ---------------------------------------------------------------------------
# Kernels agree with Expression.evaluate in value and dtype
# ---------------------------------------------------------------------------

def _kernel_value(expr, chunk):
    """The array the generated source computes for ``expr``."""
    gen = codegen._KernelGen(
        [FilterOp(expr), ProjectOp(chunk.schema.names)], chunk.schema)
    value = gen.expr_src(expr, chunk.schema)
    namespace = {"np": np, "base0": chunk.columns, "n0": chunk.num_rows}
    exec("\n".join(gen.w.lines + [f"result = {value}"]), namespace)
    return namespace["result"]


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
@pytest.mark.parametrize("expr", [
    col("x") > lit(3), lit(3) <= col("x"), col("x") == lit(2.5),
    col("x") + lit(1), lit(2) * col("x"), col("x") - lit(0.5),
    col("x") / lit(2), col("x").between(2, 5),
    col("x").between(lit(2), col("x") + lit(1)),
    (col("x") + lit(1)) * lit(3) > lit(10),
], ids=repr)
def test_evaluate_matches_kernel_in_value_and_dtype(expr, dtype):
    schema = Schema([Field("x", DataType.INT64)])
    # _from_valid keeps the array's own dtype (as dictionary codes
    # do), so the int32 case really computes in int32.
    chunk = Chunk._from_valid(schema, {"x": np.arange(8).astype(dtype)})
    interpreted = expr.evaluate(chunk)
    generated = _kernel_value(expr, chunk)
    assert interpreted.dtype == generated.dtype
    assert interpreted.tolist() == generated.tolist()


# ---------------------------------------------------------------------------
# Engines: counters and kernel diagnostics
# ---------------------------------------------------------------------------

def _catalog():
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(ROWS, orders=ROWS // 4,
                                               chunk_rows=500))
    catalog.register("orders", make_orders(ROWS // 4, chunk_rows=500))
    return catalog


def _filter_project():
    return (Query.scan("lineitem")
            .filter(col("l_quantity") > 40)
            .project(["l_orderkey", "l_extendedprice"]))


def test_counters_surface_in_query_result():
    fabric = build_fabric(dataflow_spec())
    result = DataflowEngine(fabric, _catalog()).execute(_filter_project())
    assert result.counters.get("codegen.compiles", 0) >= 1
    # Counters never leak into the simulated accounting.
    assert not any(k.startswith("codegen.")
                   for k in result.movement)


def test_resolved_kernels_report_info():
    fabric = build_fabric(dataflow_spec())
    engine = DataflowEngine(fabric, _catalog())
    graph = engine.compile(_filter_project())
    graph.run()
    infos = [op.kernel_info()
             for stage in graph.stages.values()
             for op in stage.ops if isinstance(op, FusedOp)]
    assert infos, "expected at least one fused segment"
    for info in infos:
        assert info["origin"] in ("compiled", "memory")
        assert info["fingerprint"]
        assert "def kernel(chunk, charges):" in info["source"]
