"""Pipeline fusion and selection-vector execution.

Three layers of guarantees:

* unit: ``fuse_ops`` rewrites exactly the maximal linear runs, and a
  :class:`FusedOp` returns the same ``(kind, nbytes)`` charge sequence
  ``run_chain`` over its parts does;
* chunk: selection-vector views are lazy, compose under chained
  filters, report the same ``nbytes`` as their materialised form, and
  settle at segment boundaries;
* end to end: fused and ``REPRO_NO_FUSE=1`` runs are bit-identical —
  checksums, simulated times, movement ledgers, event rings — on both
  engines, across every smoke scenario shape.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.engine import (
    AggSpec,
    DataflowEngine,
    FusedOp,
    Query,
    VolcanoEngine,
    describe_op,
    fuse_ops,
    fusion_enabled,
)
from repro.engine.operators import (
    FilterOp,
    LimitOp,
    MapOp,
    PartialAggregate,
    PartitionOp,
    ProjectOp,
    run_chain,
)
from repro.hardware import build_fabric, dataflow_spec
from repro.obs import table_checksum
from repro.relational import (
    Catalog,
    Chunk,
    DataType,
    Field,
    Schema,
    col,
    lit,
    make_lineitem,
    make_orders,
)

from .test_codegen import _Opaque
from .test_property_engines import COLUMNS, DISTINCT, column_names, predicates

ROWS = 2000


# ---------------------------------------------------------------------------
# fuse_ops rewriting
# ---------------------------------------------------------------------------

def _schema():
    return Schema.of(("a", DataType.INT64), ("b", DataType.FLOAT64))


def _chunk(n=10):
    return Chunk(_schema(), {
        "a": np.arange(n, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, n)})


def test_fuse_ops_fuses_maximal_linear_runs():
    f = FilterOp(col("a") > 3)
    p = ProjectOp(["a"])
    limit = LimitOp(5)
    f2 = FilterOp(col("a") > 4)
    m = MapOp({"c": col("a") + lit(1)},
              Schema.of(("a", DataType.INT64), ("c", DataType.FLOAT64)))
    out = fuse_ops([f, p, limit, f2, m])
    # [filter, project] fuse; limit breaks the run; [filter, map] fuse.
    assert len(out) == 3
    assert isinstance(out[0], FusedOp) and out[0].parts == [f, p]
    assert out[1] is limit
    assert isinstance(out[2], FusedOp) and out[2].parts == [f2, m]


def test_fuse_ops_absorbs_trailing_partial_aggregate():
    f = FilterOp(col("a") > 3)
    agg = PartialAggregate(_schema(), ["a"], [AggSpec("sum", "b", "s")])
    out = fuse_ops([f, agg])
    assert len(out) == 1 and isinstance(out[0], FusedOp)
    assert out[0].parts == [f, agg]


def test_fuse_ops_leaves_singletons_and_stateful_ops_alone():
    f = FilterOp(col("a") > 3)
    part = PartitionOp("a", 2)
    agg = PartialAggregate(_schema(), ["a"], [AggSpec("count", alias="n")])
    # A lone streaming op, a stateful exchange, a bare aggregate: no
    # run of length >= 2 ever forms.
    assert fuse_ops([f]) == [f]
    assert fuse_ops([part, agg]) == [part, agg]
    assert fuse_ops([]) == []


def test_fused_op_rejects_invalid_chains():
    f = FilterOp(col("a") > 3)
    part = PartitionOp("a", 2)
    with pytest.raises(ValueError, match="at least two"):
        FusedOp([f])
    with pytest.raises(ValueError, match="cannot fuse"):
        FusedOp([part, f])
    with pytest.raises(ValueError, match="cannot fuse"):
        FusedOp([f, part])


def test_fused_parts_reports_originals_for_kernel_installation():
    f, p = FilterOp(col("a") > 3), ProjectOp(["a"])
    fused = fuse_ops([f, p])[0]
    assert fused.fused_parts() == [f, p]
    # Unfused ops report themselves.
    assert f.fused_parts() == [f]


def test_describe_op_marks_fused_segments():
    f, p = FilterOp(col("a") > 3), ProjectOp(["a"])
    fused = fuse_ops([f, p])[0]
    lines = describe_op(fused)
    assert "fused segment" in lines[0]
    assert lines[1].strip().startswith("|")
    assert describe_op(f) == [f.name]


# ---------------------------------------------------------------------------
# Charge-sequence equivalence
# ---------------------------------------------------------------------------

def test_fused_charge_sequence_matches_unfused():
    ops = [FilterOp(col("a") > 3), ProjectOp(["a"]),
           MapOp({"c": col("a") * lit(2)},
                 Schema.of(("a", DataType.INT64),
                           ("c", DataType.FLOAT64)))]
    chunk = _chunk(10)
    fused = fuse_ops(list(ops))[0]
    emits, charges = fused.run(chunk)
    expected_emits, expected_charges = run_chain(ops, chunk)
    assert charges == expected_charges
    assert [kind for kind, _ in charges] == [op.kind for op in ops]
    assert ([e.chunk.sorted_rows() for e in emits]
            == [e.chunk.sorted_rows() for e in expected_emits])


def test_fused_charges_stop_where_the_stream_empties():
    # The first filter keeps nothing: downstream parts are not charged,
    # exactly like the chain runner's early exit.
    ops = [FilterOp(col("a") > 100), ProjectOp(["a"])]
    chunk = _chunk(10)
    fused = fuse_ops(list(ops))[0]
    emits, charges = fused.run(chunk)
    assert (emits, charges) == run_chain(ops, chunk)
    assert emits == []
    assert charges == [(ops[0].kind, float(chunk.nbytes))]
    assert fused.process(chunk) == []


#: ``k0..k2`` (int64, what ``predicates`` compares) plus a float payload.
_KEYED = Schema.of(*[(name, DataType.INT64) for name in COLUMNS],
                   ("v", DataType.FLOAT64))


@st.composite
def _chains(draw):
    """Operator recipes for a random Filter / Project / Map chain.

    Over ``_KEYED``; projections keep the keys and drop some of the
    rest, so every later filter stays bound.  Returns a factory —
    operators carry state, each side of the comparison gets its own —
    that can hide every expression from codegen.
    """
    steps = draw(st.lists(st.sampled_from(["filter", "project", "map"]),
                          min_size=2, max_size=4)
                 .filter(lambda kinds: kinds != ["project"] * len(kinds)))
    schema = _KEYED
    makers = []     # hide -> operator; hide wraps each expression
    for index, step in enumerate(steps):
        if step == "filter":
            # Zero and full selectivity on purpose, the rest at random.
            predicate = draw(st.one_of(
                predicates(),
                st.sampled_from([col("k0") < 0, col("k0") >= 0])))
            makers.append(lambda hide, predicate=predicate:
                          FilterOp(hide(predicate)))
        elif step == "project":
            keep = list(draw(st.permutations(COLUMNS)))
            extras = [n for n in schema.names if n not in COLUMNS]
            if extras:
                keep += draw(st.lists(st.sampled_from(extras),
                                      unique=True))
            schema = schema.project(keep)
            makers.append(lambda hide, keep=keep: ProjectOp(keep))
        else:
            left, right = draw(column_names), draw(column_names)
            expr = draw(st.sampled_from([
                col(left) * lit(2), col(left) + col(right),
                col(left) - lit(0.5)]))
            name = f"c{index}"
            schema = Schema(list(schema.fields)
                            + [Field(name, DataType.FLOAT64)])
            makers.append(lambda hide, name=name, expr=expr, schema=schema:
                          MapOp({name: hide(expr)}, schema))
    if draw(st.booleans()):
        group, summed = draw(column_names), draw(column_names)
        makers.append(lambda hide, schema=schema: PartialAggregate(
            schema, [group], [AggSpec("sum", summed, "s"),
                              AggSpec("count", alias="n")]))

    def build(opaque=False):
        hide = _Opaque if opaque else (lambda expr: expr)
        return [make(hide) for make in makers]
    return build


@pytest.mark.parametrize("declined", [False, True],
                         ids=["kernel", "declined"])
@given(build=_chains(), rows=st.sampled_from([0, 1, 64]))
@settings(max_examples=40, deadline=None)
def test_fused_run_equals_run_chain_over_its_parts(declined, build, rows):
    rng = np.random.default_rng(rows)
    chunk = Chunk(_KEYED, {
        **{name: rng.integers(0, DISTINCT, rows) for name in COLUMNS},
        "v": rng.random(rows)})
    fused = FusedOp(build(opaque=declined))
    emits, charges = fused.run(chunk)
    expected, expected_charges = run_chain(build(opaque=declined), chunk)
    if rows:
        assert (fused.kernel_origin == "unsupported") == declined
    assert charges == expected_charges
    assert len(emits) == len(expected)
    for emit, reference in zip(emits, expected):
        got, want = emit.chunk.materialize(), reference.chunk.materialize()
        assert emit.route == reference.route
        assert got.schema == want.schema
        for name in want.schema.names:
            assert got.columns[name].dtype == want.columns[name].dtype
            assert np.array_equal(got.columns[name], want.columns[name])


# ---------------------------------------------------------------------------
# Selection-vector chunk semantics
# ---------------------------------------------------------------------------

def test_filter_returns_lazy_view_with_exact_nbytes():
    chunk = _chunk(10)
    view = chunk.filter(chunk.column("a") > 4)
    assert view._sel is not None
    assert view.num_rows == 5
    assert view.nbytes == view.materialize().nbytes
    assert view.materialize()._sel is None
    # Dense chunks materialize to themselves.
    assert chunk.materialize() is chunk


def test_empty_and_all_true_masks():
    chunk = _chunk(6)
    nothing = chunk.filter(np.zeros(6, dtype=bool))
    assert nothing.num_rows == 0 and nothing.nbytes == 0
    assert nothing.materialize().num_rows == 0
    everything = chunk.filter(np.ones(6, dtype=bool))
    assert everything.num_rows == 6
    assert everything.sorted_rows() == chunk.sorted_rows()


def test_chained_filters_compose_selection_indices():
    chunk = _chunk(10)
    first = chunk.filter(chunk.column("a") >= 2)
    second = first.filter(first.column("a") < 7)
    # Still one view over the original dense columns.
    assert second.columns.base is chunk.columns
    assert list(second.column("a")) == [2, 3, 4, 5, 6]
    third = second.filter(np.array([True, False, True, False, True]))
    assert list(third.column("a")) == [2, 4, 6]


def test_view_project_take_slice_stay_lazy():
    chunk = _chunk(10)
    view = chunk.filter(chunk.column("a") % 2 == 0)   # 0 2 4 6 8
    projected = view.project(["b"])
    assert projected._sel is not None
    assert projected.schema.names == ["b"]
    taken = view.take(np.array([4, 0]))
    assert list(taken.column("a")) == [8, 0]
    sliced = view.slice(1, 3)
    assert list(sliced.column("a")) == [2, 4]


def test_view_gathers_each_column_once_and_only_when_read():
    chunk = _chunk(10)
    view = chunk.filter(chunk.column("a") > 7)
    cache = view.columns._cache
    assert cache == {}                       # nothing gathered yet
    a1 = view.column("a")
    assert set(cache) == {"a"}               # only the touched column
    assert view.column("a") is a1            # cached, not re-gathered
    with pytest.raises(KeyError):
        view.columns["missing"]


def test_boundary_operations_materialize_views():
    chunk = _chunk(10)
    view = chunk.filter(chunk.column("a") > 4)
    from repro.relational.schema import Field
    wide = view.with_column(Field("d", DataType.FLOAT64),
                            np.zeros(view.num_rows))
    assert wide._sel is None                 # with_column settles
    from repro.relational import Table
    table = Table(view.schema)
    table.append(view)                       # table storage settles
    assert table.chunks[0]._sel is None
    assert table.num_rows == 5


# ---------------------------------------------------------------------------
# End-to-end bit-identity: fused vs REPRO_NO_FUSE=1
# ---------------------------------------------------------------------------

def _catalog():
    catalog = Catalog()
    catalog.register("lineitem", make_lineitem(ROWS, orders=ROWS // 4,
                                               chunk_rows=500))
    catalog.register("orders", make_orders(ROWS // 4, chunk_rows=500))
    return catalog


def _queries():
    return {
        "filter_project": (
            Query.scan("lineitem")
            .filter(col("l_quantity") > 40)
            .project(["l_orderkey", "l_extendedprice"])),
        "chained_filters_map": (
            Query.scan("lineitem")
            .filter(col("l_quantity") > 10)
            .filter(col("l_discount") > 0.01)
            .with_column("disc_price", col("l_extendedprice")
                         * (lit(1.0) - col("l_discount")))
            .project(["l_orderkey", "disc_price"])),
        "filter_agg": (
            Query.scan("lineitem")
            .filter(col("l_quantity") > 10)
            .aggregate(["l_returnflag"],
                       [AggSpec("sum", "l_extendedprice", "revenue"),
                        AggSpec("count", alias="n")])),
        "join_agg": (
            Query.scan("lineitem")
            .filter(col("l_quantity") > 10)
            .join(Query.scan("orders")
                  .filter(col("o_priority") <= 2),
                  "l_orderkey", "o_orderkey")
            .aggregate(["o_priority"],
                       [AggSpec("sum", "l_extendedprice", "rev")])),
        "like_map_agg": (
            Query.scan("lineitem")
            .filter(col("l_comment").like("%a%"))
            .with_column("disc", col("l_extendedprice")
                         * (lit(1.0) - col("l_discount")))
            .aggregate(["l_returnflag"],
                       [AggSpec("sum", "disc", "rev"),
                        AggSpec("count", alias="n")])),
        "inset_between": (
            Query.scan("lineitem")
            .filter(col("l_returnflag").isin(["A", "R"]))
            .filter(col("l_quantity").between(5, 45))
            .project(["l_orderkey", "l_quantity"])),
    }


def _run_engine(engine_cls, query):
    fabric = build_fabric(dataflow_spec())
    result = engine_cls(fabric, _catalog()).execute(query)
    return {
        "checksum": table_checksum(result.table),
        "sim_time_s": result.elapsed,
        "movement": result.movement,
        "ledger": fabric.trace.movement_ledger(),
        "ring": [event.to_dict() for event in fabric.trace.events],
    }


@pytest.mark.parametrize("engine_cls", [DataflowEngine, VolcanoEngine])
@pytest.mark.parametrize("name", sorted(_queries()))
def test_fused_and_unfused_runs_bit_identical(monkeypatch, engine_cls,
                                              name):
    query = _queries()[name]
    monkeypatch.delenv("REPRO_NO_FUSE", raising=False)
    fused = _run_engine(engine_cls, query)
    monkeypatch.setenv("REPRO_NO_FUSE", "1")
    unfused = _run_engine(engine_cls, query)
    assert fused["checksum"] == unfused["checksum"]
    assert fused["sim_time_s"] == unfused["sim_time_s"]
    assert fused["movement"] == unfused["movement"]
    assert fused["ledger"] == unfused["ledger"]
    assert fused["ring"] == unfused["ring"]


def test_no_fuse_flag_round_trip(monkeypatch):
    monkeypatch.delenv("REPRO_NO_FUSE", raising=False)
    assert fusion_enabled() is True
    monkeypatch.setenv("REPRO_NO_FUSE", "1")
    assert fusion_enabled() is False
    # Compilation under the flag produces no fused ops at all.
    fabric = build_fabric(dataflow_spec())
    engine = DataflowEngine(fabric, _catalog())
    graph = engine.compile(_queries()["filter_project"])
    for stage in graph.stages.values():
        for op in stage.ops:
            assert not isinstance(op, FusedOp)
    monkeypatch.delenv("REPRO_NO_FUSE")
    fabric = build_fabric(dataflow_spec())
    graph = DataflowEngine(fabric, _catalog()).compile(
        _queries()["filter_project"])
    assert any(isinstance(op, FusedOp)
               for stage in graph.stages.values() for op in stage.ops)


def test_query_plan_flag_prints_fusion_boundaries(capsys):
    rc = cli_main(["query", "--rows", "2000", "--placement",
                   "pushdown", "--plan"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fused segment" in out
    assert "-> 1 output channel" in out
    assert "materialize" not in out      # chunks cross channels lazily
