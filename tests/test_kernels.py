"""Tests for the accelerator kernel compilation layer (§7.2)."""

import pytest

from repro.engine.kernels import (
    Kernel,
    KernelUnsupported,
    compile_kernel,
    install_kernel,
    installation_time,
)
from repro.engine.logical import AggSpec
from repro.engine.operators import (
    FilterOp,
    HashJoinBuild,
    HashJoinProbe,
    JoinState,
    LimitOp,
    MergeAggregate,
    PartialAggregate,
    PartitionOp,
    ProjectOp,
    SortOp,
)
from repro.hardware import Device, OpKind
from repro.relational import DataType, Field, Schema, col, lit
from repro.sim import Simulator, Trace

SCHEMA = Schema.of(("x", DataType.INT64), ("y", DataType.INT64),
                   ("s", DataType.STRING, 16))


def test_simple_comparison_is_register_only():
    kernel = compile_kernel(FilterOp(col("x") > 5))
    assert kernel.logic_bytes == 0
    assert kernel.registers["p.col"] == "x"
    assert kernel.registers["p.cmp"] == ">"
    assert kernel.registers["p.imm"] == 5


def test_between_is_register_only():
    kernel = compile_kernel(FilterOp(col("x").between(3, 9)))
    assert kernel.logic_bytes == 0
    assert kernel.registers["p.lo"] == 3
    assert kernel.registers["p.hi"] == 9


def test_like_needs_automaton_logic():
    short = compile_kernel(FilterOp(col("s").like("a%")))
    long = compile_kernel(FilterOp(col("s").like("%much longer pattern%")))
    assert short.logic_bytes > 0
    assert long.logic_bytes > short.logic_bytes


def test_compound_predicate_needs_tree_logic():
    simple = compile_kernel(FilterOp(col("x") > 5))
    compound = compile_kernel(
        FilterOp((col("x") > 5) & (col("y") < 3) | ~(col("x") == 0)))
    assert compound.logic_bytes > simple.logic_bytes
    assert compound.register_count > simple.register_count


def test_column_column_comparison_needs_alu():
    kernel = compile_kernel(FilterOp(col("x") > col("y")))
    assert kernel.logic_bytes > 0


def test_arithmetic_operand_compiles():
    kernel = compile_kernel(FilterOp(col("x") * lit(2) > col("y")))
    assert kernel.logic_bytes > 0
    assert any(".alu" in k for k in kernel.registers)


def test_isin_logic_scales_with_set():
    small = compile_kernel(FilterOp(col("x").isin([1, 2])))
    big = compile_kernel(FilterOp(col("x").isin(list(range(100)))))
    assert big.logic_bytes > small.logic_bytes


def test_project_partition_limit_register_only():
    assert compile_kernel(ProjectOp(["x", "y"])).logic_bytes == 0
    assert compile_kernel(PartitionOp("x", 4)).logic_bytes == 0
    assert compile_kernel(LimitOp(10)).logic_bytes == 0


def test_aggregate_stages_compile():
    specs = [AggSpec("sum", "y", "t"), AggSpec("count", alias="n")]
    partial = compile_kernel(PartialAggregate(SCHEMA, ["x"], specs))
    assert partial.logic_bytes > 0
    merge = compile_kernel(MergeAggregate(SCHEMA, ["x"], specs))
    assert merge.logic_bytes > 0


def test_scalar_final_merge_compiles_but_grouped_does_not():
    specs = [AggSpec("count", alias="n")]
    scalar_out = Schema([Field("n", DataType.INT64)])
    scalar = MergeAggregate(SCHEMA, [], specs, final=True,
                            output_schema=scalar_out)
    assert compile_kernel(scalar).registers["unit"] == "aggregate"

    grouped_out = Schema([Field("x", DataType.INT64),
                          Field("n", DataType.INT64)])
    grouped = MergeAggregate(SCHEMA, ["x"], specs, final=True,
                             output_schema=grouped_out)
    with pytest.raises(KernelUnsupported):
        compile_kernel(grouped)


def test_stateful_operators_have_no_kernel_form():
    state = JoinState()
    with pytest.raises(KernelUnsupported):
        compile_kernel(HashJoinBuild("x", state))
    with pytest.raises(KernelUnsupported):
        compile_kernel(HashJoinProbe("x", state, SCHEMA, {}))
    with pytest.raises(KernelUnsupported):
        compile_kernel(SortOp(["x"]))


def test_installation_time_components():
    kernel = Kernel("k", OpKind.FILTER, {"a": 1, "b": 2},
                    logic_bytes=1000)
    expected = 2 * 100e-9 + 1000 / 1.0e9
    assert installation_time(kernel) == pytest.approx(expected)


def test_install_kernel_charges_device():
    sim = Simulator()
    trace = Trace()
    device = Device(sim, trace, "accel", rates={OpKind.FILTER: 1e9},
                    programmable=True)
    kernel = compile_kernel(FilterOp(col("s").like("%abc%")))

    def run():
        yield from install_kernel(device, kernel)
        return sim.now

    elapsed = sim.run_process(run())
    assert elapsed == pytest.approx(installation_time(kernel))
    assert trace.counter("device.accel.kernel_install_time") == elapsed


def test_stage_on_accelerator_pays_installation():
    from repro.flow import StageGraph
    from repro.hardware import build_fabric, dataflow_spec
    from repro.relational import make_uniform_table
    fabric = build_fabric(dataflow_spec())
    table = make_uniform_table(1000, chunk_rows=500)
    graph = StageGraph(fabric, name="k")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    filt = graph.stage("filter", "storage.cu",
                       [FilterOp(col("k0") < 100)])
    sink = graph.sink("out", "compute0.cpu")
    graph.connect(src, filt)
    graph.connect(filt, sink)
    graph.run()
    # One installation: the filter's.
    assert fabric.trace.counter("device.storage.cu.kernel_install_time") \
        == installation_time(compile_kernel(FilterOp(col("k0") < 100)))


def test_stateful_op_on_accelerator_fails_loudly():
    from repro.flow import StageGraph
    from repro.hardware import build_fabric, dataflow_spec
    from repro.relational import make_uniform_table
    fabric = build_fabric(dataflow_spec())
    # A SmartNIC supports AGGREGATE by rate table, but a *final
    # grouped* aggregate has no kernel form — the runtime must refuse.
    table = make_uniform_table(100, chunk_rows=50)
    specs = [AggSpec("count", alias="n")]
    out = Schema([Field("k0", DataType.INT64),
                  Field("n", DataType.INT64)])
    graph = StageGraph(fabric, name="bad")
    src = graph.source("scan", table, medium=fabric.storage.medium)
    agg = graph.stage("agg", "storage.nic",
                      [MergeAggregate(table.schema, ["k0"], specs,
                                      final=True, output_schema=out)])
    graph.connect(src, agg)
    with pytest.raises(RuntimeError, match="kernel|unbounded|cannot"):
        graph.run()
