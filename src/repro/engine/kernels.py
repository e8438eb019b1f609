"""Programming accelerators without an ISA: kernels (§7.2).

The paper: "Some accelerators ... are programmed directly — they lack
an ISA — simply by filling a small set of memory-mapped registers ...
Other accelerators ... require ... the installation of some logic ...
The literature refers to the operational information passed on to
accelerators as *kernels*."

This module compiles physical operators into :class:`Kernel`
descriptions — a register file plus, where register settings cannot
express the operator, installable parsing/matching *logic* — and
charges the installation cost to the target device.  The compiled
form is derived from the operator's real structure:

* a simple comparison filter is pure registers (column id, compare op,
  immediate value);
* a LIKE filter needs a compiled automaton whose size follows the
  pattern (the §3.3 regex accelerator);
* compound predicates need predicate-tree logic proportional to their
  node count;
* projections and partitioners are registers (column bitmap / key +
  fanout + seed);
* aggregation stages need group-hashing logic plus per-aggregate
  registers;
* stateful operators (join build/probe, sort) have no kernel form —
  they need a real ISA and must stay on the CPU
  (:class:`KernelUnsupported`).

Stages install kernels once at start-up on *programmable* devices, so
offload pays a visible setup cost — which is why tiny queries can
lose by offloading (bench E4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hardware.device import Device
from ..relational.expressions import (
    And,
    Arith,
    Between,
    Compare,
    Col,
    Const,
    Expression,
    InSet,
    Like,
    Not,
    Or,
)
from .operators import (
    FilterOp,
    HashJoinBuild,
    HashJoinProbe,
    LimitOp,
    MapOp,
    MergeAggregate,
    MergeRuns,
    PartialAggregate,
    PartitionOp,
    PhysicalOp,
    ProjectOp,
    SortOp,
    SortRuns,
)

__all__ = ["Kernel", "KernelUnsupported", "compile_kernel",
           "install_kernel", "installation_time"]

# Installation cost parameters (seconds / bytes-per-second).  A
# register write is a posted MMIO store; logic installs stream over
# the device's control path.
REGISTER_WRITE_TIME = 100e-9
LOGIC_INSTALL_RATE = 1.0e9   # bytes/second of control-path bandwidth
ACCEL_STATE_ROWS = 4096      # max group-state rows an accelerator holds


class KernelUnsupported(Exception):
    """The operator cannot be expressed as an accelerator kernel."""


@dataclass
class Kernel:
    """The operational information shipped to an accelerator."""

    op_name: str
    kind: str
    registers: dict[str, object] = field(default_factory=dict)
    logic_bytes: int = 0

    @property
    def register_count(self) -> int:
        return len(self.registers)


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

def _compile_predicate(expr: Expression,
                       registers: dict[str, object],
                       prefix: str = "p") -> int:
    """Fill ``registers`` from a predicate tree; returns logic bytes.

    Simple comparisons are register-only; everything structural
    (boolean combinators, arithmetic, set membership) contributes
    predicate-tree logic; LIKE contributes automaton logic sized by
    its pattern.
    """
    if isinstance(expr, Compare):
        left, right = expr.left, expr.right
        if isinstance(left, Col) and isinstance(right, Const):
            registers[f"{prefix}.col"] = left.name
            registers[f"{prefix}.cmp"] = expr.op
            registers[f"{prefix}.imm"] = right.value
            return 0
        # Column-column or computed comparisons need ALU logic.
        logic = 64
        logic += _compile_operand(left, registers, f"{prefix}.l")
        logic += _compile_operand(right, registers, f"{prefix}.r")
        registers[f"{prefix}.cmp"] = expr.op
        return logic
    if isinstance(expr, Between):
        registers[f"{prefix}.col"] = _operand_name(expr.operand)
        registers[f"{prefix}.lo"] = getattr(expr.low, "value", None)
        registers[f"{prefix}.hi"] = getattr(expr.high, "value", None)
        return 0
    if isinstance(expr, InSet):
        registers[f"{prefix}.col"] = _operand_name(expr.operand)
        registers[f"{prefix}.set_size"] = len(expr.values)
        # The membership table is installed logic.
        return 16 * len(expr.values)
    if isinstance(expr, Like):
        registers[f"{prefix}.col"] = _operand_name(expr.operand)
        # A compiled automaton: states roughly track pattern length.
        return 256 + 32 * len(expr.pattern)
    if isinstance(expr, Not):
        registers[f"{prefix}.not"] = True
        return 16 + _compile_predicate(expr.operand, registers,
                                       f"{prefix}.0")
    if isinstance(expr, (And, Or)):
        gate = "and" if isinstance(expr, And) else "or"
        registers[f"{prefix}.gate"] = gate
        logic = 32
        logic += _compile_predicate(expr.left, registers, f"{prefix}.0")
        logic += _compile_predicate(expr.right, registers,
                                    f"{prefix}.1")
        return logic
    raise KernelUnsupported(
        f"predicate node {type(expr).__name__} has no kernel form")


def _operand_name(expr: Expression) -> str:
    if isinstance(expr, Col):
        return expr.name
    raise KernelUnsupported(
        f"accelerator predicates address columns directly, got {expr!r}")


def _compile_operand(expr: Expression, registers: dict[str, object],
                     prefix: str) -> int:
    if isinstance(expr, Col):
        registers[f"{prefix}.col"] = expr.name
        return 0
    if isinstance(expr, Const):
        registers[f"{prefix}.imm"] = expr.value
        return 0
    if isinstance(expr, Arith):
        registers[f"{prefix}.alu"] = expr.op
        logic = 32
        logic += _compile_operand(expr.left, registers, f"{prefix}.l")
        logic += _compile_operand(expr.right, registers, f"{prefix}.r")
        return logic
    raise KernelUnsupported(
        f"operand {type(expr).__name__} has no kernel form")


# ---------------------------------------------------------------------------
# Operator compilation
# ---------------------------------------------------------------------------

def compile_kernel(op: PhysicalOp) -> Kernel:
    """Compile a physical operator into its accelerator kernel."""
    if isinstance(op, FilterOp):
        registers: dict[str, object] = {"unit": "filter"}
        logic = _compile_predicate(op.predicate, registers)
        return Kernel(op.name, op.kind, registers, logic)
    if isinstance(op, ProjectOp):
        return Kernel(op.name, op.kind,
                      {"unit": "project",
                       "columns": tuple(op.columns)}, 0)
    if isinstance(op, MapOp):
        registers = {"unit": "map", "outputs": tuple(op.exprs)}
        logic = 0
        for index, expr in enumerate(op.exprs.values()):
            logic += 32 + _compile_operand(expr, registers,
                                           f"m{index}")
        return Kernel(op.name, op.kind, registers, logic)
    if isinstance(op, PartitionOp):
        return Kernel(op.name, op.kind,
                      {"unit": "partition", "key": op.key,
                       "fanout": op.n_partitions,
                       "seed": 0x9E3779B1}, 0)
    if isinstance(op, (PartialAggregate, MergeAggregate)):
        state_rows = 0
        if isinstance(op, MergeAggregate) and op.final and op.group_by:
            # A grouped final merge holds state for every group.
            # §4.4: "depending on the size of the result, the same
            # could be done with, e.g., aggregation queries" — so it
            # compiles only under a declared, accelerator-sized bound.
            if op.expected_groups is None:
                raise KernelUnsupported(
                    "grouped final aggregation needs a declared "
                    "expected_groups bound to run off-CPU")
            if op.expected_groups > ACCEL_STATE_ROWS:
                raise KernelUnsupported(
                    f"{op.expected_groups} groups exceed the "
                    f"accelerator state table ({ACCEL_STATE_ROWS})")
            state_rows = op.expected_groups
        registers = {"unit": "aggregate",
                     "group_by": tuple(op.group_by),
                     "aggs": tuple(a.op for a in op.aggs)}
        # Group hashing + state update logic per aggregate, plus the
        # state table for bounded grouped finals.
        logic = 128 + 64 * max(1, len(op.group_by)) + 48 * len(op.aggs)
        logic += 32 * state_rows
        return Kernel(op.name, op.kind, registers, logic)
    if isinstance(op, SortRuns):
        # A per-chunk sorting network: bounded state, installable.
        return Kernel(op.name, op.kind,
                      {"unit": "sort_runs",
                       "keys": tuple(op.keys)},
                      1024 + 128 * len(op.keys))
    if isinstance(op, LimitOp):
        return Kernel(op.name, op.kind,
                      {"unit": "limit", "n": op.n}, 0)
    if isinstance(op, (HashJoinBuild, HashJoinProbe, SortOp,
                       MergeRuns)):
        raise KernelUnsupported(
            f"{type(op).__name__} is stateful and needs an ISA "
            "(run on CPU)")
    # Unknown operators: assume they carry general logic.
    return Kernel(op.name, op.kind, {"unit": "generic"}, 512)


def installation_time(kernel: Kernel) -> float:
    """Seconds to program a device with ``kernel``."""
    return (kernel.register_count * REGISTER_WRITE_TIME
            + kernel.logic_bytes / LOGIC_INSTALL_RATE)


def install_kernel(device: Device, kernel: Kernel):
    """Charge the device for installing ``kernel`` (sim process).

    Installation occupies a device slot (the unit being programmed
    cannot process data meanwhile), mirroring how register files and
    logic banks are reconfigured.
    """
    duration = installation_time(kernel)
    if not device._units.try_acquire():
        yield device._units.request()
    try:
        yield device.sim.timeout(duration)
    finally:
        device._units.release()
    device.trace.add(f"device.{device.name}.kernel_install_time",
                     duration)
