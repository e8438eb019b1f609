"""Pipeline fusion: linear operator chains as one dispatch per morsel.

The paper's streaming argument (§3.3) says operators should process
data *along the movement path* without materialising at every hop.
The engines already express that at the plan level; this module closes
the gap at the execution level.  A maximal linear run of stateless
streaming operators — ``Filter → Project → Map``, optionally
terminated by the ``PartialAggregate`` the run feeds — lowers into a
single :class:`FusedOp`, which runs the whole run as one generated
kernel (:mod:`repro.engine.codegen`: flat numpy source, compiled once
per (pipeline, entry schema) and cached in-process).  A pipeline
codegen declines is ``run_chain`` over its parts — the reference
operators themselves — so there is no second implementation of
filter/project/map here.

Fusion is a *wall-clock* optimisation and must be invisible to the
simulation.  :meth:`FusedOp.run` therefore returns what ``run_chain``
over the parts would: one ``(kind, nbytes)`` charge per original part,
against the bytes of the chunk that part would have seen unfused, and
none past the part that empties the stream.

``REPRO_NO_FUSE=1`` forces the reference (unfused) path; the
equivalence tests and the regression gate compare the two at
``--tolerance 0``.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from ..relational.table import Chunk
from .operators import (
    Emit,
    FilterOp,
    MapOp,
    PartialAggregate,
    PhysicalOp,
    ProjectOp,
    run_chain,
)

__all__ = ["FusedOp", "fuse_ops", "fusion_enabled", "describe_op"]

#: Stateless 1-in/<=1-out streaming operators a fused run may contain.
STREAM_OPS = (FilterOp, ProjectOp, MapOp)

#: Operators that may terminate a run (consume the fused stream).
TERMINAL_OPS = (PartialAggregate,)


def fusion_enabled() -> bool:
    """Whether compilation lowers chains into fused operators.

    Read at compile time (not import time) so tests can flip the
    environment per run.
    """
    return not os.environ.get("REPRO_NO_FUSE")


class FusedOp(PhysicalOp):
    """A linear chain of streaming operators run as one dispatch.

    ``run()`` sends one chunk through the pipeline's generated
    kernel, which gathers only the surviving rows of the kept columns,
    once.  The simulation sees the chain unfused: one ``(kind,
    nbytes)`` charge per original part, against the bytes that part's
    input would have had.
    """

    def __init__(self, parts: Sequence[PhysicalOp]):
        parts = list(parts)
        if len(parts) < 2:
            raise ValueError("fusion needs at least two operators")
        for part in parts[:-1]:
            if not isinstance(part, STREAM_OPS):
                raise ValueError(
                    f"cannot fuse non-streaming operator {part.name!r}")
        if not isinstance(parts[-1], STREAM_OPS + TERMINAL_OPS):
            raise ValueError(
                f"cannot fuse trailing operator {parts[-1].name!r}")
        self.parts = parts
        self.kind = parts[0].kind
        self.name = "fused[" + " -> ".join(p.name for p in parts) + "]"
        # Generated-kernel state: resolved lazily against the first
        # chunk's schema (compile-time plans don't thread schemas into
        # fusion, and the cache key needs the real input shape).
        # ``_kernel`` stays None for a pipeline codegen declined.
        self._kernel = None
        self._entry_schema = None
        self.kernel_origin: Optional[str] = None
        self.kernel_fingerprint: Optional[str] = None

    def _resolve_kernel(self, schema) -> None:
        from . import codegen
        kernel, origin, fingerprint = codegen.resolve(self.parts, schema)
        self._entry_schema = schema
        self._kernel = kernel
        self.kernel_origin = origin
        self.kernel_fingerprint = fingerprint

    def kernel_info(self) -> dict:
        """Resolution state for ``--show-kernel`` and diagnostics."""
        from . import codegen
        source = None
        if self.kernel_fingerprint is not None:
            source = codegen.cached_source(self.kernel_fingerprint)
        return {
            "name": self.name,
            "origin": self.kernel_origin,
            "fingerprint": self.kernel_fingerprint,
            "source": source,
        }

    def fused_parts(self) -> list[PhysicalOp]:
        return list(self.parts)

    def run(self, chunk: Chunk) -> tuple[list[Emit], list[tuple[str, float]]]:
        charges = [(self.kind, float(chunk.nbytes))]
        if chunk.num_rows == 0:
            return [], charges
        if self._entry_schema is not chunk.schema:
            if (self._entry_schema is not None
                    and self._entry_schema.fields == chunk.schema.fields):
                self._entry_schema = chunk.schema
            else:
                self._resolve_kernel(chunk.schema)
        if self._kernel is None:
            # Codegen declined: the parts themselves, exactly as unfused.
            return run_chain(self.parts, chunk)
        # The kernel appends one charge per later part, stopping where
        # a part empties the stream.
        out = self._kernel(chunk, charges)
        return ([] if out is None else [Emit(out)]), charges

    def process(self, chunk: Chunk) -> list[Emit]:
        return self.run(chunk)[0]


def fuse_ops(ops: Sequence[PhysicalOp]) -> list[PhysicalOp]:
    """Rewrite an operator chain, fusing maximal linear runs.

    A run is a maximal stretch of streaming operators
    (filter/project/map), optionally extended by the terminal
    operator it feeds (partial aggregation).  Runs of length >= 2
    become one :class:`FusedOp`; everything else passes through
    unchanged, in order.
    """
    fused: list[PhysicalOp] = []
    run: list[PhysicalOp] = []

    def close(run: list[PhysicalOp]) -> None:
        if len(run) >= 2:
            fused.append(FusedOp(run))
        else:
            fused.extend(run)

    for op in ops:
        if isinstance(op, STREAM_OPS):
            run.append(op)
        elif run and isinstance(op, TERMINAL_OPS):
            run.append(op)
            close(run)
            run = []
        else:
            close(run)
            run = []
            fused.append(op)
    close(run)
    return fused


def describe_op(op: PhysicalOp) -> list[str]:
    """Display lines for one op: fused ops list their parts indented."""
    if isinstance(op, FusedOp):
        lines = [f"fused segment ({len(op.parts)} ops, "
                 f"one dispatch per morsel):"]
        lines += [f"  | {part.name}" for part in op.parts]
        return lines
    return [op.name]
