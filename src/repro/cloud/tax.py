"""The data-center tax: serialize / compress / encrypt on the wire.

§2.2: remote memory and storage access "adds significant overhead in
terms of data serialization, compression, encryption, etc., all steps
needed in a cloud setting".  These are implemented as real physical
operators: egress turns a chunk into an encrypted (optionally
compressed) wire payload, ingress reverses it.  The payloads are real
bytes — compression actually shrinks them, encryption actually
scrambles them — so the movement the simulator charges is the true
wire size, and the CPU/accelerator time charged reflects which device
performs the tax (offloading it is half the SmartNIC value
proposition, §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine.operators import Emit, PhysicalOp
from ..hardware.device import OpKind
from ..relational.formats import (
    compress_bytes,
    decompress_bytes,
    deserialize_chunk,
    serialize_chunk,
)
from ..relational.table import Chunk
from ..sim import EventKind, Trace

__all__ = ["TaxConfig", "WirePayload", "EgressOp", "IngressOp",
           "xor_cipher"]


def xor_cipher(payload: bytes, key: int = 0x5A) -> bytes:
    """A toy-but-real stream cipher (content actually changes)."""
    keystream = bytes((key + i) % 256 for i in range(251))
    reps = len(payload) // len(keystream) + 1
    stream = (keystream * reps)[:len(payload)]
    return bytes(a ^ b for a, b in zip(payload, stream))


@dataclass(frozen=True)
class TaxConfig:
    """Which tax steps apply on a given path."""

    serialize: bool = True
    compress: bool = True
    encrypt: bool = True

    @property
    def steps(self) -> list[str]:
        out = []
        if self.serialize:
            out.append("serialize")
        if self.compress:
            out.append("compress")
        if self.encrypt:
            out.append("encrypt")
        return out


class WirePayload:
    """A chunk in wire form: what actually crosses the network."""

    def __init__(self, payload: bytes, num_rows: int,
                 original_nbytes: int, config: TaxConfig):
        self.payload = payload
        self.num_rows = num_rows
        self.original_nbytes = original_nbytes
        self.config = config

    @property
    def nbytes(self) -> int:
        return len(self.payload)


class EgressOp(PhysicalOp):
    """Chunk -> WirePayload (serialize, compress, encrypt)."""

    kind = OpKind.SERIALIZE

    def __init__(self, config: TaxConfig = TaxConfig(),
                 trace: Optional[Trace] = None):
        self.config = config
        self.trace = trace
        self.name = f"egress({'+'.join(config.steps) or 'none'})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        payload = serialize_chunk(chunk)
        if self.config.compress:
            payload = compress_bytes(payload)
        if self.config.encrypt:
            payload = xor_cipher(payload)
        if self.trace is not None:
            self.trace.add("tax.egress.raw_bytes", chunk.nbytes)
            self.trace.add("tax.egress.wire_bytes", len(payload))
            self.trace.add("tax.egress.chunks", 1)
            # Ops hold no sim handle, so the trace clock watermark is
            # the best available timestamp: executors run an op before
            # they replay its charges, so it reads the start of that work.
            self.trace.emit(self.trace.clock, EventKind.TAX_EGRESS,
                            "tax.egress", label=self.name,
                            nbytes=float(len(payload)))
        return [Emit(WirePayload(payload, chunk.num_rows, chunk.nbytes,
                                 self.config))]

    def run(self, chunk):
        nbytes = float(chunk.nbytes)
        charges = [(self.kind, nbytes)]
        if self.config.compress:
            charges.append((OpKind.COMPRESS, nbytes))
        if self.config.encrypt:
            charges.append((OpKind.ENCRYPT, nbytes))
        return self.process(chunk), charges


class IngressOp(PhysicalOp):
    """WirePayload -> Chunk (decrypt, decompress, deserialize)."""

    kind = OpKind.DESERIALIZE

    def __init__(self, config: TaxConfig = TaxConfig(),
                 trace: Optional[Trace] = None):
        self.config = config
        self.trace = trace
        self.name = f"ingress({'+'.join(config.steps) or 'none'})"

    def process(self, payload) -> list[Emit]:
        if not isinstance(payload, WirePayload):
            raise TypeError(
                f"ingress expected a WirePayload, got {payload!r} — "
                "pair IngressOp with an upstream EgressOp")
        raw = payload.payload
        if self.config.encrypt:
            raw = xor_cipher(raw)
        if self.config.compress:
            raw = decompress_bytes(raw)
        if self.trace is not None:
            self.trace.add("tax.ingress.wire_bytes", payload.nbytes)
            self.trace.add("tax.ingress.raw_bytes",
                           payload.original_nbytes)
            self.trace.add("tax.ingress.chunks", 1)
            self.trace.emit(self.trace.clock, EventKind.TAX_INGRESS,
                            "tax.ingress", label=self.name,
                            nbytes=float(payload.nbytes))
        return [Emit(deserialize_chunk(raw))]

    def run(self, payload):
        nbytes = float(payload.nbytes)
        charges = [(self.kind, nbytes)]
        if self.config.encrypt:
            charges.append((OpKind.DECRYPT, nbytes))
        if self.config.compress:
            charges.append((OpKind.DECOMPRESS, nbytes))
        return self.process(payload), charges
