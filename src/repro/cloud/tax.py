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

import numpy as np

from ..engine.operators import Emit, PhysicalOp
from ..hardware.device import OpKind
from ..relational.formats import (
    compress_bytes,
    decompress_bytes,
    deserialize_chunk,
    serialize_chunk,
)
from ..relational.table import Chunk

__all__ = ["TaxConfig", "WirePayload", "EgressOp", "IngressOp",
           "xor_cipher"]


def xor_cipher(payload: bytes) -> bytes:
    """A toy-but-real stream cipher (content actually changes): XOR
    with the 251-byte keystream ``0x5A, 0x5B, ...`` modulo 256."""
    data = np.frombuffer(payload, dtype=np.uint8)
    keystream = ((0x5A + np.arange(251)) % 256).astype(np.uint8)
    return (data ^ np.resize(keystream, len(data))).tobytes()


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

    def __init__(self, payload: bytes, num_rows: int):
        self.payload = payload
        self.num_rows = num_rows

    @property
    def nbytes(self) -> int:
        return len(self.payload)


class EgressOp(PhysicalOp):
    """Chunk -> WirePayload (serialize, compress, encrypt)."""

    kind = OpKind.SERIALIZE

    def __init__(self, config: TaxConfig = TaxConfig()):
        self.config = config
        self.name = f"egress({'+'.join(config.steps) or 'none'})"

    def process(self, chunk: Chunk) -> list[Emit]:
        if chunk.num_rows == 0:
            return []
        payload = serialize_chunk(chunk)
        if self.config.compress:
            payload = compress_bytes(payload)
        if self.config.encrypt:
            payload = xor_cipher(payload)
        return [Emit(WirePayload(payload, chunk.num_rows))]

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

    def __init__(self, config: TaxConfig = TaxConfig()):
        self.config = config
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
        return [Emit(deserialize_chunk(raw))]

    def run(self, payload):
        nbytes = float(payload.nbytes)
        charges = [(self.kind, nbytes)]
        if self.config.encrypt:
            charges.append((OpKind.DECRYPT, nbytes))
        if self.config.compress:
            charges.append((OpKind.DECOMPRESS, nbytes))
        return self.process(payload), charges
