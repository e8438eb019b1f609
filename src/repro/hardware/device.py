"""Base processing-element model.

Every active component in the fabric — a CPU core, a storage
computational unit, a SmartNIC processor, a near-memory accelerator —
is a :class:`Device`.  A device owns a small number of execution slots
(its internal parallelism) and a table of *compute rates*: how many
bytes per second it sustains for each operation kind.  Executing an
operation occupies a slot for ``startup + bytes / rate`` seconds and
is recorded in the fabric trace.

The operation-kind vocabulary (:class:`OpKind`) is shared between the
hardware layer and the query engine: a physical operator declares the
kind of work it performs, the placement step checks the target device
supports that kind, and the device charges time for it.  This is the
paper's "what operators make sense to push down" question made
executable — a device that lacks a kind simply cannot host the
operator.

A fabric's CPU site (``compute<i>.cpu``) is one device with a slot per
core, running at :func:`default_core_rates` — the *software*
implementations the accelerator offloads are compared against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from ..sim import Resource, Simulator, Trace

__all__ = ["OpKind", "Device", "UnsupportedOperation", "GIB",
           "default_core_rates"]

GIB = float(1 << 30)
"""One gibibyte, for writing rates as ``3.0 * GIB``."""


class UnsupportedOperation(Exception):
    """An operation kind was issued to a device that cannot perform it."""


class OpKind:
    """Vocabulary of operation kinds devices can perform.

    Rates are expressed per *input* byte processed.  The constants are
    plain strings so traces stay readable.
    """

    # Relational work.
    FILTER = "filter"
    REGEX = "regex"              # LIKE-style pattern matching (AQUA, §3.3)
    PROJECT = "project"
    HASH = "hash"
    PARTITION = "partition"
    AGGREGATE = "aggregate"
    SORT = "sort"
    JOIN_BUILD = "join_build"
    JOIN_PROBE = "join_probe"
    COUNT = "count"

    # Data-path / cloud work (the "data center tax", §2.2).
    COMPRESS = "compress"
    DECOMPRESS = "decompress"
    ENCRYPT = "encrypt"
    DECRYPT = "decrypt"
    SERIALIZE = "serialize"
    DESERIALIZE = "deserialize"
    TRANSPOSE = "transpose"      # row <-> column format conversion (§5.4)
    POINTER_CHASE = "pointer_chase"  # hierarchical traversal (§5.4)
    LIST_MAINTENANCE = "list_maintenance"  # GC-style list ops (§5.4)

    # Generic fallback for host-side glue.
    GENERIC = "generic"

    ALL = (
        FILTER, REGEX, PROJECT, HASH, PARTITION, AGGREGATE, SORT,
        JOIN_BUILD, JOIN_PROBE, COUNT, COMPRESS, DECOMPRESS, ENCRYPT,
        DECRYPT, SERIALIZE, DESERIALIZE, TRANSPOSE, POINTER_CHASE,
        LIST_MAINTENANCE, GENERIC,
    )


def default_core_rates() -> dict[str, float]:
    """Software (per-core) processing rates in bytes/second.

    Calibrated to a ~3 GHz core running vectorized database kernels.
    Regex is the stand-out laggard — the reason AQUA pushed LIKE to
    accelerators (§3.3).
    """
    return {
        OpKind.FILTER: 8.0 * GIB,
        OpKind.REGEX: 0.8 * GIB,
        OpKind.PROJECT: 12.0 * GIB,
        OpKind.HASH: 6.0 * GIB,
        OpKind.PARTITION: 5.0 * GIB,
        OpKind.AGGREGATE: 6.0 * GIB,
        OpKind.SORT: 2.0 * GIB,
        OpKind.JOIN_BUILD: 3.0 * GIB,
        OpKind.JOIN_PROBE: 4.0 * GIB,
        OpKind.COUNT: 16.0 * GIB,
        OpKind.COMPRESS: 1.5 * GIB,
        OpKind.DECOMPRESS: 3.0 * GIB,
        OpKind.ENCRYPT: 2.0 * GIB,
        OpKind.DECRYPT: 2.0 * GIB,
        OpKind.SERIALIZE: 5.0 * GIB,
        OpKind.DESERIALIZE: 5.0 * GIB,
        OpKind.TRANSPOSE: 4.0 * GIB,
        OpKind.POINTER_CHASE: 0.5 * GIB,
        OpKind.LIST_MAINTENANCE: 2.0 * GIB,
        OpKind.GENERIC: 8.0 * GIB,
    }


@dataclass
class Device:
    """An active processing element with per-kind throughput.

    Parameters
    ----------
    sim, trace:
        The simulation kernel and metric sink this device reports to.
    name:
        Unique name; trace counters are keyed ``device.<name>.*`` and
        bound at the first charge, so an idle device binds none.
    rates:
        Mapping of :class:`OpKind` constants to sustained bytes/second.
        Kinds absent from the map are unsupported unless
        ``default_rate`` is set.
    default_rate:
        Fallback rate for kinds not in ``rates`` (None = unsupported).
    startup:
        Fixed per-operation latency in seconds (kernel launch,
        register programming — §7.2's "programmed without an ISA").
    slots:
        Number of operations the device can run concurrently.
    programmable:
        True for accelerators that lack an ISA and are programmed by
        installing kernels (register files + logic, §7.2); stages
        pay an installation cost before processing on such devices.
    """

    sim: Simulator
    trace: Trace
    name: str
    rates: dict[str, float] = field(default_factory=dict)
    default_rate: Optional[float] = None
    startup: float = 0.0
    slots: int = 1
    programmable: bool = False

    def __post_init__(self):
        self._units = Resource(self.sim, capacity=self.slots,
                               name=f"{self.name}.units")
        # Hot-path trace keys: execute() runs per operator per chunk,
        # so each counter handle is bound at the first charge that adds
        # to it and reused after.
        self._span_name = f"device.{self.name}"
        self._busy = None
        self._bytes_by_kind: dict[str, object] = {}

    # -- capability queries ---------------------------------------------

    def supports(self, kind: str) -> bool:
        """Whether this device can perform operations of ``kind``."""
        return kind in self.rates or self.default_rate is not None

    def rate_for(self, kind: str) -> float:
        """Sustained bytes/second for ``kind`` (raises if unsupported)."""
        rate = self.rates.get(kind, self.default_rate)
        if rate is None:
            raise UnsupportedOperation(
                f"device {self.name!r} does not support {kind!r}")
        return rate

    def service_time(self, kind: str, nbytes: float) -> float:
        """Predicted time to process ``nbytes`` of ``kind`` work.

        The optimizer's cost model calls this directly so that the
        analytic prediction and the simulated charge agree exactly.
        """
        return self.startup + nbytes / self.rate_for(kind)

    def scale_speed(self, factor: float) -> None:
        """What-if perturbation hook: make the device ``factor``× faster.

        Every per-kind rate (and the default rate) is multiplied by
        ``factor`` and the fixed startup latency divided by it, so a
        2× perturbation halves every service time.  ``factor=1.0`` is
        an exact no-op (multiplying a float by 1.0 is the identity),
        which is what lets the what-if engine verify its baseline run
        bit-for-bit against an unperturbed one.
        """
        if factor <= 0:
            raise ValueError(
                f"device {self.name}: speed factor must be positive")
        self.rates = {kind: rate * factor
                      for kind, rate in self.rates.items()}
        if self.default_rate is not None:
            self.default_rate *= factor
        self.startup /= factor

    # -- execution --------------------------------------------------------

    def execute(self, kind: str, nbytes: float) -> Generator:
        """Process ``nbytes`` of ``kind`` work, occupying one slot.

        Yields simulation events; use as ``yield from device.execute(...)``
        inside a process, or wrap with ``sim.process``.
        """
        duration = self.service_time(kind, nbytes)
        # Uncontended admission grants inline (no event, no queue
        # slot); only a busy device pays the request/grant round-trip.
        if not self._units.try_acquire():
            yield self._units.request()
        span = self.trace.open_span(self._span_name, self.sim.now)
        try:
            yield self.sim.timeout(duration)
        finally:
            now = self.sim.now
            self.trace.close_span(span, now)
            # Cumulative busy seconds: the serializable counterpart of
            # the span record, from which per-query utilization deltas
            # are computed (see TraceSnapshot.busy_delta).
            if self._busy is None:
                self._busy = self.trace.counter_handle(
                    f"device.{self.name}.busy_s")
            self._busy.add(now - span.start)
            self._units.release()
        by_kind = self._bytes_by_kind.get(kind)
        if by_kind is None:
            by_kind = self.trace.counter_handle(
                f"device.{self.name}.bytes.{kind}")
            self._bytes_by_kind[kind] = by_kind
        by_kind.add(nbytes)

    # -- reporting ---------------------------------------------------------

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of elapsed time with at least one slot busy."""
        return self._units.utilization(elapsed)

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Device {self.name}>"
