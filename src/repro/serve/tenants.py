"""Tenant classes, their arrival processes, and the server's knobs.

A :class:`TenantClass` bundles everything the server needs to know
about one population of users: its fair-queueing weight, its latency
SLO, which query templates it runs (with weights), and how its
queries arrive — an *open* process (poisson / bursty / diurnal:
arrivals do not wait for completions) or a *closed* one (a fixed
population of clients, each submitting, waiting, thinking, and
submitting again).  :class:`ServeConfig` lives here beside them, so a
scenario can be described without loading the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ArrivalSpec", "ServeConfig", "TenantClass"]

ARRIVAL_KINDS = ("poisson", "bursty", "diurnal", "closed")


@dataclass(frozen=True)
class ArrivalSpec:
    """How one tenant's queries arrive (all rates in queries/s).

    ``poisson``: homogeneous arrivals at ``rate``.
    ``bursty``: Markov-modulated on/off — ``rate`` during bursts,
    ``rate_off`` between them, exponential phase lengths with means
    ``mean_on`` / ``mean_off``.
    ``diurnal``: sinusoidal rate ``rate * (1 + amplitude *
    sin(2*pi*t/period))``.
    ``closed``: ``population`` clients, each waiting for its previous
    query and thinking for an exponential ``think_s`` before the next.
    """

    kind: str = "poisson"
    rate: float = 50.0
    rate_off: float = 0.0
    mean_on: float = 0.05
    mean_off: float = 0.05
    amplitude: float = 0.8
    period: float = 1.0
    population: int = 4
    think_s: float = 0.01

    def __post_init__(self):
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.kind!r} "
                             f"(have {ARRIVAL_KINDS})")
        if self.kind == "closed" and self.population < 1:
            raise ValueError("closed populations need >= 1 client")

    @property
    def is_open(self) -> bool:
        return self.kind != "closed"


@dataclass
class TenantClass:
    """One tenant population sharing the served fabric.

    ``weight`` is the fair-queueing share; ``slo_s`` the per-query
    latency SLO (arrival to completion, simulated seconds), which
    :data:`~repro.analysis.slo.SLO_TARGET` of its completions must
    meet; ``templates`` maps template names to draw weights.
    """

    name: str
    weight: float = 1.0
    slo_s: float = 0.1
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    templates: dict[str, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be "
                             "positive")
        if self.slo_s <= 0:
            raise ValueError(f"tenant {self.name!r}: slo_s must be "
                             "positive")
        if not self.templates:
            raise ValueError(f"tenant {self.name!r}: needs at least "
                             "one template")

    def draw_templates(self, n: int) -> list[str]:
        """``n`` template names drawn by weight (seeded per tenant)."""
        import numpy as np
        rng = np.random.default_rng(self.seed)
        names = sorted(self.templates)
        probabilities = np.array([self.templates[t] for t in names],
                                 dtype=float)
        probabilities /= probabilities.sum()
        picks = rng.choice(len(names), size=n, p=probabilities)
        return [names[i] for i in picks]


@dataclass(frozen=True)
class ServeConfig:
    """Server-wide knobs.

    ``max_concurrency`` execution slots run admitted queries; up to
    ``max_queue`` more wait in the fair queue, and a query arriving
    when both are full is shed.
    The ``telemetry`` flag gates only the *derived* telemetry
    (windowing, sketches, exemplars, burn-rate alerts) — the serve
    lifecycle events and trace contexts are always recorded, and the
    observer-effect CI gate asserts that flipping the flag changes
    neither checksums nor completion order.
    """

    max_concurrency: int = 4
    max_queue: int = 32
    telemetry: bool = True
    #: The saturation observatory (windowed fabric attribution, bound
    #: classifier, placement regret) — pure observer like telemetry,
    #: gated by its own observer-effect CI leg.
    observatory: bool = True

    def __post_init__(self):
        if self.max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
