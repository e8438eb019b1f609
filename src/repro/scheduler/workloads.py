"""Workload generation for scheduling experiments (§7.3).

Open workloads: queries arrive over time rather than all at once.
Each generator draws seeded inter-arrival times, so policy comparisons
run the *identical* workload.
"""

from __future__ import annotations

import numpy as np

__all__ = ["poisson_arrivals", "bursty_arrivals", "diurnal_arrivals"]


def poisson_arrivals(n: int, rate: float, seed: int = 0) -> list[float]:
    """``n`` arrival times of a Poisson process with ``rate`` (1/s)."""
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=n)
    return np.cumsum(gaps).tolist()


def bursty_arrivals(n: int, rate_on: float, rate_off: float,
                    mean_on: float, mean_off: float,
                    seed: int = 0) -> list[float]:
    """``n`` arrivals of a Markov-modulated (on/off bursty) process.

    The source alternates between an *on* phase (Poisson arrivals at
    ``rate_on``) and an *off* phase (``rate_off``, possibly zero);
    phase durations are exponential with means ``mean_on`` /
    ``mean_off``.  Seeded and fully deterministic.
    """
    if rate_on <= 0:
        raise ValueError("rate_on must be positive")
    if rate_off < 0:
        raise ValueError("rate_off must be non-negative")
    if mean_on <= 0 or mean_off <= 0:
        raise ValueError("phase durations must be positive")
    rng = np.random.default_rng(seed)
    arrivals: list[float] = []
    now = 0.0
    on = True
    while len(arrivals) < n:
        duration = rng.exponential(mean_on if on else mean_off)
        rate = rate_on if on else rate_off
        t = now
        while rate > 0 and len(arrivals) < n:
            t += rng.exponential(1.0 / rate)
            if t >= now + duration:
                break
            arrivals.append(t)
        now += duration
        on = not on
    return arrivals


def diurnal_arrivals(n: int, base_rate: float, amplitude: float,
                     period: float, seed: int = 0) -> list[float]:
    """``n`` arrivals of a sinusoidally-modulated Poisson process.

    The instantaneous rate is ``base_rate * (1 + amplitude *
    sin(2*pi*t/period))`` — the classic diurnal load curve, generated
    by thinning a homogeneous process at the peak rate.
    """
    if base_rate <= 0:
        raise ValueError("base_rate must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if period <= 0:
        raise ValueError("period must be positive")
    rng = np.random.default_rng(seed)
    peak = base_rate * (1.0 + amplitude)
    arrivals: list[float] = []
    t = 0.0
    while len(arrivals) < n:
        t += rng.exponential(1.0 / peak)
        rate = base_rate * (1.0 + amplitude
                            * np.sin(2.0 * np.pi * t / period))
        if rng.uniform() * peak <= rate:
            arrivals.append(t)
    return arrivals
