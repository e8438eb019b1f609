"""Admission control: bounded queue + load shedding with retry-after.

A server that accepts every request melts down under overload; a
server that drops silently wastes the client's timeout.  The
controller bounds the waiting room and, when it sheds, computes an
honest *retry-after* hint from the backlog it can see: the queued
service demand divided by the server's drain rate.  Clients (and the
load generators) treat the hint as simulated seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AdmissionController", "AdmissionDecision"]

#: The shortest retry-after hint a shed query gets (simulated seconds).
MIN_RETRY_AFTER_S = 1e-3


@dataclass(frozen=True)
class AdmissionDecision:
    """The verdict for one arriving query."""

    admitted: bool
    retry_after_s: float = 0.0
    reason: str = ""


class AdmissionController:
    """Bounded waiting room with backlog-proportional retry hints."""

    def __init__(self, max_queue: int, max_concurrency: int):
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.max_queue = max_queue
        self.max_concurrency = max_concurrency
        self.admitted = 0
        self.shed = 0

    def decide(self, queued: int, running: int,
               backlog_cost_s: float) -> AdmissionDecision:
        """Admit or shed given the current queue/running occupancy.

        ``backlog_cost_s`` is the summed service-time estimate of the
        queued requests; the retry hint is the time the backlog needs
        to drain through ``max_concurrency`` execution slots.  A
        query is shed only when the waiting room is full *and* every
        slot is busy, so ``max_queue=0`` still admits into a free slot.
        """
        if queued >= self.max_queue and running >= self.max_concurrency:
            self.shed += 1
            drain = backlog_cost_s / self.max_concurrency
            retry = max(MIN_RETRY_AFTER_S, drain)
            return AdmissionDecision(
                admitted=False, retry_after_s=retry,
                reason=f"queue full ({queued}/{self.max_queue} "
                       f"waiting, {running} running)")
        self.admitted += 1
        return AdmissionDecision(admitted=True)

    def counters(self) -> dict[str, int]:
        return {"admitted": self.admitted, "shed": self.shed}
