"""The paper's two cost functions: ETTC and NAL (§III-C).

**Estimated Time To Completion** (batch schedulers)::

    ETTCcost(j) = ETTCj

the *relative* time at which job ``j`` is expected to finish under the local
policy and the node's current load (running job + waiting queue).

**Negative Accumulated Lateness** (deadline schedulers)::

    NALcost(j) = Σ_{job ∈ Q'} δ(job, Q') · |γ_job|       with Q' = Q ∪ {j}
    γ_job = deadline_job − ETC_job
    δ(job, S) = −1  if γ_w ≥ 0 for every w in S
                 0  if γ_job ≥ 0 but some w in S has γ_w < 0
                 1  otherwise (γ_job < 0)

ETC is the *absolute* expected completion time of each job in Q' under the
policy order.  When every deadline holds, NAL is the negated total slack
(more slack = lower = better); each missed deadline contributes its lateness
positively, and on-time jobs in a missing queue contribute nothing.
"""

from __future__ import annotations

from typing import List, Sequence

from ..errors import SchedulingError
from .base import QueuedJob

__all__ = ["ettc", "completion_times", "nal"]


def completion_times(
    order: Sequence[QueuedJob], now: float, running_remaining: float
) -> List[float]:
    """Absolute expected completion time of each entry of ``order``.

    The machine runs one job at a time, so entry *k* completes after the
    running job's remaining time plus the ERTp of entries 0..k.
    """
    if running_remaining < 0:
        raise SchedulingError(f"negative running_remaining {running_remaining!r}")
    etcs: List[float] = []
    elapsed = running_remaining
    for entry in order:
        elapsed += entry.ertp
        etcs.append(now + elapsed)
    return etcs


def ettc(
    order: Sequence[QueuedJob],
    job_id: int,
    now: float,
    running_remaining: float,
) -> float:
    """Relative expected completion time of ``job_id`` within ``order``."""
    for entry, etc in zip(order, completion_times(order, now, running_remaining)):
        if entry.job.job_id == job_id:
            return etc - now
    raise SchedulingError(f"job {job_id} not in hypothetical order")


def nal(order: Sequence[QueuedJob], now: float, running_remaining: float) -> float:
    """Negative Accumulated Lateness of the whole hypothetical queue."""
    gammas: List[float] = []
    for entry, etc in zip(order, completion_times(order, now, running_remaining)):
        if entry.job.deadline is None:
            raise SchedulingError(
                f"job {entry.job.job_id} has no deadline: NAL needs deadlines"
            )
        gammas.append(entry.job.deadline - etc)
    any_late = any(g < 0 for g in gammas)
    total = 0.0
    for gamma in gammas:
        if not any_late:
            delta = -1.0
        elif gamma >= 0:
            delta = 0.0
        else:
            delta = 1.0
        total += delta * abs(gamma)
    return total
