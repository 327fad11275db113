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

from typing import TYPE_CHECKING, List, Sequence

from ..errors import SchedulingError

if TYPE_CHECKING:  # base imports this module for its default queue cost
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
    """Relative expected completion time of ``job_id`` within ``order``.

    One pass, stopping at the first match, with the float operations of
    :func:`completion_times` in its order (``elapsed += ertp``, then
    ``now + elapsed``): the two agree bit for bit.
    """
    if running_remaining < 0:
        raise SchedulingError(f"negative running_remaining {running_remaining!r}")
    elapsed = running_remaining
    for entry in order:
        elapsed += entry.ertp
        if entry.job.job_id == job_id:
            return (now + elapsed) - now
    raise SchedulingError(f"job {job_id} not in hypothetical order")


def nal(order: Sequence[QueuedJob], now: float, running_remaining: float) -> float:
    """Negative Accumulated Lateness of the whole hypothetical queue.

    One pass keeps both candidate sums: ``slack`` is the answer while
    every deadline holds (each δ = −1), ``lateness`` once one is missed
    (δ = 1 for late entries; on-time ones have δ = 0 and add nothing).
    """
    if running_remaining < 0:
        raise SchedulingError(f"negative running_remaining {running_remaining!r}")
    elapsed = running_remaining
    slack = 0.0
    lateness = 0.0
    any_late = False
    for entry in order:
        deadline = entry.job.deadline
        if deadline is None:
            raise SchedulingError(
                f"job {entry.job.job_id} has no deadline: NAL needs deadlines"
            )
        elapsed += entry.ertp
        gamma = deadline - (now + elapsed)
        if gamma < 0:
            any_late = True
            lateness -= gamma
        elif not any_late:
            slack -= gamma
    return lateness if any_late else slack
