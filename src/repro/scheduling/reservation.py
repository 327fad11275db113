"""Advance reservation and conservative backfill (paper §VI future work).

"Additional local-scheduling policies would need to be considered, such as
advance reservation, backfill or priority scheduling."  This module covers
the first two:

* :class:`ReservationScheduler` — strict arrival order; a job carrying an
  advance reservation (``Job.not_before``) holds the machine: the queue
  blocks (the machine idles) until the reservation time arrives.
* :class:`BackfillScheduler` — same order, but while the head's
  reservation is pending a *later eligible* job may run if its ERTp fits
  entirely inside the idle gap, so the reservation is never delayed
  (conservative backfill).

Both are batch policies (ETTC cost family); their ETTC accounts for the
idle gaps that reservations introduce.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..errors import SchedulingError
from .base import QueuedJob
from .batch import BatchScheduler

if TYPE_CHECKING:
    from ..workload.jobs import Job

__all__ = [
    "ReservationScheduler",
    "BackfillScheduler",
    "reservation_completion_times",
]


def reservation_completion_times(
    order: List[QueuedJob], now: float, running_remaining: float
) -> List[float]:
    """Expected completion times under strict reservation order.

    Like :func:`~repro.scheduling.costs.completion_times` but each job
    starts no earlier than its reservation, inserting idle gaps.
    """
    if running_remaining < 0:
        raise SchedulingError(f"negative running_remaining {running_remaining!r}")
    etcs: List[float] = []
    cursor = now + running_remaining
    for entry in order:
        if entry.job.not_before is not None:
            cursor = max(cursor, entry.job.not_before)
        cursor += entry.ertp
        etcs.append(cursor)
    return etcs


class ReservationScheduler(BatchScheduler):
    """Strict arrival order with honoured advance reservations."""

    name = "RESERVATION"
    supports_reservations = True

    def pop_next(self, now: float = float("inf")) -> Optional[QueuedJob]:
        """Pop the head unless its reservation still holds the machine."""
        if not self._queue:
            return None
        head = self.ordered_queue()[0]
        if not head.job.eligible_at(now):
            return None  # the machine is being held for the reservation
        self._remove_entry(head)
        return head

    def next_wakeup(self, now: float) -> Optional[float]:
        """The head's reservation time, when it is what blocks the queue."""
        if not self._queue:
            return None
        head = self.ordered_queue()[0]
        if head.job.eligible_at(now):
            return None
        return head.job.not_before

    def cost_of(
        self, job: "Job", ertp: float, now: float, running_remaining: float
    ) -> float:
        """ETTC of ``job`` under reservation-aware completion times."""
        order = self.hypothetical_order(job, ertp)
        etcs = reservation_completion_times(order, now, running_remaining)
        for entry, etc in zip(order, etcs):
            if entry.job.job_id == job.job_id:
                return etc - now
        raise SchedulingError(  # pragma: no cover - probe always present
            f"probe job {job.job_id} missing from hypothetical order"
        )


class BackfillScheduler(ReservationScheduler):
    """Reservation order with conservative backfilling of idle gaps.

    While the head job waits for its reservation, the earliest-arrived
    eligible job whose ERTp fits inside the gap runs instead.  The fit test
    uses ERTp against the gap, so (up to ERT estimation error) the reserved
    job is never delayed.
    """

    name = "BACKFILL"

    def pop_next(self, now: float = float("inf")) -> Optional[QueuedJob]:
        """Pop the head, or the earliest job that fits the reservation gap."""
        if not self._queue:
            return None
        order = self.ordered_queue()
        head = order[0]
        if head.job.eligible_at(now):
            self._remove_entry(head)
            return head
        gap = head.job.not_before - now
        for entry in order[1:]:
            if entry.job.eligible_at(now) and entry.ertp <= gap:
                self._remove_entry(entry)
                return entry
        return None

    def next_wakeup(self, now: float) -> Optional[float]:
        # If nothing could backfill right now, the next state change is the
        # head's reservation time (new arrivals re-trigger the executor
        # anyway).
        return super().next_wakeup(now)
