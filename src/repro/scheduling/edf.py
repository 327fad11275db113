"""Earliest-Deadline-First local scheduling (cost function: NAL).

"Used only for deadline scheduling, this policy prioritizes jobs with an
earlier deadline (as specified in their profile)" (§IV-C).  EDF is the sole
deadline policy of the paper's evaluation and uses the Negative Accumulated
Lateness cost; deadline offers are never compared with batch (ETTC) offers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from ..errors import SchedulingError
from ..types import JobId
from .base import DEADLINE, LocalScheduler, QueuedJob

if TYPE_CHECKING:
    from ..workload.jobs import Job
from .costs import nal

__all__ = ["EDFScheduler"]


class EDFScheduler(LocalScheduler):
    """Earliest-Deadline-First with the NAL cost."""

    kind = DEADLINE
    name = "EDF"

    def enqueue(self, job: "Job", ertp: float, now: float) -> QueuedJob:
        """Enqueue ``job``; EDF refuses jobs without a deadline."""
        if job.deadline is None:
            raise SchedulingError(
                f"job {job.job_id} has no deadline: EDF requires deadlines"
            )
        return super().enqueue(job, ertp, now)

    def execution_order(self, entries: List[QueuedJob]) -> List[QueuedJob]:
        """Sort by deadline, ties by arrival."""
        return sorted(
            entries, key=lambda e: (e.job.deadline, e.enqueue_time)
        )

    def cost_of(
        self, job: "Job", ertp: float, now: float, running_remaining: float
    ) -> float:
        """NAL of the queue with ``job`` hypothetically added."""
        if job.deadline is None:
            raise SchedulingError(
                f"job {job.job_id} has no deadline: cannot compute NAL"
            )
        return nal(self.hypothetical_order(job, ertp), now, running_remaining)

    def queue_cost_of(
        self, job_id: JobId, now: float, running_remaining: float
    ) -> float:
        """Whole-queue NAL (the deadline family's INFORM quote).

        Independent of ``job_id``: §III-D quotes the queue, not the job.
        """
        return nal(self.ordered_queue(), now, running_remaining)
