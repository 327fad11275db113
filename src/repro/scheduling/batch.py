"""Batch local-scheduling policies (cost function: ETTC).

The paper evaluates First-Come-First-Served and Shortest-Job-First
(§IV-C); both "share the same cost function ... and are thus interoperable".
Longest-Job-First is included as an additional interoperable batch policy
for the future-work ablations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .base import BATCH, LocalScheduler, QueuedJob

if TYPE_CHECKING:
    from ..workload.jobs import Job
from .costs import ettc

__all__ = ["BatchScheduler", "FCFSScheduler", "SJFScheduler", "LJFScheduler"]


class BatchScheduler(LocalScheduler):
    """Common cost logic of all batch policies: ETTC of the probed job."""

    kind = BATCH

    def cost_of(
        self, job: "Job", ertp: float, now: float, running_remaining: float
    ) -> float:
        """ETTC of ``job`` if it were enqueued now (lower is better)."""
        return ettc(
            self.hypothetical_order(job, ertp), job.job_id, now, running_remaining
        )


class FCFSScheduler(BatchScheduler):
    """First-Come-First-Served: execution follows local arrival order.

    Arrival means "reception of an ASSIGN message" (§IV-C) — i.e. the order
    jobs were enqueued on *this* node, which is exactly the base-class
    default order.
    """

    name = "FCFS"


class SJFScheduler(BatchScheduler):
    """Shortest-Job-First: "the scheduling order depends on the jobs' ERT,
    with shorter jobs being executed first" (§IV-C).

    Note the paper orders by the grid-baseline **ERT**, not the node-scaled
    ERTp — on a single node the two orders coincide anyway because ERTp is
    ERT divided by one constant.  Ties fall back to arrival order, keeping
    the policy deterministic.
    """

    name = "SJF"

    def execution_order(self, entries: List[QueuedJob]) -> List[QueuedJob]:
        """Sort by grid-baseline ERT, ties by arrival."""
        return sorted(entries, key=lambda e: (e.job.ert, e.enqueue_time))


class LJFScheduler(BatchScheduler):
    """Longest-Job-First (extension): inverse of SJF, same ETTC cost."""

    name = "LJF"

    def execution_order(self, entries: List[QueuedJob]) -> List[QueuedJob]:
        """Sort by descending ERT, ties by arrival."""
        return sorted(entries, key=lambda e: (-e.job.ert, e.enqueue_time))
