"""Local-scheduler interface.

ARiA "does not enforce any particular local scheduling policy" (§III-A);
every node runs one :class:`LocalScheduler` that owns the node's waiting
queue.  A scheduler is *batch* (cost = ETTC) or *deadline* (cost = NAL);
the two families are never mixed in one cost comparison (§III-C).

Schedulers are deliberately simulator-agnostic: they know nothing about the
kernel or the network, only about jobs, their node-scaled estimates (ERTp)
and the current time — which keeps them unit-testable in isolation and
reusable by the centralized baselines.

Every cost a scheduler quotes is one left fold from
:mod:`repro.scheduling.costs` over an order :meth:`execution_order`
produced; nothing is cached between calls, because the queues the
workloads build are a handful of jobs deep (``scripts/queue_census.py``,
``docs/PERFORMANCE.md``).  A custom policy overrides
:meth:`~LocalScheduler.execution_order` and nothing else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, List, Optional

from ..errors import SchedulingError
from ..types import JobId
from .costs import ettc

if TYPE_CHECKING:  # imported lazily to avoid a workload<->scheduling cycle
    from ..workload.jobs import Job

__all__ = ["QueuedJob", "LocalScheduler", "BATCH", "DEADLINE"]

#: Scheduler family labels.
BATCH = "batch"
DEADLINE = "deadline"


class QueuedJob:
    """A job waiting in a node's queue, with node-local bookkeeping."""

    __slots__ = ("job", "ertp", "enqueue_time")

    def __init__(self, job: "Job", ertp: float, enqueue_time: float) -> None:
        self.job = job
        self.ertp = ertp
        self.enqueue_time = enqueue_time

    def waiting_time(self, now: float) -> float:
        """How long the job has been waiting on this node."""
        return now - self.enqueue_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueuedJob {self.job.job_id} ertp={self.ertp:.0f}s>"


class LocalScheduler:
    """Base class: a policy-ordered waiting queue for one node."""

    #: ``BATCH`` or ``DEADLINE`` — selects the cost function family.
    kind: ClassVar[str] = BATCH
    #: Human-readable policy name ("FCFS", "SJF", "EDF", ...).
    name: ClassVar[str] = "?"
    #: Whether the policy honours advance reservations (``Job.not_before``).
    #: Jobs carrying a reservation may only be hosted by such schedulers.
    supports_reservations: ClassVar[bool] = False

    def __init__(self) -> None:
        self._queue: List[QueuedJob] = []
        self._ids: set = set()

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def execution_order(self, entries: List[QueuedJob]) -> List[QueuedJob]:
        """Return a new list: ``entries`` in the order this policy would
        run them (``entries`` itself is the live queue — leave it alone).

        Subclasses override this single hook; enqueueing, removal, cost and
        candidate selection all derive from it.  The default is arrival
        order (FCFS).
        """
        return list(entries)

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def enqueue(self, job: "Job", ertp: float, now: float) -> QueuedJob:
        """Append a newly assigned job to the waiting queue."""
        if job.job_id in self._ids:
            raise SchedulingError(f"job {job.job_id} already queued")
        entry = QueuedJob(job, ertp, now)
        self._queue.append(entry)
        self._ids.add(job.job_id)
        return entry

    def remove(self, job_id: JobId) -> QueuedJob:
        """Remove a waiting job (it is being rescheduled elsewhere)."""
        if job_id in self._ids:
            for index, entry in enumerate(self._queue):
                if entry.job.job_id == job_id:
                    del self._queue[index]
                    self._ids.discard(job_id)
                    return entry
        raise SchedulingError(f"job {job_id} not in queue")

    def find(self, job_id: JobId) -> Optional[QueuedJob]:
        """The queue entry for ``job_id``, or ``None``."""
        if job_id not in self._ids:
            return None
        for entry in self._queue:
            if entry.job.job_id == job_id:
                return entry
        return None  # pragma: no cover - _ids mirrors the queue

    def _remove_entry(self, entry: QueuedJob) -> None:
        """Remove a known queue entry, keeping the id set in sync."""
        self._queue.remove(entry)
        self._ids.discard(entry.job.job_id)

    def pop_next(self, now: float = float("inf")) -> Optional[QueuedJob]:
        """Remove and return the job the policy runs next.

        Returns ``None`` when the queue is empty — or, for
        reservation-aware policies, when nothing may start at ``now``
        (see :meth:`next_wakeup`).
        """
        if not self._queue:
            return None
        entry = self.ordered_queue()[0]
        self._remove_entry(entry)
        return entry

    def next_wakeup(self, now: float) -> Optional[float]:
        """Earliest future time at which :meth:`pop_next` could succeed
        even without new arrivals (``None`` for non-reservation policies,
        whose queues never block)."""
        return None

    def ordered_queue(self) -> List[QueuedJob]:
        """The current queue in execution order (non-destructive)."""
        return self.execution_order(self._queue)

    def queued(self) -> List[QueuedJob]:
        """The current queue in arrival order (non-destructive)."""
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, job_id: JobId) -> bool:
        return job_id in self._ids

    # ------------------------------------------------------------------
    # Cost (one fold from repro.scheduling.costs per family)
    # ------------------------------------------------------------------
    def cost_of(
        self, job: "Job", ertp: float, now: float, running_remaining: float
    ) -> float:
        """Cost of accepting ``job`` given the current queue and load.

        Lower values are better offers (§III-C).  Implemented per family:
        :class:`~repro.scheduling.batch.BatchScheduler` (ETTC) and
        :class:`~repro.scheduling.edf.EDFScheduler` (NAL).
        """
        raise NotImplementedError

    def queue_cost_of(
        self, job_id: JobId, now: float, running_remaining: float
    ) -> float:
        """Cost the node quotes for a job *already* in its queue.

        This is the value carried inside INFORM messages (§III-D).  The
        base implementation is the batch family's: the job's ETTC within
        the current queue.  The deadline family (EDF) overrides it with
        the whole-queue NAL.
        """
        return ettc(self.ordered_queue(), job_id, now, running_remaining)

    def hypothetical_order(self, job: "Job", ertp: float) -> List[QueuedJob]:
        """Execution order if ``job`` were enqueued now (for cost probes).

        The probe entry uses ``enqueue_time = +inf`` so arrival-ordered
        policies place it last, matching a real enqueue.
        """
        probe = QueuedJob(job, ertp, float("inf"))
        return self.execution_order(self._queue + [probe])
