"""Local-scheduler interface.

ARiA "does not enforce any particular local scheduling policy" (§III-A);
every node runs one :class:`LocalScheduler` that owns the node's waiting
queue.  A scheduler is *batch* (cost = ETTC) or *deadline* (cost = NAL);
the two families are never mixed in one cost comparison (§III-C).

Schedulers are deliberately simulator-agnostic: they know nothing about the
kernel or the network, only about jobs, their node-scaled estimates (ERTp)
and the current time — which keeps them unit-testable in isolation and
reusable by the centralized baselines.

Cost evaluation is the protocol's hot path (every REQUEST and INFORM a node
answers probes the queue), so the base class maintains *exact* incremental
caches keyed by a queue version counter: the policy execution order, the
sorted first-key components used to bisect a probe into position, and the
left-folded completion-time prefix (seeded with ``running_remaining``).
Every fast path replays the reference float operations in the reference
order, so cached and uncached evaluation are bit-identical — see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Any, ClassVar, Dict, List, Optional, Tuple

from ..errors import SchedulingError
from ..types import JobId

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
    #: How cost probes locate the hypothetical entry's position:
    #: ``"arrival"`` appends it last (arrival-ordered policies), ``"keyed"``
    #: bisects the cached sort keys (policies sorted by
    #: ``(sort_value, enqueue_time)``), ``"generic"`` re-sorts via
    #: :meth:`hypothetical_order` (order depends on more than a per-entry
    #: key).
    probe_mode: ClassVar[str] = "arrival"

    def __init__(self) -> None:
        self._queue: List[QueuedJob] = []
        self._ids: set = set()
        #: Bumped on every queue mutation; all caches below key off it.
        self._version = 0
        self._order_version = -1
        self._order: List[QueuedJob] = []
        self._keys_version = -1
        self._keys: List[Any] = []
        self._pos_version = -1
        self._pos: Dict[JobId, int] = {}
        self._fold_key: Optional[Tuple[int, float]] = None
        self._fold: List[float] = []

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def execution_order(self, entries: List[QueuedJob]) -> List[QueuedJob]:
        """Return ``entries`` in the order this policy would run them.

        Subclasses override this single hook; enqueueing, removal, cost and
        candidate selection all derive from it.  The default is arrival
        order (FCFS).
        """
        return list(entries)

    def entry_sort_value(self, entry: QueuedJob) -> Any:
        """First sort-key component of a queued entry (``keyed`` mode only).

        Must match the first component of the :meth:`execution_order` sort
        key exactly; the second component must be ``enqueue_time``.
        """
        raise NotImplementedError

    def probe_sort_value(self, job: "Job", ertp: float) -> Any:
        """First sort-key component a cost probe for ``job`` would get."""
        raise NotImplementedError

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
        self._version += 1
        return entry

    def remove(self, job_id: JobId) -> QueuedJob:
        """Remove a waiting job (it is being rescheduled elsewhere)."""
        if job_id in self._ids:
            for index, entry in enumerate(self._queue):
                if entry.job.job_id == job_id:
                    del self._queue[index]
                    self._ids.discard(job_id)
                    self._version += 1
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
        """Remove a known queue entry, keeping id set and caches in sync."""
        self._queue.remove(entry)
        self._ids.discard(entry.job.job_id)
        self._version += 1

    def pop_next(self, now: float = float("inf")) -> Optional[QueuedJob]:
        """Remove and return the job the policy runs next.

        Returns ``None`` when the queue is empty — or, for
        reservation-aware policies, when nothing may start at ``now``
        (see :meth:`next_wakeup`).
        """
        if not self._queue:
            return None
        entry = self._ordered()[0]
        self._remove_entry(entry)
        return entry

    def next_wakeup(self, now: float) -> Optional[float]:
        """Earliest future time at which :meth:`pop_next` could succeed
        even without new arrivals (``None`` for non-reservation policies,
        whose queues never block)."""
        return None

    def ordered_queue(self) -> List[QueuedJob]:
        """The current queue in execution order (non-destructive)."""
        return list(self._ordered())

    def queued(self) -> List[QueuedJob]:
        """The current queue in arrival order (non-destructive)."""
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __contains__(self, job_id: JobId) -> bool:
        return job_id in self._ids

    # ------------------------------------------------------------------
    # Version-keyed caches (exact — see module docstring)
    # ------------------------------------------------------------------
    def _ordered(self) -> List[QueuedJob]:
        """The execution order of the current queue, cached per version.

        Callers must not mutate the returned list; any queue mutation
        invalidates it on the next call.
        """
        if self._order_version != self._version:
            self._order = self.execution_order(self._queue)
            self._order_version = self._version
        return self._order

    def _sorted_keys(self) -> List[Any]:
        """First sort-key component of each ordered entry (``keyed`` mode)."""
        if self._keys_version != self._version:
            value_of = self.entry_sort_value
            self._keys = [value_of(e) for e in self._ordered()]
            self._keys_version = self._version
        return self._keys

    def _positions(self) -> Dict[JobId, int]:
        """Map job id -> index in the execution order, cached per version."""
        if self._pos_version != self._version:
            self._pos = {
                entry.job.job_id: index
                for index, entry in enumerate(self._ordered())
            }
            self._pos_version = self._version
        return self._pos

    def _prefix_fold(self, running_remaining: float) -> List[float]:
        """Left-folded busy time: ``fold[k] = rr + ertp_0 + ... + ertp_{k-1}``.

        The fold accumulates in execution order with the exact operation
        sequence of :func:`~repro.scheduling.costs.completion_times`
        (``elapsed = elapsed + ertp``), so ``now + fold[k]`` reproduces the
        reference ETC of entry ``k-1`` bit for bit.  Cached per
        ``(version, running_remaining)``.
        """
        if running_remaining < 0:
            raise SchedulingError(
                f"negative running_remaining {running_remaining!r}"
            )
        key = (self._version, running_remaining)
        if self._fold_key != key:
            elapsed = running_remaining
            fold = [elapsed]
            append = fold.append
            for entry in self._ordered():
                elapsed = elapsed + entry.ertp
                append(elapsed)
            self._fold = fold
            self._fold_key = key
        return self._fold

    def _probe_index(self, job: "Job", ertp: float) -> Optional[int]:
        """Index a cost probe for ``job`` would occupy in execution order.

        Exactly equivalent to where :meth:`hypothetical_order` places the
        probe: the probe's ``enqueue_time`` is ``+inf``, so a stable sort
        by ``(sort_value, enqueue_time)`` puts it after every entry whose
        first component is <= the probe's — i.e. at ``bisect_right`` of the
        cached keys.  Returns ``None`` when the policy needs the generic
        re-sort (``probe_mode == "generic"``).
        """
        mode = self.probe_mode
        if mode == "arrival":
            return len(self._queue)
        if mode == "keyed":
            return bisect_right(
                self._sorted_keys(), self.probe_sort_value(job, ertp)
            )
        return None

    # ------------------------------------------------------------------
    # Cost (dispatches to repro.scheduling.costs; see subclasses)
    # ------------------------------------------------------------------
    def cost_of(
        self, job: "Job", ertp: float, now: float, running_remaining: float
    ) -> float:
        """Cost of accepting ``job`` given the current queue and load.

        Lower values are better offers (§III-C).  Implemented by the two
        family mixins in :mod:`repro.scheduling.costs`.
        """
        raise NotImplementedError

    def queue_cost_of(
        self, job_id: JobId, now: float, running_remaining: float
    ) -> float:
        """Cost the node quotes for a job *already* in its queue.

        This is the value carried inside INFORM messages (§III-D).  The
        base implementation is the batch family's: the job's ETTC within
        the current queue, read off the cached completion-time fold —
        bit-identical to ``ettc(ordered_queue(), job_id, ...)``.  The
        deadline family (EDF) overrides it with the whole-queue NAL.
        """
        index = self._positions().get(job_id)
        if index is None:
            raise SchedulingError(f"job {job_id} not in hypothetical order")
        fold = self._prefix_fold(running_remaining)
        return (now + fold[index + 1]) - now

    def hypothetical_order(self, job: "Job", ertp: float) -> List[QueuedJob]:
        """Execution order if ``job`` were enqueued now (for cost probes).

        The probe entry uses ``enqueue_time = +inf`` so arrival-ordered
        policies place it last, matching a real enqueue.
        """
        probe = QueuedJob(job, ertp, float("inf"))
        return self.execution_order(self._queue + [probe])
