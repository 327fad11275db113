"""The grid node: profile + local scheduler + single-slot executor.

Per the paper's assumptions (§III-A): "every node may hold several jobs
within its scheduling queue, only one job at a time can be executed", jobs
are independent, and "preemption and migration of running jobs are not
considered".  :class:`GridNode` enforces exactly that contract:

* waiting jobs live in the node's :class:`~repro.scheduling.LocalScheduler`;
* one job at most is *running*; once started it always runs to completion;
* a waiting job can be withdrawn (dynamic rescheduling), a running one not.

Cost quotes use the node's **estimated** view of its load: the running
job's remaining ERTp plus the queue's ERTp values.  The Actual Running Time
(sampled from the :class:`~repro.grid.performance.AccuracyModel` when the
job starts) stays hidden until the completion event fires, exactly as in
the paper ("the ART ... is unknown until execution completes", §IV-D).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional

from ..clock import Clock
from ..errors import SchedulingError
from ..scheduling.base import DEADLINE, LocalScheduler, QueuedJob
from ..types import JobId, NodeId
from .performance import AccuracyModel, scaled_ert
from .profiles import NodeProfile

if TYPE_CHECKING:  # avoid the workload -> grid -> workload import cycle
    from ..workload.jobs import Job

__all__ = ["RunningJob", "GridNode"]


class RunningJob:
    """The job currently executing on a node."""

    __slots__ = ("job", "start_time", "ertp", "art", "enqueue_time")

    def __init__(
        self,
        job: "Job",
        start_time: float,
        ertp: float,
        art: float,
        enqueue_time: float,
    ) -> None:
        self.job = job
        self.start_time = start_time
        self.ertp = ertp
        self.art = art
        self.enqueue_time = enqueue_time

    def estimated_remaining(self, now: float) -> float:
        """Remaining time according to the ERTp estimate (floor 0)."""
        return max(0.0, self.start_time + self.ertp - now)


#: ``callback(node, running)`` fired when a job starts / finishes.
NodeJobCallback = Callable[["GridNode", RunningJob], None]


class GridNode:
    """One grid site: resources, a local scheduler, and an executor."""

    __slots__ = (
        "node_id",
        "sim",
        "profile",
        "performance_index",
        "scheduler",
        "accuracy",
        "_art_rng",
        "running",
        "_completion_event",
        "crashed",
        "slowdown_factor",
        "on_job_started",
        "on_job_finished",
        "completed_jobs",
        "_state",
        "_state_slot",
    )

    def __init__(
        self,
        node_id: NodeId,
        sim: Clock,
        profile: NodeProfile,
        performance_index: float,
        scheduler: LocalScheduler,
        accuracy: AccuracyModel,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.profile = profile
        self.performance_index = performance_index
        self.scheduler = scheduler
        self.accuracy = accuracy
        self._art_rng = sim.streams.get("grid.art")
        self.running: Optional[RunningJob] = None
        self._completion_event = None
        #: A crashed node executes nothing and loses its queue (§III-D
        #: fail-safe discussion).
        self.crashed = False
        #: Fail-slow degradation: jobs that *start* while the factor is
        #: above 1 take that many times their sampled ART.  The node's
        #: cost quotes still use the healthy ERTp — a fail-slow node does
        #: not know (or admit) it is slow, which is what makes the
        #: failure mode hard.
        self.slowdown_factor = 1.0
        #: Fired right after a job begins execution.
        self.on_job_started: List[NodeJobCallback] = []
        #: Fired right after a job completes.
        self.on_job_finished: List[NodeJobCallback] = []
        #: Completed-job counter (cheap probe for utilization series).
        self.completed_jobs = 0
        #: Optional :class:`~repro.grid.state.GridState` slab this node
        #: mirrors its idle bit into (``None`` costs one check per queue
        #: transition).
        self._state = None
        self._state_slot = 0

    def bind_state(self, state) -> None:
        """Mirror this node's idle bit into ``state`` from now on."""
        self._state = state
        self._state_slot = int(self.node_id)
        state.set_idle(self._state_slot, self.is_idle)

    def _sync_state(self) -> None:
        state = self._state
        if state is not None:
            state.set_idle(
                self._state_slot,
                self.running is None and len(self.scheduler) == 0,
            )

    # ------------------------------------------------------------------
    # Matching and cost quoting
    # ------------------------------------------------------------------
    def can_host(self, job: "Job") -> bool:
        """The hosting rule: whether this node may ever hold ``job``.

        The profile must satisfy the job's requirements; deadline jobs go
        only to deadline schedulers and batch jobs only to batch ones
        (§III-C — "deadline scheduling offers are not mixed with batch
        ones"; EDF cannot order a job that has no deadline); and an
        advance reservation goes only to a policy that honours it.  The
        profile test runs first because it refuses most pairs.
        """
        if not self.profile.satisfies(job.requirements):
            return False
        scheduler = self.scheduler
        if job.has_deadline != (scheduler.kind == DEADLINE):
            return False
        return job.not_before is None or scheduler.supports_reservations

    def ertp(self, job: "Job") -> float:
        """The job's estimated running time scaled to this node (ERTp)."""
        return scaled_ert(job.ert, self.performance_index)

    def running_remaining(self) -> float:
        """Estimated remaining time of the running job (0 when idle)."""
        if self.running is None:
            return 0.0
        return self.running.estimated_remaining(self.sim.now)

    def cost_for(self, job: "Job") -> float:
        """Quote the cost of accepting ``job`` now (lower = better offer)."""
        return self.scheduler.cost_of(
            job, self.ertp(job), self.sim.now, self.running_remaining()
        )

    # ------------------------------------------------------------------
    # Queue mutation (driven by the protocol layer)
    # ------------------------------------------------------------------
    def accept_job(self, job: "Job") -> None:
        """Enqueue an assigned job; nodes may not decline (§III-A)."""
        if self.crashed:
            raise SchedulingError(
                f"node {self.node_id} is crashed and cannot accept jobs"
            )
        if not self.can_host(job):
            raise SchedulingError(
                f"node {self.node_id} ({self.scheduler.name}) assigned job "
                f"{job.job_id} it cannot host"
            )
        self.scheduler.enqueue(job, self.ertp(job), self.sim.now)
        self._maybe_start()
        self._sync_state()

    def withdraw_job(self, job_id: JobId) -> Optional[QueuedJob]:
        """Remove a *waiting* job for rescheduling elsewhere.

        Returns ``None`` when the job is not withdrawable anymore — it
        already started (running jobs never migrate) or already left this
        node.  The protocol layer treats ``None`` as "rescheduling lost the
        race", which the paper's design explicitly tolerates.
        """
        if self.running is not None and self.running.job.job_id == job_id:
            return None
        if job_id not in self.scheduler:
            return None
        removed = self.scheduler.remove(job_id)
        self._sync_state()
        return removed

    def holds_job(self, job_id: JobId) -> bool:
        """Whether the job is waiting or running on this node."""
        if self.running is not None and self.running.job.job_id == job_id:
            return True
        return job_id in self.scheduler

    # ------------------------------------------------------------------
    # Executor
    # ------------------------------------------------------------------
    def _maybe_start(self) -> None:
        if self.running is not None or self.crashed:
            return
        entry = self.scheduler.pop_next(self.sim.now)
        if entry is None:
            # Reservation-aware queues may block while holding jobs; wake
            # the executor when the earliest reservation arrives.
            wakeup = self.scheduler.next_wakeup(self.sim.now)
            if wakeup is not None and wakeup > self.sim.now:
                self.sim.call_at(wakeup, self._maybe_start)
            return
        art = self.accuracy.actual_running_time(
            entry.job.ert, entry.ertp, self._art_rng
        )
        if self.slowdown_factor != 1.0:
            art *= self.slowdown_factor
        self.running = RunningJob(
            job=entry.job,
            start_time=self.sim.now,
            ertp=entry.ertp,
            art=art,
            enqueue_time=entry.enqueue_time,
        )
        for callback in self.on_job_started:
            callback(self, self.running)
        self._completion_event = self.sim.call_after(art, self._complete_running)

    def _complete_running(self) -> None:
        finished = self.running
        if finished is None:  # pragma: no cover - defensive
            raise SchedulingError(f"node {self.node_id}: completion while idle")
        self.running = None
        self._completion_event = None
        self.completed_jobs += 1
        for callback in self.on_job_finished:
            callback(self, finished)
        self._maybe_start()
        self._sync_state()

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> List["Job"]:
        """Crash the node: execution stops and all held jobs are lost.

        Returns the jobs that were lost (running + waiting), so callers can
        assert on what a fail-safe mechanism must recover.
        """
        if self.crashed:
            raise SchedulingError(f"node {self.node_id} already crashed")
        self.crashed = True
        lost: List["Job"] = []
        if self.running is not None:
            if self._completion_event is not None:
                self.sim.cancel(self._completion_event)
            lost.append(self.running.job)
            self.running = None
        while True:
            entry = self.scheduler.pop_next()
            if entry is None:
                break
            lost.append(entry.job)
        self._sync_state()
        return lost

    def revive(self) -> None:
        """Bring a crashed node back as an empty executor (crash-restart).

        Everything held at crash time stayed lost; the node simply starts
        accepting and executing jobs again.  The protocol layer is
        responsible for the overlay rejoin and incarnation bump.
        """
        if not self.crashed:
            raise SchedulingError(f"node {self.node_id} is not crashed")
        self.crashed = False

    def apply_slowdown(self, factor: float) -> None:
        """Degrade (or restore, with 1.0) this node's execution rate.

        Affects jobs that start from now on; the running job keeps its
        completion event (no preemption, §III-A, and a slowdown mid-job
        would require re-timing an event the scheduler cannot observe).
        """
        if factor < 1.0:
            raise SchedulingError(
                f"slowdown factor {factor} must be >= 1 (got a speedup?)"
            )
        self.slowdown_factor = factor

    def close(self) -> None:
        """End the run: drop the job callbacks, which are bound methods
        of the agent (or scheduler) that holds this node.  Calling it
        twice is a no-op."""
        self.on_job_started.clear()
        self.on_job_finished.clear()

    # ------------------------------------------------------------------
    # State probes (metrics)
    # ------------------------------------------------------------------
    @property
    def is_idle(self) -> bool:
        """True when nothing runs and the scheduling queue is empty."""
        return self.running is None and len(self.scheduler) == 0

    @property
    def queue_length(self) -> int:
        return len(self.scheduler)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "idle" if self.is_idle else f"q={self.queue_length}"
        return f"<GridNode {self.node_id} {self.scheduler.name} {state}>"
