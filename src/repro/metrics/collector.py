"""Grid-wide metrics hub.

All protocol and node events funnel into one :class:`GridMetrics` per run;
figure extractors and reports then read aggregated views from it.  The hub
is intentionally passive (no simulator dependency) so it can also serve the
centralized baseline schedulers.

The grid-level tallies live on a shared :class:`~repro.obs.MetricsRegistry`
(one per run, also fed by the transport and reliability layers) and are
surfaced as ``RunSummary.telemetry``; the historical attribute names
(``completed_jobs`` etc.) remain as read-only properties.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from ..types import JobId, NodeId
from ..workload.jobs import Job
from .records import JobRecord

__all__ = ["GridMetrics"]


class GridMetrics:
    """Collects per-job records and grid-level counters for one run."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.records: Dict[JobId, JobRecord] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._completed_jobs = self.registry.counter("jobs.completed")
        self._reschedules = self.registry.counter("jobs.reschedules")
        self._inform_broadcasts = self.registry.counter("informs.advertised")
        self._duplicate_executions = self.registry.counter(
            "jobs.duplicate_executions"
        )
        self._node_restarts = self.registry.counter("nodes.restarted")
        self._orphaned_jobs = self.registry.counter("jobs.orphaned")
        self._adopted_jobs = self.registry.counter("jobs.adopted")
        self._deadline_exceeded = self.registry.counter(
            "jobs.deadline_exceeded"
        )
        self._completion_time = self.registry.histogram("job.completion_time")
        #: Time-resolved completion latency, decimated to bounded memory
        #: (:class:`~repro.obs.BoundedSeries`): at 10^5+ completions an
        #: unbounded per-event series would be the collector's dominant
        #: allocation.
        self.completion_series = self.registry.series(
            "job.completion_time.series"
        )

    @property
    def completed_jobs(self) -> int:
        """Completed-job counter (probe for the Fig. 1 time series)."""
        return self._completed_jobs.value

    @property
    def reschedules(self) -> int:
        """INFORM-triggered reassignments that actually happened."""
        return self._reschedules.value

    @property
    def inform_broadcasts(self) -> int:
        """Jobs advertised for rescheduling (INFORM broadcasts initiated)."""
        return self._inform_broadcasts.value

    @property
    def duplicate_executions(self) -> int:
        """Completions of already finished jobs (fail-safe at-least-once
        races; zero in every nominal scenario)."""
        return self._duplicate_executions.value

    @property
    def node_restarts(self) -> int:
        """Crash-restart rejoins (one per incarnation bump)."""
        return self._node_restarts.value

    @property
    def orphaned_jobs(self) -> int:
        """Held jobs whose initiator went silent past the adoption window."""
        return self._orphaned_jobs.value

    @property
    def adopted_jobs(self) -> int:
        """Orphaned jobs whose assignee took over the initiator role."""
        return self._adopted_jobs.value

    @property
    def deadline_exceeded_jobs(self) -> int:
        """Queued jobs that blew their execution deadline (straggler
        defense engaged)."""
        return self._deadline_exceeded.value

    def informs_advertised(self, count: int) -> None:
        """Count ``count`` jobs advertised in one INFORM round."""
        self._inform_broadcasts.inc(count)

    # ------------------------------------------------------------------
    # Event sinks (called by protocol agents and nodes)
    # ------------------------------------------------------------------
    def job_submitted(self, job: Job, initiator: NodeId, time: float) -> None:
        """Record a job submission (creates the job's lifecycle record)."""
        if job.job_id in self.records:
            raise ReproError(f"job {job.job_id} submitted twice")
        self.records[job.job_id] = JobRecord(
            job=job, initiator=initiator, submit_time=time
        )

    def ensure_job(self, job: Job, initiator: NodeId, time: float) -> None:
        """Create ``job``'s lifecycle record if this collector has none.

        The process-isolated runtime shards metrics per OS process, so a
        job delegated over the wire reaches an assignee whose collector
        never saw the submission — the wire copy carries everything the
        record needs.  No-op when the record already exists, which keeps
        simulated and single-process runs (one collector sees every
        submission) byte-identical.
        """
        if job.job_id not in self.records:
            self.records[job.job_id] = JobRecord(
                job=job, initiator=initiator, submit_time=time
            )

    def _record(self, job_id: JobId) -> JobRecord:
        record = self.records.get(job_id)
        if record is None:
            raise ReproError(f"no record for job {job_id}")
        return record

    def job_assigned(
        self, job_id: JobId, node: NodeId, time: float, reschedule: bool
    ) -> None:
        """Record an ASSIGN: initial delegation or dynamic reschedule."""
        record = self._record(job_id)
        record.assignments.append((time, node))
        if reschedule:
            self._reschedules.inc()

    def job_started(self, job_id: JobId, node: NodeId, time: float) -> None:
        """Record the start of execution on ``node``."""
        record = self._record(job_id)
        record.start_time = time
        record.start_node = node

    def job_finished(self, job_id: JobId, node: NodeId, time: float) -> None:
        """Record a completion (duplicates are counted, not double-booked)."""
        record = self._record(job_id)
        if record.finish_time is not None:
            # A fail-safe resubmission can race recovery and execute a job
            # twice (at-least-once semantics).  Keep the first completion
            # and surface the anomaly instead of corrupting the averages.
            self._duplicate_executions.inc()
            return
        record.finish_time = time
        self._completed_jobs.inc()
        self._completion_time.observe(record.completion_time)
        self.completion_series.record(time, record.completion_time)

    def job_unschedulable(self, job_id: JobId, time: float) -> None:
        """Record that discovery gave up on the job (REQUEST retries spent)."""
        self._record(job_id).unschedulable = True

    def job_resubmitted(self, job_id: JobId, time: float) -> None:
        """Fail-safe resubmission after a suspected assignee crash."""
        self._record(job_id).resubmissions += 1

    def job_lost(self, job_id: JobId, time: float) -> None:
        """Record that a crashing node took the job down with it.

        Any in-progress execution is void (the machine is gone), so the
        start bookkeeping is cleared; a fail-safe resubmission may set it
        again later.
        """
        record = self._record(job_id)
        record.lost_count += 1
        if not record.completed:
            record.start_time = None
            record.start_node = None

    def node_restarted(self, node: NodeId, time: float) -> None:
        """A crashed node rejoined the grid under a fresh incarnation."""
        self._node_restarts.inc()

    def job_orphaned(self, job_id: JobId, time: float) -> None:
        """An assignee detected that the job's initiator went silent."""
        self._orphaned_jobs.inc()

    def job_adopted(self, job_id: JobId, time: float) -> None:
        """An assignee took over the initiator role of an orphaned job."""
        self._adopted_jobs.inc()

    def job_deadline_exceeded(self, job_id: JobId, time: float) -> None:
        """A queued job blew its execution deadline (first time only)."""
        self._deadline_exceeded.inc()

    # ------------------------------------------------------------------
    # Aggregated views (the paper's reported quantities)
    # ------------------------------------------------------------------
    def completed_records(self) -> List[JobRecord]:
        """Records of all completed jobs."""
        return [r for r in self.records.values() if r.completed]

    def unschedulable_count(self) -> int:
        """Number of jobs discovery gave up on."""
        return sum(1 for r in self.records.values() if r.unschedulable)

    def _mean(self, values: List[float]) -> Optional[float]:
        return statistics.fmean(values) if values else None

    def average_completion_time(self) -> Optional[float]:
        """Mean submission-to-completion time over completed jobs (Fig. 2)."""
        return self._mean(
            [r.completion_time for r in self.records.values() if r.completed]
        )

    def average_waiting_time(self) -> Optional[float]:
        """Mean submission-to-start time over completed jobs (Fig. 2)."""
        return self._mean(
            [
                r.waiting_time
                for r in self.records.values()
                if r.waiting_time is not None and r.completed
            ]
        )

    def average_execution_time(self) -> Optional[float]:
        """Mean actual running time over completed jobs (Fig. 2)."""
        return self._mean(
            [
                r.execution_time
                for r in self.records.values()
                if r.execution_time is not None
            ]
        )

    def average_reschedules(self) -> Optional[float]:
        """Mean dynamic-reschedule count per completed job."""
        completed = self.completed_records()
        if not completed:
            return None
        return self._mean([float(r.reschedule_count) for r in completed])

    # -- deadline metrics (Fig. 4) -------------------------------------
    def missed_deadline_count(self) -> int:
        """Number of completed jobs that finished past their deadline (Fig. 4)."""
        return sum(
            1 for r in self.records.values() if r.missed_deadline is True
        )

    def average_lateness(self) -> Optional[float]:
        """Mean slack over jobs that met their deadline (paper's lateness)."""
        return self._mean(
            [
                r.lateness
                for r in self.records.values()
                if r.missed_deadline is False
            ]
        )

    def average_missed_time(self) -> Optional[float]:
        """Mean time past the deadline over late jobs (paper's missed time)."""
        return self._mean(
            [
                r.missed_time
                for r in self.records.values()
                if r.missed_time is not None
            ]
        )

    # -- load balancing (the paper's Fig. 3 claim, quantified) ---------
    def busy_time_by_node(self) -> Dict[NodeId, float]:
        """Total execution time each node performed (completed jobs)."""
        busy: Dict[NodeId, float] = {}
        for record in self.records.values():
            if record.completed and record.start_node is not None:
                busy[record.start_node] = (
                    busy.get(record.start_node, 0.0) + record.execution_time
                )
        return busy

    def load_fairness(self, node_count: int) -> Optional[float]:
        """Jain's fairness index over per-node busy time.

        1.0 = perfectly even work distribution across all ``node_count``
        nodes; 1/node_count = all work on one node.  Nodes that executed
        nothing count as zero, so the index captures the paper's
        idle-node story as a single number.
        """
        if node_count <= 0:
            return None
        busy = list(self.busy_time_by_node().values())
        total = sum(busy)
        if total == 0:
            return None
        squares = sum(value * value for value in busy)
        return (total * total) / (node_count * squares)
