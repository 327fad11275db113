"""Per-job lifecycle records.

One :class:`JobRecord` accumulates everything the paper's figures need about
a single job: submission, the full assignment history (rescheduling hops),
execution start/finish, and the deadline outcome.  Records are written by
the protocol/node layers through :class:`~repro.metrics.collector.GridMetrics`
and read by the figure extractors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..types import NodeId
from ..workload.jobs import Job

__all__ = ["JobRecord"]


@dataclass
class JobRecord:
    """Lifecycle of one job across the grid."""

    job: Job
    initiator: NodeId
    submit_time: float
    #: ``(time, node)`` per ASSIGN received; index 0 is the initial
    #: delegation, every further entry is a dynamic reschedule.
    assignments: List[Tuple[float, NodeId]] = field(default_factory=list)
    start_time: Optional[float] = None
    start_node: Optional[NodeId] = None
    finish_time: Optional[float] = None
    #: The node whose completion counted (the first one).
    finish_node: Optional[NodeId] = None
    #: Set when the initiator exhausted its REQUEST retries.
    unschedulable: bool = False
    #: Fail-safe resubmissions after a suspected assignee crash.
    resubmissions: int = 0
    #: Times the job was lost with a crashing node (queued or running).
    lost_count: int = 0

    # ------------------------------------------------------------------
    # Derived quantities (the paper's metrics)
    # ------------------------------------------------------------------
    @property
    def completed(self) -> bool:
        return self.finish_time is not None

    @property
    def reschedule_count(self) -> int:
        """Number of dynamic rescheduling hops the job took."""
        return max(0, len(self.assignments) - 1)

    @property
    def waiting_time(self) -> Optional[float]:
        """Submission → execution start (Fig. 2's waiting share)."""
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def execution_time(self) -> Optional[float]:
        """Execution start → completion, i.e. the ART (Fig. 2's exec share)."""
        if self.finish_time is None or self.start_time is None:
            return None
        return self.finish_time - self.start_time

    @property
    def completion_time(self) -> Optional[float]:
        """Submission → completion (the paper's job completion time)."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    @property
    def missed_deadline(self) -> Optional[bool]:
        """Whether the job finished past its deadline (None: not applicable)."""
        if self.job.deadline is None or self.finish_time is None:
            return None
        return self.finish_time > self.job.deadline

    @property
    def lateness(self) -> Optional[float]:
        """Paper Fig. 4 'lateness': time left from completion to deadline.

        Positive when the deadline was met; only defined for completed
        deadline jobs.
        """
        if self.job.deadline is None or self.finish_time is None:
            return None
        return self.job.deadline - self.finish_time

    @property
    def missed_time(self) -> Optional[float]:
        """Paper Fig. 4 'missed time': time past the deadline (late jobs)."""
        if self.missed_deadline is not True:
            return None
        return self.finish_time - self.job.deadline
