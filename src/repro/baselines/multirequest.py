"""Multiple-simultaneous-requests meta-scheduling (Subramani et al. [13]).

"The distributed meta-scheduling model presented in [13] operates on the
principle of submitting a job to the least loaded sites and subsequently
revoking it on all but the one that has commenced its execution.  An
evident drawback of this model is the overloading of a large number of
schedulers with jobs that are frequently cancelled." (§II)

Implementation: each job is enqueued on the ``k`` cheapest matching nodes;
the first copy that starts executing wins and the remaining copies are
revoked synchronously (so no two copies ever run).  ``revoked_copies``
counts the wasted queue slots — the drawback the paper calls out — and the
traffic monitor charges the duplicate ASSIGN and CANCEL messages.

Site selection reuses the centralized cost probe for simplicity; the
interesting behaviour of this baseline is the duplicate-queueing dynamics,
not its discovery mechanism.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ProtocolError
from ..grid.node import GridNode, RunningJob
from ..metrics.collector import GridMetrics
from ..net.traffic import TrafficMonitor
from ..types import JobId
from ..workload.jobs import Job
from .base import BaselineScheduler

__all__ = ["MultiRequestScheduler"]


class MultiRequestScheduler(BaselineScheduler):
    """Enqueue each job on the k best nodes; revoke losers on first start."""

    def __init__(
        self,
        nodes: List[GridNode],
        metrics: GridMetrics,
        k: int = 3,
        monitor: Optional[TrafficMonitor] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        super().__init__(nodes, metrics)
        self.k = k
        self.monitor = monitor if monitor is not None else TrafficMonitor()
        #: job id -> nodes still holding a copy
        self._copies: Dict[JobId, List[GridNode]] = {}
        #: Queue entries cancelled after another copy started.
        self.revoked_copies = 0
        for node in self.nodes:
            node.on_job_started.append(self._on_copy_started)

    def submit(self, job: Job) -> None:
        """Enqueue ``job`` on the k cheapest matching nodes."""
        self.metrics.job_submitted(job, initiator=-1, time=self.sim.now)
        self.monitor.record("Request", 1024)
        candidates = self.matching_nodes(job)
        if not candidates:
            self.metrics.job_unschedulable(job.job_id, self.sim.now)
            return
        ranked = sorted(candidates, key=lambda n: (n.cost_for(job), n.node_id))
        chosen = ranked[: self.k]
        # Copies are delivered as separate (zero-delay) events: enqueueing a
        # copy on an idle node starts it *synchronously*, and the resulting
        # revocation must be able to see — and cancel — the deliveries that
        # have not happened yet.
        self._copies[job.job_id] = []
        for node in chosen:
            self.monitor.record("Assign", 1024)
            self.sim.call_after(0.0, self._deliver_copy, node, job)

    def _deliver_copy(self, node: GridNode, job: Job) -> None:
        holders = self._copies.get(job.job_id)
        if holders is None:
            # Another copy already commenced execution: this delivery is
            # revoked before it ever reaches the queue.
            self.revoked_copies += 1
            self.monitor.record("Cancel", 128)
            return
        holders.append(node)
        node.accept_job(job)

    def _on_copy_started(self, node: GridNode, running: RunningJob) -> None:
        job_id = running.job.job_id
        holders = self._copies.pop(job_id, None)
        if holders is None:
            raise ProtocolError(
                f"job {job_id} started twice under multi-request scheduling"
            )
        # The job's one assignment is the copy that commenced execution,
        # which need not be the nominally cheapest of the k.
        self.metrics.job_assigned(
            job_id, node.node_id, self.sim.now, reschedule=False
        )
        for other in holders:
            if other is node:
                continue
            removed = other.withdraw_job(job_id)
            if removed is None:  # pragma: no cover - prevented by sync revoke
                raise ProtocolError(
                    f"could not revoke duplicate of job {job_id} "
                    f"on node {other.node_id}"
                )
            self.revoked_copies += 1
            self.monitor.record("Cancel", 128)
