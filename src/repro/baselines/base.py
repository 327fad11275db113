"""Shared plumbing for the comparison meta-schedulers.

The paper's own baseline is ARiA-without-rescheduling (every non-``i``
scenario).  This package adds three external comparators spanning the
design space the related-work section discusses (§II):

* :class:`~repro.baselines.centralized.CentralizedMetaScheduler` — an
  idealized centralized scheduler with a global, instantaneous view of all
  resources (the upper bound of [14]);
* :class:`~repro.baselines.multirequest.MultiRequestScheduler` — the
  multiple-simultaneous-requests model of Subramani et al. [13];
* :class:`~repro.baselines.randomassign.RandomAssignScheduler` — uniform
  random placement over matching nodes (the lower bound).

All expose ``submit(job)`` so the standard
:class:`~repro.workload.SubmissionProcess` can drive them exactly like an
ARiA agent pool.
"""

from __future__ import annotations

from typing import List

from ..grid.node import GridNode, RunningJob
from ..metrics.collector import GridMetrics
from ..workload.jobs import Job

__all__ = ["BaselineScheduler", "wire_node_metrics"]


def wire_node_metrics(node: GridNode, metrics: GridMetrics) -> None:
    """Connect a node's executor events to the metrics hub."""

    def started(n: GridNode, running: RunningJob) -> None:
        metrics.job_started(running.job.job_id, n.node_id, n.sim.now)

    def finished(n: GridNode, finished_job: RunningJob) -> None:
        metrics.job_finished(finished_job.job.job_id, n.node_id, n.sim.now)

    node.on_job_started.append(started)
    node.on_job_finished.append(finished)


class BaselineScheduler:
    """Base class: holds the node pool and the metrics hub."""

    def __init__(self, nodes: List[GridNode], metrics: GridMetrics) -> None:
        if not nodes:
            raise ValueError("baseline needs at least one node")
        self.nodes = list(nodes)
        self.metrics = metrics
        self.sim = nodes[0].sim
        for node in self.nodes:
            wire_node_metrics(node, metrics)

    def matching_nodes(self, job: Job) -> List[GridNode]:
        """Nodes whose hosting rule admits ``job``."""
        return [node for node in self.nodes if node.can_host(job)]

    def submit(self, job: Job) -> None:
        """Schedule one submitted job (implemented by each baseline)."""
        raise NotImplementedError
