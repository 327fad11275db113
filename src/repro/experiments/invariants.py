"""Post-run protocol invariants for fault/chaos experiments.

:func:`~repro.experiments.validation.validate_run` checks the *metric*
record of a run for internal consistency.  This module checks the final
*grid state* against the protocol's safety and liveness obligations — the
properties an unreliable network is most likely to break:

* **Job conservation** — every submitted job has a record, and every
  record ends in exactly one state: completed, unschedulable, or
  legitimately still in flight (held/queued/being rediscovered somewhere).
  A job in none of those is *stranded* — the classic symptom of a dropped
  ASSIGN.
* **No double execution** — no job sits in two live nodes' queues at
  once (the precursor, caused by duplicated or raced delegations).  A job
  that *finished* twice — on two nodes, or on two incarnations of one
  node after a crash-restart — is ``validate_run``'s
  ``duplicate_executions`` count, which every run summary carries, so it
  is not repeated here; a traced run also names both executions in the
  online checker's "finished twice" violation.
* **No phantom loss** — in a crash-free run, no job may be recorded as
  lost with a crashing node.
* **Tracking quiescence** — long after a tracked job completed, no live
  initiator still tracks it (a permanently lost Done/Track would leak
  tracking state and eventually resubmit a finished job).

The checker runs on the live :class:`~repro.experiments.runner.GridSetup`
*after* ``setup.run()`` and returns human-readable violation strings
(empty = all invariants hold).  The fault experiment runner folds them
into ``RunSummary.violations`` next to the ``validate_run`` verdict.

``settle`` is the grace window before the horizon within which activity
is considered "still in flight" rather than stranded/leaked: recovery
machinery (reliable retransmissions, fail-safe probe rounds) needs
bounded time, and a run is cut off at the horizon mid-everything.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..types import JobId, NodeId

__all__ = ["check_invariants"]


def check_invariants(
    setup,
    *,
    expected_jobs: Optional[int] = None,
    allow_lost: bool = False,
    settle: float = 1800.0,
) -> List[str]:
    """Check the post-run grid state of ``setup``; returns violations.

    ``expected_jobs`` asserts the submission count (job conservation from
    the outside); ``allow_lost`` permits crash-lost records (crash/churn
    runs); ``settle`` is the in-flight grace window in seconds before the
    horizon.
    """
    metrics = setup.metrics
    horizon = setup.scale.duration
    violations: List[str] = []
    records = metrics.records

    if expected_jobs is not None and len(records) != expected_jobs:
        violations.append(
            f"job conservation: {len(records)} job records for "
            f"{expected_jobs} expected submissions"
        )

    # ------------------------------------------------------------------
    # Where does every unresolved job live right now?
    # ------------------------------------------------------------------
    holders: Dict[JobId, List[NodeId]] = {}
    pending: set = set()
    tracked: List[tuple] = []
    for agent in setup.agents:
        if agent.failed or agent.departed:
            continue
        node = agent.node
        if node.running is not None:
            holders.setdefault(node.running.job.job_id, []).append(
                agent.node_id
            )
        for entry in node.scheduler.queued():
            holders.setdefault(entry.job.job_id, []).append(agent.node_id)
        pending.update(agent._pending)
        tracked.extend(
            (agent.node_id, job_id) for job_id in agent._tracked
        )

    for job_id, nodes in sorted(holders.items()):
        if len(nodes) > 1:
            violations.append(
                f"job {job_id} held by {len(nodes)} live nodes at once "
                f"({sorted(nodes)}): duplicated delegation"
            )

    # ------------------------------------------------------------------
    # Per-record terminal-state checks
    # ------------------------------------------------------------------
    for job_id, record in sorted(records.items()):
        if record.lost_count and not allow_lost:
            violations.append(
                f"job {job_id} recorded as crash-lost "
                f"({record.lost_count}x) in a crash-free run"
            )
        if record.completed or record.unschedulable:
            continue
        if record.lost_count and allow_lost:
            # Crash-lost and never recovered: with the initiator (or an
            # untracked assignee) dead there is legitimately nobody left
            # to resubmit — an accounted loss, not a stranding.
            continue
        if job_id in holders or job_id in pending:
            continue  # legitimately in flight at the horizon
        last_activity = record.submit_time
        if record.assignments:
            last_activity = max(last_activity, record.assignments[-1][0])
        if record.start_time is not None:
            last_activity = max(last_activity, record.start_time)
        if horizon - last_activity < settle:
            continue  # still settling when the run was cut off
        violations.append(
            f"job {job_id} stranded: not completed, not unschedulable, "
            f"held by no live node and in no pending discovery "
            f"(last activity at t={last_activity:.0f})"
        )

    # ------------------------------------------------------------------
    # Tracking quiescence
    # ------------------------------------------------------------------
    for node_id, job_id in sorted(tracked):
        record = records.get(job_id)
        if record is None or record.finish_time is None:
            continue  # unfinished jobs may be tracked; stranded check above
        if horizon - record.finish_time < settle:
            continue
        violations.append(
            f"job {job_id} still tracked by node {node_id} "
            f"{horizon - record.finish_time:.0f}s after completing"
        )

    return violations
