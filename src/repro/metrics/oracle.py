"""The run's invariant oracle: every protocol rule, written once.

An :class:`Oracle` keeps one violation list (empty = clean), worded by
:data:`RULES`.  It has two feeds, and no transition is judged by both:

* **In-process** (simulator, baselines, ``serve``): the owning
  :class:`~repro.metrics.collector.GridMetrics` calls ``assigned`` /
  ``started`` / ``finished`` / ``unschedulable`` / ``lost`` before
  booking each transition, which is judged from the job's record as it
  happens.  Its only state is one running-job slot per node.
* **Trace** (``append``): trace events mapped onto the rules no hook
  sees — stale-incarnation delivery, orphan convergence and probes long
  after a finish.  The merged ``--procs`` trace (metrics are per
  process) also has its double finishes judged here; a live run that
  records a trace tees it into its grid's oracle, whose ``finished`` hook
  already judges those.  Memory is bounded by :data:`MAX_TRACKED_JOBS`.

``close`` given the grid judges what needs the end of the run against
the clock's ``now`` (a live run may stop before its horizon).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..types import JobId, NodeId

__all__ = ["Oracle", "RULES", "validate_run"]

_EPSILON = 1e-6
#: Protocol seconds a finished job may stay tracked before that is a fault.
SETTLE = 1800.0
#: Protocol seconds an orphaned job may wait for adoption.
ORPHAN_GRACE = 2400.0
#: Finished jobs the trace feed remembers (the oldest is forgotten).
MAX_TRACKED_JOBS = 4096

#: The wording of every rule, keyed by rule name.
RULES = {
    "assigned early": "job {job}: assigned before submission",
    "assignments unsorted": "job {job}: assignment history not sorted",
    "moved while running": "job {job}: reassigned after execution started",
    "started early": "job {job}: started before submission",
    "reservation": "job {job}: started {t:.0f} before reservation "
    "{not_before:.0f}",
    "overlap": "node {node}: overlapping executions (job {running} still "
    "running when job {job} started at t={t:.0f})",
    "finished unstarted": "job {job}: finished without starting",
    "finished early": "job {job}: finished before starting",
    "placement": "job {job}: ran on {node}, last assignee was {assignee}",
    "finished twice": "job {job} finished twice: node {first} at "
    "t={first_t:.0f}, then node {node} at t={t:.0f} — double execution",
    "completed unschedulable": "job {job} both completed and unschedulable",
    "conservation": "job conservation: {records} job records for "
    "{expected} expected submissions",
    "held twice": "job {job} held by {count} live nodes at once ({nodes}): "
    "duplicated delegation",
    "phantom loss": "job {job} recorded as crash-lost ({count}x) in a "
    "crash-free run",
    "stranded": "job {job} stranded: not completed, not unschedulable, held "
    "by no live node and in no pending discovery (last activity at t={t:.0f})",
    "still tracked": "job {job} still tracked by node {node} {age:.0f}s "
    "after completing",
    "stale delivery": "message {type} delivered to node {node} at t={t:.0f} "
    "while it is crashed — stale-incarnation delivery",
    "orphan": "job {job} orphaned at t={t:.0f} and still not adopted or "
    "resolved {age:.0f}s later — orphan adoption failed to converge",
}


def validate_run(result) -> List[str]:
    """A run's verdict (empty = clean): its oracle's violations, or those
    a :class:`~repro.experiments.RunSummary` captured."""
    metrics = getattr(result, "metrics", None)
    if metrics is None:
        return list(result.violations)
    return list(metrics.oracle.violations)


class Oracle:
    """One run's invariant verdict (see the module docstring).  Each new
    violation also goes to ``on_violation``."""

    def __init__(
        self, on_violation: Optional[Callable[[str], None]] = None
    ) -> None:
        self.on_violation = on_violation
        #: Violation strings, in discovery order.
        self.violations: List[str] = []
        self._flagged: Set[Tuple[str, object]] = set()
        #: In-process: the record each node runs; set once the ``finished``
        #: hook judges completions (the trace feed then leaves them to it).
        self._running: Dict[NodeId, Any] = {}
        self._hooked = False
        #: Trace: events inspected, the event-time watermark, finished
        #: jobs (oldest first: job -> (node, time)), unresolved orphans
        #: (job -> orphaning time) and crashed nodes.
        self.checked, self._now = 0, 0.0
        self._finished: Dict[JobId, Tuple[NodeId, float]] = {}
        self._orphans: Dict[JobId, float] = {}
        self._down: Set[NodeId] = set()

    def _violate(self, rule: str, key: object, **fields) -> None:
        """Report ``rule`` broken for ``key`` (a job id unless the rule
        is about something else) once; ``fields`` fill its wording."""
        if (rule, key) in self._flagged:
            return
        self._flagged.add((rule, key))
        text = RULES[rule].format(**{"job": key, **fields})
        self.violations.append(text)
        if self.on_violation is not None:
            self.on_violation(text)

    # -- in-process feed: called before GridMetrics books the transition
    def assigned(self, record, node: NodeId, t: float) -> None:
        """Judge an ASSIGN of ``record``'s job to ``node`` at ``t``."""
        job = record.job.job_id
        if not record.assignments:
            if t + _EPSILON < record.submit_time:
                self._violate("assigned early", job)
        elif t < record.assignments[-1][0]:
            self._violate("assignments unsorted", job)

    def started(self, record, node: NodeId, t: float) -> None:
        """Judge the job's execution start on ``node`` at ``t``."""
        job, not_before = record.job.job_id, record.job.not_before
        if t + _EPSILON < record.submit_time:
            self._violate("started early", job)
        if not_before is not None and t + _EPSILON < not_before:
            self._violate("reservation", job, t=t, not_before=not_before)
        running = self._running.get(node)
        if running is not None and running is not record:
            self._violate(
                "overlap", node, node=node, running=running.job.job_id,
                job=job, t=t,
            )
        self._running[node] = record

    def finished(self, record, node: NodeId, t: float) -> None:
        """Judge a completion of the job on ``node`` at ``t``."""
        job = record.job.job_id
        self._hooked = True
        if self._running.get(node) is record:
            del self._running[node]
        if record.finish_time is not None:
            self._violate(
                "finished twice", job, first=record.finish_node,
                first_t=record.finish_time, node=node, t=t,
            )
            return
        if record.start_time is None:
            self._violate("finished unstarted", job)
        elif t < record.start_time:
            self._violate("finished early", job)
        if _moved(record):
            self._violate("moved while running", job)
        if record.unschedulable:
            self._violate("completed unschedulable", job)
        assignee = record.assignments[-1][1] if record.assignments else None
        if assignee is not None and record.start_node != assignee:
            self._violate(
                "placement", job, node=record.start_node, assignee=assignee
            )

    def unschedulable(self, record) -> None:
        """Judge discovery giving up on the job."""
        if record.finish_time is not None:
            self._violate("completed unschedulable", record.job.job_id)

    def lost(self, record, node: NodeId) -> None:
        """Free ``node``'s running slot of a job lost as ``node`` crashed."""
        if self._running.get(node) is record:
            del self._running[node]

    # -- trace feed -----------------------------------------------------
    def append(self, event: Dict[str, Any]) -> None:
        """Judge one trace event."""
        self.checked += 1
        name, job = event["ev"], event.get("job")
        t = event.get("t", self._now)
        self._now = max(self._now, t)
        if name == "job.finished":
            prior = self._finished.get(job)
            if prior is not None and not self._hooked:
                self._violate(
                    "finished twice", job, first=prior[0], first_t=prior[1],
                    node=event["node"], t=t,
                )
            elif prior is None:
                self._finished[job] = (event["node"], t)
                if len(self._finished) > MAX_TRACKED_JOBS:
                    del self._finished[next(iter(self._finished))]
            self._orphans.pop(job, None)
        elif name in (
            "job.adopted", "job.lost", "job.unschedulable", "job.resubmitted"
        ):
            self._orphans.pop(job, None)
        elif name == "job.orphaned":
            self._orphans.setdefault(job, t)
        elif name == "node.crashed":
            self._down.add(event["node"])
        elif name == "node.restarted":
            self._down.discard(event["node"])
        elif name == "msg.delivered" and event["dst"] in self._down:
            node = event["dst"]
            self._violate(
                "stale delivery", node, type=event.get("type"), node=node, t=t
            )
        elif name == "probe.sent" and job in self._finished:
            age = t - self._finished[job][1]
            if age > SETTLE:
                node = event["node"]
                self._violate("still tracked", (job, node), job=job,
                              node=node, age=age)
        # Swept against the watermark, so free while no orphan exists.
        if self._orphans:
            self._sweep_orphans()

    def _sweep_orphans(self) -> None:
        for job, since in list(self._orphans.items()):
            if self._now - since > ORPHAN_GRACE:
                del self._orphans[job]
                self._violate("orphan", job, t=since, age=self._now - since)

    # -- end of the run -------------------------------------------------
    def close(
        self,
        setup=None,
        *,
        expected_jobs: Optional[int] = None,
        allow_lost: bool = False,
        settle: float = SETTLE,
    ) -> None:
        """Sweep the trace feed's orphans; given the grid ``setup``, judge
        stranded jobs, double holds, conservation against
        ``expected_jobs``, crash losses unless ``allow_lost``, jobs still
        running where they were moved from, and quiescence, with
        ``settle`` seconds of grace."""
        self._sweep_orphans()
        if setup is None:
            return
        records, now = setup.metrics.records, setup.sim.now
        if expected_jobs is not None and len(records) != expected_jobs:
            self._violate(
                "conservation", None, records=len(records),
                expected=expected_jobs,
            )
        # Where every unresolved job lives right now.
        holders: Dict[JobId, List[NodeId]] = {}
        pending: Set[JobId] = set()
        tracked: List[Tuple[NodeId, JobId]] = []
        for agent in setup.agents:
            if agent.failed or agent.departed:
                continue
            held = [entry.job for entry in agent.node.scheduler.queued()]
            if agent.node.running is not None:
                held.append(agent.node.running.job)
            for job in held:
                holders.setdefault(job.job_id, []).append(agent.node_id)
            pending.update(agent._pending)
            tracked.extend((agent.node_id, job) for job in agent._tracked)
        for job, nodes in sorted(holders.items()):
            if len(nodes) > 1:
                self._violate(
                    "held twice", job, count=len(nodes), nodes=sorted(nodes)
                )
        for job, record in sorted(records.items()):
            if record.finish_time is None and _moved(record):
                self._violate("moved while running", job)
            if record.lost_count and not allow_lost:
                self._violate("phantom loss", job, count=record.lost_count)
            if record.completed or record.unschedulable:
                continue
            # Held or in discovery is in flight; crash-lost with nobody
            # left to resubmit it is an accounted loss.
            in_flight = job in holders or job in pending
            if in_flight or (record.lost_count and allow_lost):
                continue
            last = max(
                record.submit_time,
                record.assignments[-1][0] if record.assignments else 0.0,
                record.start_time or 0.0,
            )
            if now - last >= settle:
                self._violate("stranded", job, t=last)
        for node, job in sorted(tracked):
            finish = getattr(records.get(job), "finish_time", None)
            if finish is not None and now - finish >= settle:
                self._violate(
                    "still tracked", (job, node), job=job, node=node,
                    age=now - finish,
                )


def _moved(record) -> bool:
    """Whether the job's live execution began before its last ASSIGN."""
    if record.start_time is None or not record.assignments:
        return False
    return record.start_time + _EPSILON < record.assignments[-1][0]
