"""The ARiA protocol agent (§III of the paper).

One :class:`AriaAgent` runs on every grid node and implements the three
protocol phases:

* **Job submission** (§III-B): the node a job is submitted to (its
  *initiator*) floods a REQUEST over the overlay and collects ACCEPT cost
  offers for a fixed timelapse.  The initiator evaluates its own resources
  too — submission to a node never guarantees local execution, but the
  local node is a candidate like any other (at zero network cost).
* **Job acceptance** (§III-C): nodes whose profile matches the job answer
  with their cost (ETTC for batch schedulers, NAL for deadline schedulers);
  non-matching nodes relay the message.  The initiator delegates the job to
  the cheapest offer with an ASSIGN; assigned jobs can never be declined.
* **Dynamic rescheduling** (§III-D): while a job waits in a queue, its
  current assignee periodically advertises it with INFORM messages carrying
  the current cost.  A node that can beat that cost by more than the
  improvement threshold answers with an ACCEPT; the assignee withdraws the
  job (if it has not started) and re-ASSIGNs it to the better node.

Flooding rule (uniform for REQUEST and INFORM): a node that *answers* a
message does not relay it; every other node relays it while the hop budget
lasts.  For REQUEST this is literally the paper's rule ("if the request
cannot be satisfied, the message is further forwarded", §III-C); the paper
leaves the INFORM relay rule implicit and we apply the same answer-or-relay
principle.

Race conditions are resolved exactly as the paper's assumptions demand:
a job that started executing is never withdrawn (no preemption/migration),
late or duplicate ACCEPTs for a job that already left the queue are
ignored, and every re-ASSIGN re-checks the assignee's *fresh* cost rather
than the possibly stale value advertised in the INFORM.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ..clock import TimerHandle
from ..errors import ProtocolError
from ..grid.node import GridNode, RunningJob
from ..metrics.collector import GridMetrics
from ..net.message import Message
from ..net.transport import Transport
from ..overlay.flooding import SeenCache, choose_targets
from ..overlay.graph import OverlayGraph
from ..types import JobId, NodeId
from ..workload.jobs import Job
from .completion import CompletionLog
from .config import AriaConfig
from .messages import (
    Accept,
    Assign,
    Done,
    Inform,
    Probe,
    ProbeReply,
    Request,
    Track,
)
from .selection import select_inform_candidates

__all__ = ["AriaAgent"]

#: A cost offer: (cost, offering node) — tuple order gives deterministic
#: minimum selection with node id as tie-breaker.
Offer = Tuple[float, NodeId]


class _PendingRequest:
    """Discovery state of one job waiting for ACCEPT offers.

    ``initiator`` marks a *hand-off* discovery: the job is already
    assigned to this (leaving) node and is being re-delegated on behalf
    of that original initiator, so the final ASSIGN is a reschedule and
    the node itself is the fallback executor.  ``None`` is a discovery
    this node runs as the job's own initiator.
    """

    __slots__ = ("job", "offers", "retries", "timer", "initiator")

    def __init__(self, job: Job, initiator: Optional[NodeId] = None) -> None:
        self.job = job
        self.offers: List[Offer] = []
        self.retries = 0
        self.timer: Optional[TimerHandle] = None
        self.initiator = initiator

    @property
    def reschedule(self) -> bool:
        return self.initiator is not None


class _Tracked:
    """Initiator role (§III-D fail-safe): a job this node delegated and
    probes until its Done arrives.

    ``misses`` counts consecutive unanswered probe rounds (two resubmit
    the job); ``probe_timer`` is armed while a probe awaits its reply.
    """

    __slots__ = ("job", "assignee", "misses", "probe_timer")

    def __init__(self, job: Job, assignee: NodeId) -> None:
        self.job = job
        self.assignee = assignee
        self.misses = 0
        self.probe_timer: Optional[TimerHandle] = None

    def moved_to(self, assignee: NodeId) -> None:
        """Fresh assignment news clears any suspicion built by stale
        probes; a probe still in flight stays armed."""
        self.assignee = assignee
        self.misses = 0


class _Held:
    """Assignee role: a job waiting or running on this node.

    ``initiator`` is where its Done goes.  ``last_probe`` feeds the
    orphan detector: when this node last heard from the job's tracker
    (``None`` = not watched — own job, or already declared orphaned);
    ``adopted`` remembers that this node took over the initiator role,
    so a probe from a resurfacing initiator can cede it back.
    ``exec_deadline`` is the straggler defense's deadline while the job
    waits (``None`` = none, or already running) and ``overdue`` whether
    blowing it has been counted.
    """

    __slots__ = (
        "job",
        "initiator",
        "last_probe",
        "adopted",
        "exec_deadline",
        "overdue",
    )

    def __init__(self, job: Job, initiator: NodeId) -> None:
        self.job = job
        self.initiator = initiator
        self.last_probe: Optional[float] = None
        self.adopted = False
        self.exec_deadline: Optional[float] = None
        self.overdue = False


class AriaAgent:
    """Protocol endpoint attached to one :class:`~repro.grid.GridNode`."""

    __slots__ = (
        "node",
        "node_id",
        "transport",
        "graph",
        "config",
        "_inform_fanout",
        "_request_fanout",
        "_improvement_threshold",
        "_deadline_slack",
        "_adoption",
        "metrics",
        "sim",
        "_trace",
        "_rng",
        "_pending",
        "_seen_requests",
        "_seen_informs",
        "_broadcast_seq",
        "_inform_stop",
        "_tracked",
        "_held",
        "_failsafe_stop",
        "_completed",
        "_redelegated",
        "journal",
        "incarnation",
        "failed",
        "leaving",
        "departed",
        "_depart_timer",
        "grid_state",
    )

    def __init__(
        self,
        node: GridNode,
        transport: Transport,
        graph: OverlayGraph,
        config: AriaConfig,
        metrics: GridMetrics,
        rng: Optional[random.Random] = None,
        tracer=None,
    ) -> None:
        self.node = node
        #: The node's id, mirrored as a plain attribute: it is immutable and
        #: read on every hop of every flooded message.
        self.node_id = node.node_id
        self.transport = transport
        self.graph = graph
        self.config = config
        # Hot-path mirrors of frozen config scalars (attribute chains like
        # ``self.config.inform_flood.fanout`` add up over 10^5 relays).
        self._inform_fanout = config.inform_flood.fanout
        self._request_fanout = config.request_flood.fanout
        self._improvement_threshold = config.improvement_threshold
        self._deadline_slack = config.exec_deadline_slack
        self._adoption = config.adoption
        self.metrics = metrics
        self.sim = node.sim
        #: Optional :class:`~repro.obs.Tracer`, attached only when
        #: protocol-level tracing is active (``None`` costs one check per
        #: instrumentation point).
        self._trace = tracer
        self._rng = rng if rng is not None else self.sim.streams.get("aria")
        self._pending: Dict[JobId, _PendingRequest] = {}
        self._seen_requests = SeenCache(config.seen_cache_capacity)
        self._seen_informs = SeenCache(config.seen_cache_capacity)
        self._broadcast_seq = 0
        self._inform_stop = None
        # One record per job per role (see docs/PROTOCOL.md): jobs this
        # node tracks as initiator, probed in insertion order, and jobs it
        # holds as assignee, scanned in ASSIGN-arrival order.  Both are
        # volatile — a crash drops them.
        self._tracked: Dict[JobId, _Tracked] = {}
        self._held: Dict[JobId, _Held] = {}
        self._failsafe_stop = None
        # Probe-reconciliation memory (executor/assignee side): jobs this
        # node finished, and where it last re-delegated each job.  Both let
        # a ProbeReply repair tracking state whose Done/Track notification
        # was permanently lost (e.g. dropped throughout a partition), and
        # both survive crash-restart (see :meth:`restart`) — they are the
        # executor's durable journal.  The completion log is bounded: old
        # entries outside every replay window are evicted (docs/FAULTS.md).
        self._completed = CompletionLog()
        self._redelegated: Dict[JobId, NodeId] = {}
        #: Optional :class:`~repro.core.journal.DurableJournal` backing
        #: the completion log and incarnation counter on disk (attached
        #: by :meth:`bind_journal` in the process-isolated runtime).
        self.journal = None
        #: Restart generation: bumped by :meth:`restart`, stamped into
        #: transport deliveries so the past cannot talk to the present.
        self.incarnation = 0
        self.failed = False
        #: Graceful-departure state: a leaving node hands its queue off,
        #: finishes any running job, then departs the grid.
        self.leaving = False
        self.departed = False
        self._depart_timer: Optional[TimerHandle] = None
        #: Optional :class:`~repro.grid.state.GridState` this agent mirrors
        #: its live bit into (assigned by the grid builder; ``None`` costs
        #: one check per membership transition).
        self.grid_state = None
        transport.register(node.node_id, self._on_message)
        node.on_job_started.append(self._on_job_started)
        node.on_job_finished.append(self._on_job_finished)

    def _emit(self, event: str, **fields) -> None:
        """Record one protocol event at this node, now — the agent-side
        twin of ``Transport._emit_msg``.  Call sites guard on
        ``self._trace is not None``, so an untraced run pays one
        attribute test per instrumentation point and builds no kwargs."""
        self._trace.emit(event, self.sim.now, node=self.node_id, **fields)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic protocol activities.

        Starts the INFORM loop (when rescheduling is on) and the fail-safe
        probing loop (when fail-safe mode is on).  Each node's clocks get a
        random phase so the grid does not act in synchronized bursts.
        """
        if self.config.rescheduling and self._inform_stop is None:
            phase = self._rng.uniform(0.0, self.config.inform_interval)
            self._inform_stop = self.sim.every(
                self.config.inform_interval,
                self._inform_round,
                start=self.sim.now + phase,
            )
        if self.config.failsafe and self._failsafe_stop is None:
            phase = self._rng.uniform(0.0, self.config.probe_interval)
            self._failsafe_stop = self.sim.every(
                self.config.probe_interval,
                self._failsafe_round,
                start=self.sim.now + phase,
            )

    def stop(self) -> None:
        """Stop the periodic protocol activities."""
        if self._inform_stop is not None:
            self._inform_stop()
            self._inform_stop = None
        if self._failsafe_stop is not None:
            self._failsafe_stop()
            self._failsafe_stop = None

    def fail(self, leave_overlay: bool = True) -> List[Job]:
        """Crash this node: it stops executing, replying and relaying.

        Returns the jobs lost from its queue/executor.  With fail-safe mode
        on, the initiators of those jobs detect the silence through probe
        misses and resubmit them (§III-D's fail-safe sketch).
        """
        if self.failed:
            raise ProtocolError(f"node {self.node_id} already failed")
        self.failed = True
        if self._trace is not None:
            self._emit("node.crashed")
        self.stop()
        # A dead node abandons its initiator duties too: pending discovery
        # retries, fail-safe probes and tracking state all die with it.
        # Jobs still *in* discovery here have no assignee and no tracker —
        # nothing in the grid can recover them — so they are recorded as
        # lost instead of silently vanishing from the books.
        for pending in self._pending.values():
            if pending.timer is not None:
                self.sim.cancel(pending.timer)
            self.metrics.job_lost(
                pending.job.job_id, self.node_id, self.sim.now
            )
            if self._trace is not None:
                self._emit("job.lost", job=pending.job.job_id)
        self._pending.clear()
        self._held.clear()
        self._abandon_tracking()
        if self._depart_timer is not None:
            self.sim.cancel(self._depart_timer)
            self._depart_timer = None
        if self.transport.is_registered(self.node_id):
            self.transport.unregister(self.node_id)
        if leave_overlay and self.graph.has_node(self.node_id):
            self.graph.remove_node(self.node_id)
        if self.grid_state is not None:
            self.grid_state.set_live(int(self.node_id), False)
        lost = self.node.crash()
        for job in lost:
            self.metrics.job_lost(job.job_id, self.node_id, self.sim.now)
            if self._trace is not None:
                self._emit("job.lost", job=job.job_id)
        return lost

    def restart(self) -> None:
        """Rejoin the grid after a crash, under a fresh incarnation.

        Volatile state died with the crash and stays dead: flood dedup
        windows, discovery state, and the tracked / held job records
        (:meth:`fail` dropped them).  Two things survive — the completion
        log and the re-delegation pointers — the executor's durable
        journal (the analogue of the tiny write-ahead completion record
        real schedulers persist).  The journal is a
        *safety* requirement, not a convenience: without it a tracker
        whose Done/Track notification died with the old incarnation would
        probe the reborn node, hear "never heard of that job", and
        resubmit a job that already ran (or still runs elsewhere) —
        cross-incarnation double execution.

        The incarnation bump makes the old self unreachable: every
        message is stamped with the destination's incarnation at send
        time, so ASSIGNs, Tracks, retransmitted copies and acks addressed
        to the dead incarnation are dropped on arrival
        (``net.dropped_stale``) instead of corrupting the fresh state.

        The caller re-attaches the node to the overlay (e.g. via
        ``BlatantMaintainer.join``) — same split as churn joins.
        """
        if not self.failed:
            raise ProtocolError(f"node {self.node_id} has not crashed")
        if self.departed:
            raise ProtocolError(f"node {self.node_id} departed for good")
        self.failed = False
        self.leaving = False
        if self.grid_state is not None:
            self.grid_state.set_live(int(self.node_id), True)
        self.incarnation += 1
        self.transport.bump_incarnation(self.node_id)
        if self.journal is not None:
            self.journal.record_incarnation(self.incarnation)
        self.node.revive()
        self._seen_requests = SeenCache(self.config.seen_cache_capacity)
        self._seen_informs = SeenCache(self.config.seen_cache_capacity)
        self.transport.register(self.node_id, self._on_message)
        self.metrics.node_restarted(self.node_id, self.sim.now)
        if self._trace is not None:
            self._emit("node.restarted", incarnation=self.incarnation)
        self.start()

    def bind_journal(self, journal) -> int:
        """Attach a :class:`~repro.core.journal.DurableJournal` and
        recover its state; returns the incarnation this agent now runs as.

        This is what makes crash-restart honest across *real* process
        deaths: the in-memory completion log that :meth:`restart`
        preserves dies with the OS process, so a journal-less reborn
        process would answer fail-safe probes with "never heard of that
        job" and trigger cross-incarnation double execution.  The
        completion log takes the journal as its write-ahead backend
        (replaying what it recovered); this method resumes the
        incarnation counter strictly past every one that ever ran here
        (pinning it into the transport's slab so stamping works from the
        first message) and narrates the recovery on the trace bus: one
        ``journal.recovered`` summary plus a ``journal.replayed`` entry
        per restored completion (capped), which is the pre-/post-kill
        evidence the chaos gauntlet checks.

        Call before :meth:`start`, on a freshly constructed agent.
        """
        self.journal = journal
        incarnation = journal.boot()
        recovered = self._completed.bind(journal)
        if incarnation:
            self.incarnation = incarnation
            self.transport.set_incarnation(self.node_id, incarnation)
            self.metrics.node_restarted(self.node_id, self.sim.now)
        if self._trace is not None and (incarnation or recovered):
            self._emit(
                "journal.recovered",
                incarnation=incarnation,
                entries=len(recovered),
            )
            for job_id, _finished_at, entry_incarnation in recovered[-64:]:
                self._emit(
                    "journal.replayed",
                    job=job_id,
                    incarnation=entry_incarnation,
                )
        return incarnation

    def leave(self) -> int:
        """Begin a graceful departure (the volatile-resource case).

        The node immediately stops offering on REQUEST/INFORM, re-delegates
        every *waiting* job through hand-off discoveries (the final ASSIGNs
        count as reschedules and notify initiators when tracking is on),
        lets any running job finish, and departs once its plate is clean.
        If a hand-off finds no taker the node executes that job itself
        before departing — an accepted job is never dropped (§III-A).

        Returns the number of hand-off discoveries started.
        """
        if self.failed:
            raise ProtocolError(f"node {self.node_id} has crashed")
        if self.leaving:
            raise ProtocolError(f"node {self.node_id} is already leaving")
        self.leaving = True
        if self._inform_stop is not None:
            self._inform_stop()
            self._inform_stop = None
        handed_off = 0
        for entry in self.node.scheduler.queued():
            removed = self.node.withdraw_job(entry.job.job_id)
            if removed is not None:
                self._begin_discovery(
                    removed.job, self._release(removed.job.job_id)
                )
                handed_off += 1
        self._maybe_depart()
        return handed_off

    def health_snapshot(self) -> Dict[str, object]:
        """Liveness snapshot served by the live runtime's ``/healthz``.

        Cheap enough to compute per request: scalar state plus the sizes
        of the standing tables — queue depth, the running job, the
        incarnation, tracking/pending load, and the age of the newest
        fail-safe probe seen (``None`` until one arrives).
        """
        now = self.sim.now
        running = self.node.running
        probes = [
            held.last_probe
            for held in self._held.values()
            if held.last_probe is not None
        ]
        last_probe_age = now - max(probes) if probes else None
        return {
            "incarnation": self.incarnation,
            "failed": self.failed,
            "leaving": self.leaving,
            "departed": self.departed,
            "queue_depth": len(self.node.scheduler),
            "running_job": None if running is None else running.job.job_id,
            "tracked_jobs": len(self._tracked),
            "pending_discoveries": len(self._pending),
            "last_probe_age": last_probe_age,
        }

    def _departure_blocked(self) -> bool:
        return (
            self.node.running is not None
            or len(self.node.scheduler) > 0
            or bool(self._pending)  # hand-offs / own submissions in flight
        )

    def _maybe_depart(self) -> None:
        """Arm the departure grace timer once nothing remains to do.

        The node lingers for ``departure_grace`` so that ASSIGNs already in
        flight still find it — they get re-delegated rather than silently
        dropped by an unregistered transport endpoint.
        """
        if not self.leaving or self.departed or self.failed:
            return
        if self._departure_blocked() or self._depart_timer is not None:
            return
        self._depart_timer = self.sim.call_after(
            self.config.departure_grace, self._complete_departure
        )

    def _complete_departure(self) -> None:
        self._depart_timer = None
        if self.departed or self.failed:
            return
        if self._departure_blocked():
            return  # a late ASSIGN arrived; its hand-off will re-trigger
        self.departed = True
        if self.grid_state is not None:
            self.grid_state.set_live(int(self.node_id), False)
        self.stop()
        # A departed initiator abandons its fail-safe tracking duties the
        # same way a crashed one does: an outstanding probe timeout left
        # armed here would fire after the node left the overlay and try to
        # re-broadcast a REQUEST from a node the graph no longer knows.
        self._abandon_tracking()
        self.transport.unregister(self.node_id)
        if self.graph.has_node(self.node_id):
            self.graph.remove_node(self.node_id)

    # ------------------------------------------------------------------
    # Phase 1: job submission (this node is the initiator)
    # ------------------------------------------------------------------
    def submit(self, job: Job) -> None:
        """Accept a user's job submission and start the discovery phase."""
        if self.failed or self.departed:
            raise ProtocolError(
                f"node {self.node_id} is no longer part of the grid"
            )
        if job.job_id in self._pending:
            raise ProtocolError(f"job {job.job_id} already pending here")
        self.metrics.job_submitted(job, self.node_id, self.sim.now)
        if self._trace is not None:
            self._emit("job.submitted", job=job.job_id)
        self._begin_discovery(job)

    def _begin_discovery(
        self, job: Job, initiator: Optional[NodeId] = None
    ) -> None:
        pending = _PendingRequest(job, initiator)
        self._pending[job.job_id] = pending
        self._broadcast_request(job)
        pending.timer = self.sim.call_after(
            self.config.accept_wait, self._finalize_request, job.job_id
        )

    def _next_broadcast_id(self) -> Tuple[NodeId, int]:
        self._broadcast_seq += 1
        return (self.node_id, self._broadcast_seq)

    def _broadcast_request(self, job: Job) -> None:
        policy = self.config.request_flood
        if self._trace is not None:
            pending = self._pending.get(job.job_id)
            self._emit(
                "request.broadcast",
                job=job.job_id,
                retry=pending.retries if pending is not None else 0,
            )
        broadcast_id = self._next_broadcast_id()
        self._seen_requests.seen_before(broadcast_id)  # ignore echoes
        message = Request(
            initiator=self.node_id,
            job=job,
            hops_left=policy.max_hops - 1,
            broadcast_id=broadcast_id,
        )
        for target in choose_targets(
            self.graph, self.node_id, policy.fanout, self._rng
        ):
            self.transport.send(self.node_id, target, message)

    def _finalize_request(self, job_id: JobId) -> None:
        pending = self._pending.get(job_id)
        if pending is None:  # pragma: no cover - defensive
            return
        job = pending.job
        # The initiator quotes itself at decision time (no network cost).
        if self._can_host(job):
            own_cost = self.node.cost_for(job)
            pending.offers.append((own_cost, self.node_id))
            if self._trace is not None:
                self._emit(
                    "cost.evaluated", job=job_id, cost=own_cost, phase="self"
                )
                self._emit(
                    "accept.received",
                    job=job_id,
                    src=self.node_id,
                    cost=own_cost,
                    phase="self",
                )
        if not pending.offers:
            pending.retries += 1
            if pending.retries > self.config.max_request_retries:
                del self._pending[job_id]
                if pending.reschedule and not self.failed:
                    # Hand-off found no taker: a leaving node falls back to
                    # executing the job itself before departing (a job may
                    # never be dropped once accepted, §III-A).
                    if self._trace is not None:
                        self._emit("job.queued", job=job_id)
                    self._held[job_id] = _Held(job, pending.initiator)
                    self.node.accept_job(job)
                    return
                self._untrack(job_id)
                self.metrics.job_unschedulable(job_id, self.sim.now)
                if self._trace is not None:
                    self._emit("job.unschedulable", job=job_id)
                return
            self._broadcast_request(job)
            pending.timer = self.sim.call_after(
                self.config.request_retry_interval,
                self._finalize_request,
                job_id,
            )
            return
        del self._pending[job_id]
        cost, winner = min(pending.offers)
        if self._trace is not None:
            self._emit(
                "assign.winner",
                job=job_id,
                winner=winner,
                cost=cost,
                offers=len(pending.offers),
                reschedule=pending.reschedule,
            )
        if pending.reschedule:
            self._send_assign(winner, job, pending.initiator, reschedule=True)
            self._maybe_depart()
            return
        if self.config.failsafe:
            self._tracked[job_id] = _Tracked(job, winner)
        self._send_assign(winner, job, self.node_id, reschedule=False)

    def _send_control(self, dst: NodeId, message: Message) -> None:
        """Send a control-plane-critical message (ASSIGN / Track / Done /
        Probe / ProbeReply).

        Routed through the transport's reliability layer (at-least-once
        delivery + receiver-side dedup) when one is attached; a plain
        datagram send otherwise, preserving the paper's base semantics.
        """
        reliability = self.transport.reliability
        if reliability is not None:
            reliability.send(self.node_id, dst, message)
        else:
            self.transport.send(self.node_id, dst, message)

    def _send_assign(
        self, target: NodeId, job: Job, initiator: NodeId, reschedule: bool
    ) -> None:
        """Delegate ``job`` to ``target`` (initial assignment or reschedule).

        A reschedule travels under the job's original ``initiator`` and
        notifies it (Track) when tracking is active.
        """
        if reschedule:
            # Remember the forwarding pointer: a probe that finds the job
            # gone from here can steer the initiator to ``target`` even if
            # the Track notification below never makes it.
            self._redelegated[job.job_id] = target
        message = Assign(initiator=initiator, job=job, reschedule=reschedule)
        self._send_control(target, message)
        if reschedule and (
            self.config.notify_initiator or self.config.failsafe
        ):
            if initiator == self.node_id:
                tracked = self._tracked.get(job.job_id)
                if tracked is not None:
                    tracked.moved_to(target)
            else:
                self._send_control(initiator, Track(job.job_id, target))

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _on_message(self, src: NodeId, message: Message) -> None:
        handler = _HANDLERS.get(message.__class__)
        if handler is None:  # pragma: no cover - defensive
            raise ProtocolError(f"unexpected message {message!r}")
        handler(self, src, message)

    def _handle_probe(self, src: NodeId, message: Probe) -> None:
        """Answer a fail-safe liveness probe.

        A job in a pending hand-off discovery counts as held: the leaving
        node is still responsible for it, and reporting otherwise would
        trigger a spurious fail-safe resubmission.  When the job is gone
        from here the reply carries what this node knows instead: that it
        already executed it (``done``), or where it re-delegated it
        (``new_assignee``) — repairing tracking state whose Done/Track
        notification was permanently lost.
        """
        job_id = message.job_id
        holds = self.node.holds_job(job_id) or job_id in self._pending
        done = False
        new_assignee = None
        if holds:
            # An incoming probe is proof the job's tracker is alive: feed
            # the orphan detector, and if this node had *adopted* the job
            # (falsely — e.g. the initiator restarted, or its probes were
            # partitioned away), cede the initiator role back.  (A job in
            # a hand-off discovery has no held record to feed.)
            held = self._held.get(job_id)
            if held is not None:
                held.last_probe = self.sim.now
                if held.adopted and message.initiator != self.node_id:
                    held.adopted = False
                    held.initiator = message.initiator
                    self._untrack(job_id)
        elif job_id in self._completed:
            done = True
        else:
            new_assignee = self._redelegated.get(job_id)
        self._send_control(
            message.initiator,
            ProbeReply(job_id, holds, done=done, new_assignee=new_assignee),
        )

    def _handle_done(self, src: NodeId, message: Done) -> None:
        """A tracked job finished remotely: stop tracking it."""
        self._untrack(message.job_id)

    def _can_host(self, job: Job) -> bool:
        """Whether this node may *offer* to execute ``job`` right now.

        The node's hosting rule (:meth:`GridNode.can_host`), and the node
        is neither leaving nor failed (a departing node sheds load, it does
        not attract more).
        """
        if self.leaving or self.failed:
            return False
        return self.node.can_host(job)

    # ------------------------------------------------------------------
    # Phase 2: acceptance
    # ------------------------------------------------------------------
    def _handle_request(self, src: NodeId, message: Request) -> None:
        if self._seen_requests.seen_before(message.broadcast_id):
            return
        if self._can_host(message.job):
            cost = self.node.cost_for(message.job)
            if self._trace is not None:
                self._emit(
                    "cost.evaluated",
                    job=message.job.job_id,
                    cost=cost,
                    phase="request",
                )
            self.transport.send(
                self.node_id,
                message.initiator,
                Accept(self.node_id, message.job.job_id, cost),
            )
            return  # answering nodes do not relay (§III-C)
        self._relay_request(src, message)

    def _relay_request(self, src: NodeId, message: Request) -> None:
        if message.hops_left <= 0:
            return
        relayed = Request(
            message.initiator,
            message.job,
            message.hops_left - 1,
            message.broadcast_id,
        )
        node_id = self.node_id
        send = self.transport.send
        for target in choose_targets(
            self.graph, node_id, self._request_fanout, self._rng, exclude=src
        ):
            send(node_id, target, relayed)

    def _handle_accept(self, src: NodeId, message: Accept) -> None:
        pending = self._pending.get(message.job_id)
        if pending is not None:
            pending.offers.append((message.cost, message.node))
            if self._trace is not None:
                self._emit(
                    "accept.received",
                    job=message.job_id,
                    src=message.node,
                    cost=message.cost,
                    phase="request",
                )
            return
        self._consider_reschedule_offer(message)

    # ------------------------------------------------------------------
    # Phase 3: dynamic rescheduling
    # ------------------------------------------------------------------
    def _inform_round(self) -> None:
        """Advertise up to ``inform_count`` waiting jobs (assignee side).

        ``now`` and ``running_remaining`` are read once: both are constant
        within one event, so every candidate is quoted against the same
        load.
        """
        scheduler = self.node.scheduler
        if len(scheduler) == 0:
            # Nothing waiting: the round would advertise nothing, consume
            # no randomness and change no counter.  Returning here is
            # observably identical and keeps the per-node periodic timer
            # (nodes x rounds of them) a near-free event at 10^5 nodes.
            return
        now = self.sim.now
        running_remaining = self.node.running_remaining()
        candidates = select_inform_candidates(
            scheduler, self.config.inform_count, now, running_remaining
        )
        guarded = self._deadline_slack > 0.0
        if guarded:
            candidates = self._with_overdue_candidates(candidates, now)
        policy = self.config.inform_flood
        hops_left = policy.max_hops - 1
        self.metrics.informs_advertised(len(candidates))
        for entry in candidates:
            cost = scheduler.queue_cost_of(
                entry.job.job_id, now, running_remaining
            )
            if guarded:
                overdue = self._overdue(entry.job.job_id, now)
                if overdue > 0.0:
                    # Straggler defense: an overdue job is advertised at
                    # its cost *plus* the overdue time, a penalty that
                    # grows every round until some other node's honest
                    # quote beats it and the INFORM path pulls the job
                    # off this (possibly fail-slow) node.
                    cost += overdue
                    held = self._held[entry.job.job_id]
                    if not held.overdue:
                        held.overdue = True
                        self.metrics.job_deadline_exceeded(
                            entry.job.job_id, now
                        )
                        if self._trace is not None:
                            self._emit(
                                "deadline.exceeded",
                                job=entry.job.job_id,
                                overdue=overdue,
                            )
            if self._trace is not None:
                self._emit("inform.broadcast", job=entry.job.job_id, cost=cost)
            broadcast_id = self._next_broadcast_id()
            self._seen_informs.seen_before(broadcast_id)
            message = Inform(
                self.node_id, entry.job, cost, hops_left, broadcast_id
            )
            for target in choose_targets(
                self.graph, self.node_id, policy.fanout, self._rng
            ):
                self.transport.send(self.node_id, target, message)

    def _with_overdue_candidates(self, candidates, now: float):
        """Force overdue queued jobs into the INFORM round.

        ``select_inform_candidates`` picks the jobs most attractive to
        move; a job stuck past its execution deadline must be advertised
        *whether or not* it looks attractive, or a fail-slow node would
        keep it quietly forever.
        """
        chosen = {entry.job.job_id for entry in candidates}
        scheduler = self.node.scheduler
        extra = []
        for job_id, held in self._held.items():
            deadline = held.exec_deadline
            if deadline is None or now <= deadline or job_id in chosen:
                continue
            entry = scheduler.find(job_id)
            if entry is not None:
                extra.append(entry)
        if not extra:
            return candidates
        return list(candidates) + extra

    def _handle_inform(self, src: NodeId, message: Inform) -> None:
        node_id = self.node_id
        if self._seen_informs.seen_before(message.broadcast_id):
            return
        if message.assignee == node_id:
            return
        if self._can_host(message.job):
            cost = self.node.cost_for(message.job)
            if cost < message.cost - self._improvement_threshold:
                if self._trace is not None:
                    self._emit(
                        "cost.evaluated",
                        job=message.job.job_id,
                        cost=cost,
                        phase="inform",
                    )
                self.transport.send(
                    node_id,
                    message.assignee,
                    Accept(node_id, message.job.job_id, cost),
                )
                return  # answering nodes do not relay
        self._relay_inform(src, message)

    def _relay_inform(self, src: NodeId, message: Inform) -> None:
        if message.hops_left <= 0:
            return
        relayed = Inform(
            message.assignee,
            message.job,
            message.cost,
            message.hops_left - 1,
            message.broadcast_id,
        )
        node_id = self.node_id
        send = self.transport.send
        for target in choose_targets(
            self.graph, node_id, self._inform_fanout, self._rng, exclude=src
        ):
            send(node_id, target, relayed)

    def _consider_reschedule_offer(self, message: Accept) -> None:
        """Assignee side: a node offers to take one of our waiting jobs."""
        entry = self.node.scheduler.find(message.job_id)
        if entry is None:
            return  # job started, finished, or already rescheduled: stale
        own_cost = self.node.scheduler.queue_cost_of(
            message.job_id, self.sim.now, self.node.running_remaining()
        )
        if self._deadline_slack > 0.0:
            # Mirror the INFORM-side penalty so the offer that the
            # inflated advertisement attracted actually wins here.
            own_cost += self._overdue(message.job_id, self.sim.now)
        if self._trace is not None:
            self._emit(
                "accept.received",
                job=message.job_id,
                src=message.node,
                cost=message.cost,
                phase="inform",
            )
        if message.cost >= own_cost - self.config.improvement_threshold:
            return  # the offer no longer beats our fresh cost
        removed = self.node.withdraw_job(message.job_id)
        if removed is None:  # pragma: no cover - guarded by find() above
            return
        if self._trace is not None:
            self._emit(
                "reschedule.withdrawn",
                job=message.job_id,
                to=message.node,
                own_cost=own_cost,
                offer_cost=message.cost,
            )
        self._send_assign(
            message.node,
            removed.job,
            self._release(message.job_id),
            reschedule=True,
        )

    # ------------------------------------------------------------------
    # Assignment receipt and execution hooks
    # ------------------------------------------------------------------
    def _handle_assign(self, src: NodeId, message: Assign) -> None:
        job = message.job
        if not self.node.can_host(job):
            raise ProtocolError(
                f"node {self.node_id} received job {job.job_id} it cannot "
                "host — nodes may not decline accepted jobs (§III-A)"
            )
        if (
            self.node.holds_job(job.job_id)
            or job.job_id in self._pending
            or job.job_id in self._completed
        ):
            # Duplicate delegation (e.g. a fail-safe resubmission raced a
            # Track update, or a resubmission of a job this node already
            # executed whose Done got lost): accepting twice would
            # double-execute, so the second copy is dropped idempotently.
            if self._trace is not None:
                self._emit("assign.duplicate", job=job.job_id, src=src)
            return
        self._redelegated.pop(job.job_id, None)
        # The wire copy may be this process's first sight of the job
        # (metrics are sharded per OS process in the isolated runtime).
        self.metrics.ensure_job(job, message.initiator, job.submit_time)
        self.metrics.job_assigned(
            job.job_id, self.node_id, self.sim.now, message.reschedule
        )
        if self._trace is not None:
            self._emit(
                "assign.received",
                job=job.job_id,
                src=src,
                reschedule=message.reschedule,
            )
        if self.leaving:
            # An ASSIGN that raced our departure cannot be declined; the
            # leaving node immediately re-delegates it instead of queueing.
            self._begin_discovery(job, message.initiator)
            return
        if self._trace is not None:
            self._emit("job.queued", job=job.job_id)
        held = self._held[job.job_id] = _Held(job, message.initiator)
        if self.config.failsafe:
            # Seed the orphan detector: treat the ASSIGN itself as the
            # tracker's first sign of life.
            held.last_probe = self.sim.now
        if self._deadline_slack > 0.0:
            # Execution deadline: the queue-wait + runtime estimate this
            # node would quote right now, stretched by the slack.  NAL
            # costs are not time-like, so the job's own scaled runtime is
            # the floor of the estimate.
            estimate = max(self.node.cost_for(job), self.node.ertp(job))
            held.exec_deadline = self.sim.now + estimate * self._deadline_slack
        self.node.accept_job(job)

    def _release(self, job_id: JobId) -> NodeId:
        """Drop the held record of a job leaving this node (finished,
        withdrawn for rescheduling, or handed off); returns the job's
        initiator — this node itself for a job nobody assigned."""
        held = self._held.pop(job_id, None)
        return held.initiator if held is not None else self.node_id

    def _overdue(self, job_id: JobId, now: float) -> float:
        """How far a waiting job is past its execution deadline (0.0 when
        it has none or is within it)."""
        held = self._held.get(job_id)
        if held is None or held.exec_deadline is None:
            return 0.0
        return max(0.0, now - held.exec_deadline)

    def _on_job_started(self, node: GridNode, running: RunningJob) -> None:
        self.metrics.job_started(
            running.job.job_id, node.node_id, self.sim.now
        )
        if self._deadline_slack > 0.0:
            # Once running, a job can never move (no preemption, §III-A):
            # its deadline has nothing left to defend.
            held = self._held.get(running.job.job_id)
            if held is not None:
                held.exec_deadline = None
        if self._trace is not None:
            self._emit("job.started", job=running.job.job_id)

    def _on_job_finished(self, node: GridNode, finished: RunningJob) -> None:
        job_id = finished.job.job_id
        # Write-ahead: a journal-backed log puts the completion on disk
        # before anyone (metrics, trace, the Done to the initiator) hears
        # of it, so a kill between here and the announcement can only lose
        # the announcement — never the memory that the job already ran.
        self._completed.add(job_id, self.sim.now, self.incarnation)
        initiator = self._release(job_id)
        self.metrics.job_finished(job_id, node.node_id, self.sim.now)
        if self._trace is not None:
            self._emit(
                "job.finished", job=job_id, incarnation=self.incarnation
            )
        if self.config.failsafe:
            if initiator == self.node_id:
                self._untrack(job_id)
            else:
                self._send_control(initiator, Done(job_id))
        self._maybe_depart()

    # ------------------------------------------------------------------
    # Fail-safe mode (§III-D crash-recovery sketch)
    # ------------------------------------------------------------------
    def _untrack(self, job_id: JobId) -> None:
        tracked = self._tracked.pop(job_id, None)
        if tracked is not None and tracked.probe_timer is not None:
            self.sim.cancel(tracked.probe_timer)

    def _abandon_tracking(self) -> None:
        """Stop tracking every job (this node crashed or departed)."""
        for tracked in self._tracked.values():
            if tracked.probe_timer is not None:
                self.sim.cancel(tracked.probe_timer)
        self._tracked.clear()

    def _handle_track(self, src: NodeId, message: Track) -> None:
        """Update the believed assignee of a tracked job."""
        tracked = self._tracked.get(message.job_id)
        if tracked is not None:
            tracked.moved_to(message.new_assignee)

    def _failsafe_round(self) -> None:
        """Probe the believed assignee of every tracked, unfinished job."""
        for job_id, tracked in list(self._tracked.items()):
            if job_id in self._pending or tracked.probe_timer is not None:
                continue  # being rediscovered / probe already in flight
            assignee = tracked.assignee
            if assignee == self.node_id:
                continue  # local job: completion is observed directly
            if self._trace is not None:
                self._emit("probe.sent", job=job_id, assignee=assignee)
            self._send_control(assignee, Probe(job_id, self.node_id))
            tracked.probe_timer = self.sim.call_after(
                self.config.probe_timeout, self._probe_missed, job_id
            )
        if self._held:
            self._orphan_scan()

    def _orphan_scan(self) -> None:
        """Assignee side: detect jobs whose initiator has gone silent.

        §III-D's fail-safe covers assignee crashes only; a crashed
        *initiator* leaves its assigned jobs without a tracker.  The
        assignee notices: a held job that has not been probed for
        ``adoption_windows`` consecutive probe intervals is orphaned.
        With ``adoption`` on, this node takes over the initiator role —
        it self-tracks the job (so a later reschedule or assignee crash
        still has a tracker) and, as its own initiator, suppresses the
        Done that would otherwise chase the dead node.  With adoption
        off the orphan is only counted, which is what the orphan-leak
        regression arm measures.
        """
        now = self.sim.now
        window = self.config.adoption_windows * self.config.probe_interval
        for job_id, held in self._held.items():
            last_seen = held.last_probe
            if last_seen is None:
                continue
            initiator = held.initiator
            if initiator == self.node_id:
                held.last_probe = None  # own job: nobody else tracks it
                continue
            if now - last_seen < window:
                continue
            held.last_probe = None
            self.metrics.job_orphaned(job_id, now)
            if self._trace is not None:
                self._emit("job.orphaned", job=job_id, initiator=initiator)
            if not self._adoption:
                continue
            held.adopted = True
            held.initiator = self.node_id
            self._tracked[job_id] = _Tracked(held.job, self.node_id)
            self.metrics.job_adopted(job_id, now)
            if self._trace is not None:
                self._emit("job.adopted", job=job_id, initiator=initiator)

    def _handle_probe_reply(self, src: NodeId, message: ProbeReply) -> None:
        """Process a probe answer; two consecutive misses resubmit.

        Reconciliation replies are honoured even when they arrive after
        the probe timeout already fired (information is information), but
        a plain "not held" only counts as a miss while its probe's timeout
        was still pending — a duplicated or post-timeout reply must not
        double-count a single unanswered round.
        """
        job_id = message.job_id
        tracked = self._tracked.get(job_id)
        if tracked is None:
            return
        timeout = tracked.probe_timer
        if timeout is not None:
            self.sim.cancel(timeout)
            tracked.probe_timer = None
        if message.done:
            # The assignee executed the job but its Done notification was
            # permanently lost: reconcile and stop tracking.
            self._untrack(job_id)
            return
        if message.holds:
            tracked.misses = 0
            return
        if message.new_assignee is not None:
            if message.new_assignee == self.node_id and not (
                self.node.holds_job(job_id) or job_id in self._pending
            ):
                # The forwarding pointer aims back here but nothing ever
                # arrived (the re-ASSIGN itself died): treat as a miss so
                # the job gets resubmitted rather than tracked forever.
                self._record_probe_miss(tracked)
                return
            # The job moved on and the Track notification was lost: follow
            # the forwarding pointer instead of suspecting a crash.
            tracked.moved_to(message.new_assignee)
            return
        if timeout is None:
            return  # duplicate / post-timeout reply: miss already counted
        # The assignee answered but does not hold the job and knows
        # nothing about it: either a notification is still in flight
        # (wait it out) or the job was really lost.  Two consecutive
        # misses resubmit.
        self._record_probe_miss(tracked)

    def _probe_missed(self, job_id: JobId) -> None:
        tracked = self._tracked.get(job_id)
        if tracked is not None:
            tracked.probe_timer = None
            self._record_probe_miss(tracked)

    def _record_probe_miss(self, tracked: _Tracked) -> None:
        job = tracked.job
        job_id = job.job_id
        tracked.misses = misses = tracked.misses + 1
        if self._trace is not None:
            self._emit("probe.miss", job=job_id, misses=misses)
        if misses < 2:
            return
        self._untrack(job_id)
        if job_id in self._pending:  # pragma: no cover - defensive
            return
        self.metrics.job_resubmitted(job_id, self.sim.now)
        if self._trace is not None:
            self._emit("job.resubmitted", job=job_id)
        self._begin_discovery(job)


#: Message dispatch by exact type — one dict lookup per delivery instead
#: of an isinstance chain.  One table of plain functions for every agent:
#: a per-agent table of bound methods would make each agent a reference
#: cycle with itself.
_HANDLERS = {
    Request: AriaAgent._handle_request,
    Accept: AriaAgent._handle_accept,
    Inform: AriaAgent._handle_inform,
    Assign: AriaAgent._handle_assign,
    Track: AriaAgent._handle_track,
    Probe: AriaAgent._handle_probe,
    ProbeReply: AriaAgent._handle_probe_reply,
    Done: AriaAgent._handle_done,
}
