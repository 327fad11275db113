"""The one recipe that turns ``(scenario, nodes, seed)`` into a grid.

The paper defines a grid once (§IV-B–D): a converged overlay,
heterogeneous node profiles with a performance index, a randomly drawn
local scheduler per node, ARiA agents sharing one protocol
configuration, the §IV-D workload, and the time-series samplers behind
Figures 1/3/5/6.  This is the only module that writes the recipe down.
Whatever runs a grid is a *driver* — ``build_grid`` on the simulator,
``run_live`` on real sockets, ``run_procs`` with one assembly per worker
process, the baselines' runner — that supplies a
:class:`~repro.clock.Clock`, a :class:`~repro.net.Transport` and its own
lifecycle, and calls in here.

Nothing here may import :mod:`repro.runtime`: ``import
repro.experiments`` must stay free of the asyncio/HTTP stack.
"""

from __future__ import annotations

import dataclasses
import gc
import random
from collections import OrderedDict
from dataclasses import dataclass, field as dataclass_field
from typing import (
    Callable,
    Collection,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..clock import Clock
from ..core.config import AriaConfig
from ..core.protocol import AriaAgent
from ..errors import ConfigurationError
from ..grid.node import GridNode
from ..grid.performance import AccuracyModel
from ..grid.profiles import NodeProfile
from ..grid.resources import random_node_profile, random_performance_index
from ..grid.state import GridState
from ..metrics.collector import GridMetrics
from ..net.traffic import TrafficReport
from ..net.transport import Transport
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceConfig, Tracer
from ..overlay.flooding import FloodPolicy
from ..overlay.graph import OverlayGraph
from ..scheduling.registry import make_scheduler
from ..sim import PeriodicSampler, TimeSeries, derive_seed
from ..types import NodeId
from ..workload.generator import ERT_DISTRIBUTION, JobGenerator
from ..workload.submission import SubmissionProcess, SubmissionSchedule
from .scale import ScenarioScale
from .scenario import Scenario
from .summary import RunSummary

__all__ = [
    "GridSetup",
    "NodeDraw",
    "RunResult",
    "assemble",
    "build_overlay",
    "derive_config",
    "draw_node",
    "make_node",
    "submission_schedule",
    "workload_generator",
]

#: Reused converged overlays, keyed by (size, overlay seed).  Building the
#: paper's 500-node bounded-APL overlay takes seconds; all scenarios of an
#: experiment share the same starting topology per seed, exactly like the
#: paper's fixed evaluation overlay.  Bounded LRU: sweeps over grid size
#: would otherwise accumulate one converged overlay per (size, seed)
#: forever.  Each worker process of the batch engine holds its own copy
#: (module state is never shared across the spawn boundary).
_OVERLAY_CACHE: "OrderedDict[Tuple[int, int], OverlayGraph]" = OrderedDict()
_OVERLAY_CACHE_SIZE = 8

#: Above this many nodes the grid switches to its large-scale build: the
#: BLATANT ant walk is replaced by a chordal ring (convergence is
#: O(nodes^2) — 67 s at 2 000 nodes and growing — while the ring builds
#: in O(nodes) at the paper's average degree 4, denser than the ≈ 2.8
#: this repo's BLATANT converges to, with a logarithmic diameter; both
#: measured in EXPERIMENTS.md), and REQUEST floods are capped in hops.
#: Every stock preset up to ``paper`` (500 nodes) sits below the
#: threshold, so their seeded runs are unchanged.
_LARGE_GRID_NODES = 2_000

#: REQUEST flood hop bound for grids above ``_LARGE_GRID_NODES``.  The
#: paper's ≤9 hops / fanout 4 (§IV-E) floods the *entire* 500-node
#: evaluation grid; applied unchanged to a 10k-node overlay the same
#: policy costs ~22 000 messages per REQUEST (measured on a degree-4
#: chordal ring) — per-job discovery overhead 40x the paper's, with no
#: added scheduling value.  Six hops bounds a flood at ~1 500 messages
#: reaching ~1 400 candidate nodes regardless of grid size — nearly 3x
#: the paper's whole grid — so discovery quality per job matches the
#: evaluation while total traffic stays proportional to jobs, not to
#: jobs x nodes.  Explicit ``config_overrides`` still win.
_LARGE_GRID_REQUEST_HOPS = 6


def _converged_overlay(size: int, seed: int) -> OverlayGraph:
    key = (size, seed)
    cached = _OVERLAY_CACHE.get(key)
    if cached is None:
        from ..overlay.blatant import build_blatant_overlay

        rng = random.Random(derive_seed(seed, "overlay.build"))
        cached = build_blatant_overlay(size, rng)
        _OVERLAY_CACHE[key] = cached
        while len(_OVERLAY_CACHE) > _OVERLAY_CACHE_SIZE:
            _OVERLAY_CACHE.popitem(last=False)
    else:
        _OVERLAY_CACHE.move_to_end(key)
    return cached.copy()


def build_overlay(kind: str, size: int, seed: int) -> OverlayGraph:
    """The scenario's overlay: BLATANT (default) or a static topology.

    Above :data:`_LARGE_GRID_NODES` the "converged BLATANT" starting
    point is stood in for by a chordal ring with the paper's average
    degree (4; the BLATANT built here converges at ≈ 2.8) and bounded
    path lengths, because running the ant walk to convergence is
    quadratic in the grid size.
    """
    if kind == "blatant":
        if size > _LARGE_GRID_NODES:
            from ..overlay.topologies import chordal_ring

            return chordal_ring(
                size, random.Random(derive_seed(seed, "overlay.build"))
            )
        return _converged_overlay(size, seed)
    from ..overlay.topologies import TOPOLOGY_BUILDERS

    builder = TOPOLOGY_BUILDERS.get(kind)
    if builder is None:
        raise ConfigurationError(
            f"unknown overlay {kind!r}; known: "
            f"['blatant'] + {sorted(TOPOLOGY_BUILDERS)}"
        )
    return builder(size, random.Random(derive_seed(seed, "overlay.build")))


def derive_config(
    scenario: Scenario,
    nodes: int,
    overrides: Optional[Mapping[str, object]] = None,
) -> AriaConfig:
    """The :class:`AriaConfig` every agent of the grid shares.

    Scenario knobs first, then the large-grid trims (see
    :data:`_LARGE_GRID_NODES`), then ``overrides`` — which therefore
    always win.
    """
    config = AriaConfig(
        rescheduling=scenario.rescheduling,
        inform_count=scenario.inform_count,
        improvement_threshold=scenario.improvement_threshold,
    )
    if nodes > _LARGE_GRID_NODES:
        config = dataclasses.replace(
            config,
            request_flood=FloodPolicy(
                max_hops=_LARGE_GRID_REQUEST_HOPS,
                fanout=config.request_flood.fanout,
            ),
        )
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


class NodeDraw(NamedTuple):
    """What the seed decides about one node (§IV-B, §IV-C)."""

    profile: NodeProfile
    performance_index: float
    policy: str


def draw_node(streams, policies: Sequence[str]) -> NodeDraw:
    """Draw the next node from the ``profiles`` and ``policies`` streams.

    The *order of calls* is the grid's identity: node ``k`` in graph
    order gets the ``k``-th draw, later joins continue the same streams.
    Golden summaries depend on it, and so does cross-process
    determinism — every ``--procs`` worker and the coordinator replay
    this exact sequence from the seed alone and must agree on everyone's
    profile without a wire round.  So a caller that does not keep a node
    still has to draw it.
    """
    profile_rng = streams.get("profiles")
    return NodeDraw(
        random_node_profile(profile_rng),
        random_performance_index(profile_rng),
        streams.get("policies").choice(policies),
    )


def make_node(
    node_id: NodeId,
    clock: Clock,
    policies: Sequence[str],
    accuracy: AccuracyModel,
) -> GridNode:
    """Draw and build the next :class:`GridNode` (see :func:`draw_node`)."""
    draw = draw_node(clock.streams, policies)
    return GridNode(
        node_id=node_id,
        sim=clock,
        profile=draw.profile,
        performance_index=draw.performance_index,
        scheduler=make_scheduler(draw.policy),
        accuracy=accuracy,
    )


def submission_schedule(
    scenario: Scenario, scale: ScenarioScale
) -> SubmissionSchedule:
    """The scenario's evenly spaced submissions, stretched to ``scale``."""
    return SubmissionSchedule(
        job_count=scale.jobs,
        interval=scenario.submission_interval * scale.interval_factor,
    )


def workload_generator(
    scenario: Scenario,
    rng: random.Random,
    profiles: Sequence[NodeProfile],
    ert_mean: Optional[float] = None,
) -> JobGenerator:
    """The scenario's §IV-D job generator.

    Requirement draws are redrawn until at least one of ``profiles``
    (the initial fleet) can host them.  ``ert_mean`` rescales the ERT
    distribution — live runs shrink it so a handful of jobs finishes
    within a compressed horizon.
    """
    return JobGenerator(
        rng,
        deadline_slack_mean=scenario.deadline_slack_mean,
        ert_distribution=(
            ERT_DISTRIBUTION
            if ert_mean is None
            else ERT_DISTRIBUTION.scaled_to_mean(ert_mean)
        ),
        requirements_ok=lambda req: any(
            profile.satisfies(req) for profile in profiles
        ),
        priority_levels=scenario.priority_levels,
        reservation_probability=scenario.reservation_probability,
        reservation_delay_mean=scenario.reservation_delay_mean,
    )


@dataclass
class RunResult:
    """Everything one run produced."""

    scenario: Scenario
    scale: ScenarioScale
    seed: int
    metrics: GridMetrics
    traffic: TrafficReport
    #: Sampled ``(time, completed jobs)`` series (Figure 1).
    completed_series: TimeSeries
    #: Sampled ``(time, idle node count)`` series (Figures 3, 5, 6).
    idle_series: TimeSeries
    #: Sampled ``(time, connected node count)`` series (Expanding).
    node_count_series: TimeSeries
    #: Submission window (first and last submission times).
    submission_window: Tuple[float, float]
    final_node_count: int
    executed_events: int
    #: Transport / reliability / fault counters captured at the horizon
    #: (see ``Transport.network_counters``).  All-zero in nominal runs.
    network: Dict[str, int] = dataclass_field(default_factory=dict)
    #: Invariant-checker findings (fault experiments); folded into
    #: ``RunSummary.violations`` next to the ``validate_run`` verdict.
    extra_violations: List[str] = dataclass_field(default_factory=list)
    #: Metrics-registry snapshot (only when the run carried a
    #: ``TraceConfig`` with ``telemetry=True``; empty otherwise).
    telemetry: Dict[str, float] = dataclass_field(default_factory=dict)
    #: The recorded trace events when the run traced into a memory sink
    #: (``TraceConfig(sink="memory")``); empty for file sinks — load
    #: those with :func:`repro.obs.load_trace`.
    trace_events: List[Dict[str, object]] = dataclass_field(
        default_factory=list
    )
    #: Merged fleet time series from the live telemetry collector
    #: (``{name: [(t, value), ...]}``); empty for simulated runs.
    fleet_series: Dict[str, List[Tuple[float, float]]] = dataclass_field(
        default_factory=dict
    )
    #: Whether a live run was cut short by SIGINT/SIGTERM (the soak
    #: graceful-shutdown path); always ``False`` for simulated runs.
    interrupted: bool = False

    def summary(self) -> RunSummary:
        """Condense this run into a picklable :class:`RunSummary`.

        This is the documented hand-off point between a live run (agents,
        simulator, per-job records) and everything downstream — figures,
        sweeps, comparisons, the batch engine and its on-disk cache all
        consume summaries.  The
        :func:`~repro.experiments.validation.validate_run` verdict is
        captured in :attr:`RunSummary.violations`, followed by any
        :attr:`extra_violations` from the invariant checker.

        Nonzero network counters surface as ``net_``-prefixed
        :attr:`RunSummary.extras` entries; zero counters are omitted so
        nominal summaries stay byte-identical to earlier versions.
        """
        from .validation import validate_run

        violations = list(validate_run(self))
        violations.extend(self.extra_violations)
        extras = {
            f"net_{key}": float(value)
            for key, value in self.network.items()
            if value
        }
        return RunSummary.from_metrics(
            kind="scenario",
            name=self.scenario.name,
            seed=self.seed,
            scale=dataclasses.asdict(self.scale),
            metrics=self.metrics,
            traffic=self.traffic,
            completed_series=self.completed_series,
            idle_series=self.idle_series,
            node_count_series=self.node_count_series,
            submission_window=self.submission_window,
            final_node_count=self.final_node_count,
            executed_events=self.executed_events,
            violations=violations,
            extras=extras,
            telemetry=self.telemetry,
            fleet=self.fleet_series,
        )


@dataclass
class GridSetup:
    """A fully wired grid: :func:`assemble` returns it with its agents
    started, :meth:`start_workload` adds submissions and samplers,
    :meth:`result` packages what the run produced.  Simulated grids
    (``build_grid``) come with the workload started: callers may inject
    extra events (node crashes, custom probes) before :meth:`run`.
    """

    scenario: Scenario
    scale: ScenarioScale
    seed: int
    #: The grid's clock — the :class:`~repro.sim.Simulator` of a
    #: simulated grid, a ``WallClock`` in the live drivers.
    sim: Clock
    metrics: GridMetrics
    transport: Transport
    graph: OverlayGraph
    nodes: List[GridNode]
    agents: List[AriaAgent]
    #: Draws, builds and starts a fresh node+agent under the given id
    #: and returns the agent (used by expansion, churn and live joins);
    #: the caller wires it into the overlay.
    add_node: Callable[[NodeId], AriaAgent]
    #: Shared per-run metrics registry (snapshotted into
    #: ``RunResult.telemetry`` when observability was requested).
    registry: MetricsRegistry
    #: Slab-backed aggregate node state; the samplers and the submission
    #: process read it.
    grid_state: GridState
    #: The run's :class:`~repro.obs.Tracer`; ``None`` unless tracing is on.
    tracer: Optional[Tracer] = None
    #: The :class:`~repro.obs.TraceConfig` the grid was built with.
    obs: Optional[TraceConfig] = None
    #: Set by :meth:`start_workload`.
    schedule: Optional[SubmissionSchedule] = None
    idle_sampler: Optional[PeriodicSampler] = None
    completed_sampler: Optional[PeriodicSampler] = None
    node_count_sampler: Optional[PeriodicSampler] = None
    _live: List[AriaAgent] = dataclass_field(default_factory=list, repr=False)
    _live_version: int = dataclass_field(default=-1, repr=False)

    def live_agents(self) -> List[AriaAgent]:
        """Agents still part of the grid (not crashed, not departed).

        The pool only changes on membership events (join, crash, restart,
        departure) — tracked by ``GridState.membership_version`` — so one
        list is reused between them instead of filtering all agents on
        every submission (O(nodes * jobs) at scale).
        """
        version = self.grid_state.membership_version
        if version != self._live_version:
            self._live = [
                agent
                for agent in self.agents
                if not agent.failed and not agent.departed
            ]
            self._live_version = version
        return self._live

    def start_workload(
        self,
        schedule: Optional[SubmissionSchedule] = None,
        ert_mean: Optional[float] = None,
    ) -> None:
        """Schedule the scenario's submissions and start the samplers.

        ``schedule`` defaults to :func:`submission_schedule`; the live
        driver passes its own (compressed) one together with
        ``ert_mean`` (see :func:`workload_generator`).
        """
        clock, state, metrics = self.sim, self.grid_state, self.metrics
        self.schedule = (
            schedule
            if schedule is not None
            else submission_schedule(self.scenario, self.scale)
        )
        SubmissionProcess(
            clock,
            agents=self.live_agents,
            generator=workload_generator(
                self.scenario,
                clock.streams.get("workload"),
                [node.profile for node in self.nodes],
                ert_mean,
            ),
            schedule=self.schedule,
            rng=clock.streams.get("submission"),
        )
        # Idle counts only consider live (non-crashed) nodes.  Both
        # counters are maintained incrementally by the GridState slab, so
        # a sampler tick is O(1) instead of a walk over every agent.
        interval = self.scale.sample_interval
        self.idle_sampler = PeriodicSampler(
            clock, lambda: state.idle_live_count, interval=interval, start=0.0
        )
        self.completed_sampler = PeriodicSampler(
            clock, lambda: metrics.completed_jobs, interval=interval, start=0.0
        )
        self.node_count_sampler = PeriodicSampler(
            clock, lambda: state.live_count, interval=interval, start=0.0
        )

    def result(self, **fields) -> RunResult:
        """Package the run so far; ``fields`` override or add
        :class:`RunResult` fields a driver knows better (a live run's
        invariant verdict, fleet series, interruption flag)."""
        packaged = dict(
            scenario=self.scenario,
            scale=self.scale,
            seed=self.seed,
            metrics=self.metrics,
            traffic=self.transport.monitor.report(
                node_count=len(self.nodes), duration=self.scale.duration
            ),
            completed_series=list(self.completed_sampler.samples),
            idle_series=list(self.idle_sampler.samples),
            node_count_series=list(self.node_count_sampler.samples),
            submission_window=(self.schedule.times()[0], self.schedule.end),
            final_node_count=len(self.nodes),
            executed_events=self.sim.executed_events,
            network=self.transport.network_counters(),
        )
        if self.obs is not None and self.obs.telemetry:
            packaged["telemetry"] = self.registry.snapshot()
        packaged.update(fields)
        return RunResult(**packaged)

    def run(self) -> RunResult:
        """Simulate to the configured horizon and collect the results.

        Closes the tracer (flushing its sink) even when the simulation
        fails, so a partial trace is still readable for post-mortems.

        Large grids are frozen out of the cyclic collector for the
        duration of the run: the built grid is millions of long-lived
        objects the collector re-scans on every full pass without ever
        finding a collectable cycle (per-event garbage is acyclic and
        dies by refcount).  ``gc.freeze`` moves the built graph to the
        permanent generation so those passes stay cheap (``build_grid``
        ended on a full collection, so it is not garbage that freezes);
        ``unfreeze`` in the ``finally`` hands them back to the collector.
        Reclaiming the grid is not the collector's job: :meth:`close`
        breaks its cycles and reference counting frees it.  GC never
        changes simulated outcomes — it only reclaims unreachable
        objects — and the gate keeps golden-scale runs entirely untouched.
        """
        freeze = self.scale.nodes > _LARGE_GRID_NODES
        if freeze:
            gc.freeze()
        try:
            self.sim.run_until(self.scale.duration)
        finally:
            if freeze:
                gc.unfreeze()
            if self.tracer is not None:
                self.tracer.close()
        if self.tracer is not None and self.obs.sink == "memory":
            return self.result(trace_events=self.tracer.events)
        return self.result()

    def close(self) -> None:
        """End a simulated grid's life: break every reference cycle the
        run built, so the grid is freed by reference counting as soon as
        its last outside reference goes, not at some later full
        collection.  Cancels the pending events and stops the
        recurrences (:meth:`Simulator.close
        <repro.sim.Simulator.close>`), unregisters every handler and
        detaches the reliability and fault layers
        (:meth:`SimTransport.close <repro.net.SimTransport.close>`) and
        drops the nodes' job callbacks.  The :class:`RunResult` already
        taken stays valid; the grid cannot run any further.  Calling it
        twice is a no-op.  Live drivers keep their own shutdown.
        """
        self.sim.close()
        self.transport.close()
        for node in self.nodes:
            node.close()


def assemble(
    scenario: Scenario,
    scale: ScenarioScale,
    clock: Clock,
    transport: Transport,
    graph: OverlayGraph,
    config_overrides: Optional[Mapping[str, object]] = None,
    obs: Optional[TraceConfig] = None,
    tracer: Optional[Tracer] = None,
    own: Optional[Collection[NodeId]] = None,
    journals: Optional[Mapping[NodeId, object]] = None,
) -> GridSetup:
    """Populate ``graph`` with started ARiA agents on ``(clock, transport)``.

    ``config_overrides`` patches the derived :class:`AriaConfig` (e.g.
    ``{"failsafe": True}``) for *every* agent, including nodes that join
    later through :attr:`GridSetup.add_node` — a grid must never mix
    protocol configurations.

    ``tracer`` is attached to exactly the components its level covers
    (agents at ``protocol``, + transport at ``transport``; a reliability
    layer copies it from the transport, so create that afterwards).
    Without one every instrumentation point stays an ``is None`` check.

    ``own`` and ``journals`` are what a ``--procs`` worker adds: it
    builds only the nodes in ``own`` (still drawing the others, see
    :func:`draw_node`) and binds each agent to its
    :class:`~repro.core.journal.DurableJournal` before it starts.
    """
    metrics = GridMetrics(transport.registry)
    agent_tracer: Optional[Tracer] = None
    if tracer is not None:
        if tracer.wants_level("protocol"):
            agent_tracer = tracer
        if tracer.wants_level("transport"):
            transport._trace = tracer
    config = derive_config(scenario, scale.nodes, config_overrides)
    accuracy = AccuracyModel(
        epsilon=scenario.epsilon, optimistic_only=scenario.optimistic_only
    )
    nodes: List[GridNode] = []
    agents: List[AriaAgent] = []
    state = GridState()

    def add_node(node_id: NodeId) -> AriaAgent:
        node = make_node(node_id, clock, scenario.policies, accuracy)
        agent = AriaAgent(
            node,
            transport,
            graph,
            config,
            metrics,
            # A sliced fleet gives every node its own stream: each worker
            # process holds a private copy of the shared "aria" stream,
            # so sibling workers would replay one another's protocol
            # phases instead of decorrelating.
            rng=(
                clock.streams.get(f"aria.{node_id}")
                if own is not None
                else None
            ),
            tracer=agent_tracer,
        )
        state.register(node_id)
        node.bind_state(state)
        agent.grid_state = state
        if journals is not None:
            agent.bind_journal(journals[node_id])
        agent.start()
        nodes.append(node)
        agents.append(agent)
        return agent

    for node_id in graph.nodes():
        if own is None or node_id in own:
            add_node(node_id)
        else:
            draw_node(clock.streams, scenario.policies)

    return GridSetup(
        scenario=scenario,
        scale=scale,
        seed=clock.streams.master_seed,
        sim=clock,
        metrics=metrics,
        transport=transport,
        graph=graph,
        nodes=nodes,
        agents=agents,
        add_node=add_node,
        registry=transport.registry,
        grid_state=state,
        tracer=tracer,
        obs=obs,
    )
