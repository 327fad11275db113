"""Boot a live localhost overlay and run a paper scenario against it.

:func:`run_live` is the live counterpart of
:func:`repro.experiments.runner.build_grid` + ``GridSetup.run``: a driver
over the same :func:`~repro.experiments.assembly.assemble` — same
agents, schedulers, cost model, workload generator, metrics, samplers
and tracer — on the two live seams (a :class:`~repro.runtime.WallClock`
instead of the simulator, a :class:`~repro.runtime.LiveTransport`
instead of the simulated one).  It lets real wall time pass and returns
the same :class:`~repro.experiments.runner.RunResult`, so ``.summary()``,
validation, the invariant checker and every downstream consumer work
unchanged.

Chaos rides the same seams.  A :class:`~repro.experiments.faults.FaultPlan`
on the config attaches a :class:`~repro.net.faults.FaultInjector` to the
live transport (bursts, duplication and partitions shaping real HTTP
traffic) and injects ``FaultPlan`` delay spikes by delaying the
background POST tasks.  A :class:`LiveFailureSchedule` drives the node
lifecycle over real sockets: crash-restart tears an endpoint down and
brings the node back after downtime under a fresh incarnation
(re-discovered from its new agent card), joins start brand-new endpoints
mid-run, and leaves walk the graceful-departure path before the endpoint
is retired.  An :class:`~repro.experiments.OnlineInvariantChecker` can be
teed into the trace stream to check invariants *while* the run is live —
the run stops early on the first confirmed violation, which is what the
``repro soak`` CLI mode builds on.

Timing: everything protocol-side stays in protocol seconds; the
``time_scale`` compression maps them onto wall time (see
:mod:`repro.runtime.clock`).  The defaults compress a ~2.5-hour protocol
scenario into ~30 wall seconds while keeping every wall-clock window an
HTTP round-trip must fit (the ACCEPT collection window, reliability ack
timeouts) hundreds of times wider than a localhost round-trip; the
knobs that make that true (``accept_wait``, the ack timeout derived from
``time_scale``, ``ert_mean``) are explained on
:class:`~repro.runtime.driver.WireRunConfig`.

The :class:`LiveFailureSchedule` is deliberately expressed in *wall*
seconds: it narrates what an operator does to real machines ("kill node
3 ten seconds in, bring it back five seconds later"), independent of the
protocol-time compression in force.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..net.reliability import ReliabilityLayer
from ..obs.trace import MemorySink, TraceConfig, Tracer
from ..overlay.blatant import BlatantMaintainer
from ..types import NodeId
from ..experiments.assembly import RunResult, assemble, build_overlay
from ..experiments.catalog import get_scenario
from ..experiments.invariants import check_invariants
from ..experiments.invariants_online import OnlineInvariantChecker
from .clock import WallClock
from .driver import (
    FORGE_JOB_ID,
    WireRunConfig,
    start_collector,
    stop_on_signal,
    wait_out,
)

__all__ = ["LiveFailureSchedule", "LiveRunConfig", "run_live"]


@dataclass(frozen=True)
class LiveFailureSchedule:
    """When real node-lifecycle chaos happens, in *wall* seconds.

    ``crash_restarts`` holds ``(at, downtime, victim_index)`` triples:
    at wall second ``at`` the victim's endpoint is torn down and the
    agent crashes; after ``downtime`` wall seconds it comes back under a
    fresh incarnation on a brand-new port, is re-discovered from its
    agent card and rejoins the overlay.  ``joins`` holds wall seconds at
    which a brand-new node (fresh id, fresh endpoint) enters the grid
    mid-run.  ``leaves`` holds ``(at, victim_index)`` pairs starting a
    graceful departure; once the victim has departed its endpoint is
    retired for good.  Victim indexes address the initial agent list
    (wrapped modulo its length, so schedules compose with any node
    count).
    """

    crash_restarts: Tuple[Tuple[float, float, int], ...] = ()
    joins: Tuple[float, ...] = ()
    leaves: Tuple[Tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        # Normalise (JSON round trips turn the tuples into lists).
        object.__setattr__(
            self,
            "crash_restarts",
            tuple(
                (float(at), float(downtime), int(victim))
                for at, downtime, victim in self.crash_restarts
            ),
        )
        object.__setattr__(
            self, "joins", tuple(float(at) for at in self.joins)
        )
        object.__setattr__(
            self,
            "leaves",
            tuple((float(at), int(victim)) for at, victim in self.leaves),
        )
        for at, downtime, victim in self.crash_restarts:
            if at < 0 or downtime <= 0:
                raise ConfigurationError(
                    f"invalid crash-restart (at={at}, downtime={downtime})"
                )
            if victim < 0:
                raise ConfigurationError(f"negative victim index {victim}")
        for at in self.joins:
            if at < 0:
                raise ConfigurationError(f"negative join time {at}")
        for at, victim in self.leaves:
            if at < 0:
                raise ConfigurationError(f"negative leave time {at}")
            if victim < 0:
                raise ConfigurationError(f"negative victim index {victim}")

    def __bool__(self) -> bool:
        """Whether the schedule contains any lifecycle event at all."""
        return bool(self.crash_restarts or self.joins or self.leaves)

    @classmethod
    def chaos(cls, wall_duration: float) -> "LiveFailureSchedule":
        """A representative lifecycle plan for a run of ``wall_duration``
        wall seconds: one crash-restart a quarter in (down for ~15% of
        the run), one brand-new join at 40%, one graceful leave at 60%.
        """
        if wall_duration <= 0:
            raise ConfigurationError(
                f"non-positive wall_duration {wall_duration}"
            )
        return cls(
            crash_restarts=(
                (0.25 * wall_duration, 0.15 * wall_duration, 1),
            ),
            joins=(0.4 * wall_duration,),
            leaves=((0.6 * wall_duration, 2),),
        )


@dataclass(frozen=True)
class LiveRunConfig(WireRunConfig):
    """One live overlay run: scenario, size, time compression, chaos.

    With ``port_base`` set, restarted and mid-run-joined nodes still bind
    ephemeral ports — a crash-restart landing on a new port is part of
    what re-discovery must handle.
    """

    _schedule_type = LiveFailureSchedule


def run_live(
    config: Optional[LiveRunConfig] = None,
    obs: Optional[TraceConfig] = None,
    online_checker: Optional[OnlineInvariantChecker] = None,
    seed_violation: bool = False,
) -> RunResult:
    """Run one live scenario to completion and collect the results.

    Synchronous entry point (owns the event loop); the run's invariant
    verdict lands in ``RunResult.extra_violations`` so ``.summary()``
    folds it into ``RunSummary.violations`` like any simulated run.

    ``online_checker`` tees the trace stream through an
    :class:`~repro.experiments.OnlineInvariantChecker`; the run stops at
    the first violation it confirms, and its findings are prepended to
    the post-run verdict.  ``seed_violation`` deliberately forges a
    duplicate ``job.finished`` mid-run — the soak harness's self-test
    that the online checker actually fires.
    """
    config = config if config is not None else LiveRunConfig()
    return asyncio.run(
        _run_live(config, obs, online_checker, seed_violation)
    )


async def _run_live(
    config: LiveRunConfig,
    obs: Optional[TraceConfig],
    online_checker: Optional[OnlineInvariantChecker] = None,
    seed_violation: bool = False,
) -> RunResult:
    loop = asyncio.get_running_loop()
    clock = WallClock(loop, seed=config.seed, time_scale=config.time_scale)
    scenario = get_scenario(config.scenario_name)
    schedule_plan = config.failure_schedule

    transport = config.open_transport(clock)
    if schedule_plan is not None and schedule_plan.crash_restarts:
        # Armed before any message flies, so in-flight traffic around the
        # first crash already carries incarnation stamps.
        transport.enable_incarnations()

    tracer: Optional[Tracer] = None
    recorder = None
    if obs is not None and obs.level != "off":
        sink = recorder = obs.make_sink()
        if online_checker is not None:
            online_checker.sink = sink
            sink = online_checker
        tracer = Tracer(obs, sink=sink)
        # Live events additionally carry the real wall clock, so
        # ``repro explain-job`` can narrate operator time next to
        # protocol time.
        tracer.wall_source = time.time
    elif online_checker is not None:
        # No recording requested: trace purely to feed the checker (its
        # downstream sink stays None, so events are checked and dropped).
        tracer = Tracer(
            TraceConfig(level="transport", sink="memory"),
            sink=online_checker,
        )

    # One HTTP endpoint per node, then card-driven discovery builds the
    # address directory over the wire before any agent exists.
    graph = build_overlay(scenario.overlay, config.nodes, config.seed)
    for index, node_id in enumerate(graph.nodes()):
        port = 0 if config.port_base is None else config.port_base + index
        await transport.add_endpoint(node_id, host=config.host, port=port)
    await transport.discover()

    setup = assemble(
        scenario,
        config.scale(),
        clock,
        transport,
        graph,
        config.config_overrides(),
        obs,
        tracer,
    )
    metrics, agents = setup.metrics, setup.agents
    if config.reliability:
        ReliabilityLayer(transport, config.reliability_config())
    transport.set_metrics_provider(
        lambda: {
            "jobs.missed_deadlines": float(metrics.missed_deadline_count())
        }
    )
    for agent in agents:
        transport.set_health_provider(agent.node_id, agent.health_snapshot)
    setup.start_workload(config.submission_schedule(), config.ert_mean)

    collector, collector_task = start_collector(
        config,
        setup.registry,
        targets=lambda: dict(transport._directory),
        now=lambda: clock.now,
    )

    # ------------------------------------------------------------------
    # Lifecycle chaos: crash-restart / join / leave over real sockets.
    # ------------------------------------------------------------------
    chaos_tasks: List[asyncio.Task] = []
    if schedule_plan is not None and schedule_plan:
        maintainer = BlatantMaintainer(
            graph, clock.streams.get("failures.overlay")
        )
        maintainer.start(clock)
        next_join_id = max(graph.nodes()) + 1

        async def _crash_restart(
            at: float, downtime: float, victim: int
        ) -> None:
            await asyncio.sleep(at)
            agent = agents[victim % len(agents)]
            if agent.failed or agent.departed:
                return
            agent.fail()
            await transport.remove_endpoint(agent.node_id)
            await asyncio.sleep(downtime)
            host, port = await transport.add_endpoint(
                agent.node_id, host=config.host
            )
            # Rejoin mirrors the simulator's churn path: re-discovery
            # from the fresh card, overlay bootstrap links, then the
            # agent restarts under its new incarnation.
            await transport.discover([(host, port)])
            maintainer.join(agent.node_id)
            agent.restart()
            transport.set_health_provider(
                agent.node_id, agent.health_snapshot
            )

        async def _join(at: float, node_id: NodeId) -> None:
            await asyncio.sleep(at)
            host, port = await transport.add_endpoint(
                node_id, host=config.host
            )
            maintainer.join(node_id)
            await transport.discover([(host, port)])
            agent = setup.add_node(node_id)
            transport.set_health_provider(node_id, agent.health_snapshot)

        async def _leave(at: float, victim: int) -> None:
            await asyncio.sleep(at)
            agent = agents[victim % len(agents)]
            if agent.failed or agent.departed or agent.leaving:
                return
            agent.leave()
            while not agent.departed:
                if agent.failed:
                    return
                await asyncio.sleep(0.05)
            await transport.remove_endpoint(agent.node_id, forget=True)

        for at, downtime, victim in schedule_plan.crash_restarts:
            chaos_tasks.append(
                loop.create_task(_crash_restart(at, downtime, victim))
            )
        for at in schedule_plan.joins:
            chaos_tasks.append(loop.create_task(_join(at, next_join_id)))
            next_join_id += 1
        for at, victim in schedule_plan.leaves:
            chaos_tasks.append(loop.create_task(_leave(at, victim)))

    if seed_violation and tracer is not None:

        async def _forge_duplicate() -> None:
            await asyncio.sleep(0.3 * config.wall_duration())
            # Two completions of one (bogus) job id: the exact signature
            # the double-execution check must fire on.
            tracer.emit("job.finished", clock.now, job=FORGE_JOB_ID, node=0)
            tracer.emit("job.finished", clock.now, job=FORGE_JOB_ID, node=1)

        chaos_tasks.append(loop.create_task(_forge_duplicate()))

    try:
        with stop_on_signal() as stop_event:
            await wait_out(
                config,
                stop_event,
                settled=lambda: (
                    metrics.completed_jobs >= config.jobs
                    and not transport._in_flight
                    and all(task.done() for task in chaos_tasks)
                ),
                # Stop on the first confirmed violation.
                abort=lambda: bool(
                    online_checker is not None and online_checker.violations
                ),
            )
            clock.stop()
            await transport.drain()
    finally:
        if collector_task is not None:
            collector_task.cancel()
            await asyncio.gather(collector_task, return_exceptions=True)
        for task in chaos_tasks:
            task.cancel()
        await asyncio.gather(*chaos_tasks, return_exceptions=True)
        await transport.close()
        if tracer is not None:
            tracer.close()
    # Job-conservation checks are relaxed for interrupted runs (in-flight
    # jobs never got their chance to finish).
    interrupted = stop_event.is_set()

    allow_lost = bool(schedule_plan is not None and schedule_plan.crash_restarts)
    violations = check_invariants(
        setup,
        expected_jobs=None if interrupted else config.jobs,
        allow_lost=allow_lost or interrupted,
    )
    if online_checker is not None:
        violations = list(online_checker.violations) + violations
    return setup.result(
        final_node_count=setup.grid_state.live_count,
        extra_violations=violations,
        trace_events=(
            recorder.events if isinstance(recorder, MemorySink) else []
        ),
        fleet_series=(
            collector.series_points() if collector is not None else {}
        ),
        interrupted=interrupted,
    )
