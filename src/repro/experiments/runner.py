"""Scenario runner: the simulator's driver over the shared grid assembly.

A run assembles every substrate exactly as the paper's evaluation does
(§IV) — that recipe lives in :mod:`repro.experiments.assembly`; this
module supplies the :class:`~repro.sim.Simulator`, a latency-realistic
:class:`~repro.net.SimTransport` and the Expanding scenarios' scheduled
joins.  Ten-run experiments use seeds ``base .. base+9``, matching the
paper's replication count.

:func:`run_grid` is the one path every simulated run takes, plain or
perturbed: a :class:`~repro.experiments.failures.FailureModel`, a
:class:`~repro.experiments.churn.ChurnPlan` and a
:class:`~repro.experiments.faults.FaultPlan` each schedule their own
events on the built grid, in any combination.
"""

from __future__ import annotations

import dataclasses
import gc
from typing import Callable, Dict, Optional

from ..net.reliability import ReliabilityLayer
from ..net.transport import SimTransport
from ..obs.trace import TraceConfig, Tracer
from ..overlay.blatant import BlatantMaintainer
from ..overlay.graph import OverlayGraph
from ..sim import Simulator
from ..types import MINUTE, NodeId
from .assembly import (
    _LARGE_GRID_NODES,
    GridSetup,
    RunResult,
    assemble,
    build_overlay,
)
from .churn import ChurnPlan
from .failures import FailureModel
from .faults import FaultPlan, apply_fault_plan
from .scale import ScenarioScale
from .scenario import Scenario

__all__ = ["GridSetup", "RunResult", "build_grid", "run_grid"]


def build_grid(
    scenario: Scenario,
    scale: Optional[ScenarioScale] = None,
    seed: int = 0,
    config_overrides: Optional[Dict[str, object]] = None,
    obs: Optional[TraceConfig] = None,
) -> GridSetup:
    """Assemble (but do not run) one complete simulated scenario grid.

    ``config_overrides`` and ``obs`` are those of
    :func:`~repro.experiments.assembly.assemble`; the tracer built from
    ``obs`` additionally covers the kernel dispatch loop at level
    ``kernel``.
    """
    scale = scale if scale is not None else ScenarioScale.paper()
    sim = Simulator(seed=seed)
    transport = SimTransport(sim, loss_probability=scenario.message_loss)
    tracer: Optional[Tracer] = None
    if obs is not None and obs.level != "off":
        tracer = Tracer(obs)
        if tracer.wants_level("kernel"):
            sim._trace = tracer
    setup = assemble(
        scenario,
        scale,
        sim,
        transport,
        build_overlay(scenario.overlay, scale.nodes, seed),
        config_overrides,
        obs,
        tracer,
    )
    # Joins are scheduled before the workload: events at one instant run
    # in scheduling order, so a submission falling on a join instant can
    # pick the new node — the order golden summaries were recorded with.
    if scenario.expanding:
        _schedule_expansion(sim, setup.graph, scale, setup.add_node)
    setup.start_workload()
    if scale.nodes > _LARGE_GRID_NODES:
        # The full collection ``GridSetup.run`` freezes the survivors of.
        # It ends the build rather than starts the run so that CPython's
        # automatic one (every ~84 000 net container allocations; a
        # 2 500-node build makes 77-85 thousand) cannot fall just after
        # the build instead of inside it when a node loses a few objects
        # — into whatever steps the simulator ahead of ``run``.
        gc.collect()
    return setup


def run_grid(
    scenario: Scenario,
    scale: Optional[ScenarioScale] = None,
    seed: int = 0,
    *,
    suffix: str = "",
    config_overrides: Optional[Dict[str, object]] = None,
    failsafe: bool = False,
    adoption: bool = False,
    reliability: bool = False,
    probe_interval: float = 10 * MINUTE,
    deadline_slack: float = 0.0,
    failures: Optional[FailureModel] = None,
    churn: Optional[ChurnPlan] = None,
    faults: Optional[FaultPlan] = None,
    check: bool = False,
    obs: Optional[TraceConfig] = None,
) -> RunResult:
    """One simulated run of ``scenario`` (renamed ``name + suffix``).

    ``failsafe`` turns on §III-D tracking/probing (with ``probe_timeout``
    raised to 120 s whenever the network can also misbehave, i.e. when a
    reliability layer or fault plan is present, so a partition's
    retransmission backlog cannot fake a probe miss — see
    ``docs/FAULTS.md``); ``adoption`` adds the initiator-crash orphan
    recovery; ``deadline_slack > 0`` arms the straggler defense;
    ``reliability`` gives the control plane at-least-once delivery.  Each
    plan that is present schedules its own events on the built grid.
    With ``check=True`` the oracle also judges the rules that need the
    horizon (:meth:`Oracle.close <repro.metrics.Oracle.close>`: stranded
    jobs, double holds, conservation, quiescence) into the same violation
    list — crash-lost records are tolerated when ``failures`` crashes
    nodes.  The grid is closed
    (:meth:`GridSetup.close`) before the result is returned, so it is
    freed the moment this function returns.
    """
    scenario = dataclasses.replace(scenario, name=f"{scenario.name}{suffix}")
    overrides = dict(config_overrides or {})
    if failsafe:
        overrides.update(failsafe=True, probe_interval=probe_interval)
        if reliability or faults is not None:
            overrides["probe_timeout"] = 120.0
        if adoption:
            overrides["adoption"] = True
    if deadline_slack > 0.0:
        overrides["exec_deadline_slack"] = deadline_slack
    setup = build_grid(scenario, scale, seed, overrides, obs)

    if failures is not None:
        failures.schedule(setup)
    if churn is not None:
        churn.schedule(setup)
    if faults is not None:
        apply_fault_plan(setup.transport, faults)
    if reliability:
        ReliabilityLayer(setup.transport)

    result = setup.run()
    if check:
        # Recovery machinery needs bounded time: resubmission takes two
        # probe rounds, adoption waits ``adoption_windows`` more, plus
        # the retransmission give-up horizon.
        if failsafe:
            windows = 2 + (setup.agents[0].config.adoption_windows
                           if adoption else 0)
            settle = windows * probe_interval + 600.0
        else:
            settle = 1800.0
        setup.metrics.oracle.close(
            setup,
            expected_jobs=setup.scale.jobs,
            allow_lost=failures is not None
            and (failures.crash_fraction > 0.0 or failures.restart_fraction > 0.0),
            settle=settle,
        )
    setup.close()
    return result


def _schedule_expansion(
    sim: Simulator,
    graph: OverlayGraph,
    scale: ScenarioScale,
    add_node: Callable[[NodeId], object],
) -> None:
    """Grow the overlay during the run (the Expanding scenarios, §IV-E).

    New nodes join through the BLATANT maintainer (a couple of random
    bootstrap links), and the online ant activity re-optimizes the topology
    while the grid grows.  Maintenance stops shortly after the expansion
    window since a converged static overlay has nothing left to optimize.
    """
    maintainer = BlatantMaintainer(graph, sim.streams.get("overlay.online"))
    extra = scale.expanding_extra_nodes
    window = scale.expanding_end - scale.expanding_start
    join_interval = window / extra
    base_id = max(graph.nodes()) + 1

    def join(index: int) -> None:
        node_id = NodeId(base_id + index)
        maintainer.join(node_id)
        add_node(node_id)

    for index in range(extra):
        sim.call_at(scale.expanding_start + index * join_interval, join, index)

    stop = maintainer.start(sim)
    sim.call_at(
        min(scale.expanding_end + 0.2 * scale.duration, scale.duration), stop
    )
