"""Scenario runner: the simulator's driver over the shared grid assembly.

A run assembles every substrate exactly as the paper's evaluation does
(§IV) — that recipe lives in :mod:`repro.experiments.assembly`; this
module supplies the :class:`~repro.sim.Simulator`, a latency-realistic
:class:`~repro.net.SimTransport` and the Expanding scenarios' scheduled
joins.  Ten-run experiments use seeds ``base .. base+9``, matching the
paper's replication count.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..net.transport import SimTransport
from ..obs.trace import TraceConfig, Tracer
from ..overlay.blatant import BlatantConfig, BlatantMaintainer
from ..overlay.graph import OverlayGraph
from ..sim import Simulator
from ..types import NodeId
from .assembly import GridSetup, RunResult, assemble, build_overlay
from .scale import ScenarioScale
from .scenario import Scenario

__all__ = ["GridSetup", "RunResult", "build_grid"]


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
    return setup


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
    maintainer = BlatantMaintainer(
        graph,
        sim.streams.get("overlay.online"),
        BlatantConfig(),
    )
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
