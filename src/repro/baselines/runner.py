"""Run the comparison meta-schedulers on the standard workload.

Builds the same heterogeneous node pool and §IV-D workload as the ARiA
scenario runner, but drives one of the baseline schedulers instead of the
distributed protocol, so baseline and ARiA numbers are directly comparable
(same seeds → same node profiles and jobs).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..grid.performance import AccuracyModel
from ..metrics.collector import GridMetrics
from ..net.traffic import TrafficReport
from ..scheduling.base import DEADLINE
from ..scheduling.registry import make_scheduler
from ..sim import Simulator
from ..workload.submission import SubmissionProcess
from .centralized import CentralizedMetaScheduler
from .multirequest import MultiRequestScheduler
from .randomassign import RandomAssignScheduler

__all__ = ["BaselineRunResult", "BASELINE_NAMES"]

BASELINE_NAMES = ("centralized", "multirequest", "random", "gossip")


@dataclass
class BaselineRunResult:
    """Outcome of one baseline run."""

    baseline: str
    seed: int
    metrics: GridMetrics
    traffic: TrafficReport
    #: Duplicate queue entries cancelled (multirequest only, else 0).
    revoked_copies: int
    #: The :class:`~repro.experiments.scale.ScenarioScale` of the run.
    scale: object = None
    executed_events: int = 0

    def summary(self):
        """Condense this run into a picklable
        :class:`~repro.experiments.summary.RunSummary` (the unified
        hand-off consumed by the batch engine and its cache)."""
        import dataclasses

        from ..experiments.summary import RunSummary

        return RunSummary.from_metrics(
            kind="baseline",
            name=self.baseline,
            seed=self.seed,
            scale=dataclasses.asdict(self.scale) if self.scale else {},
            metrics=self.metrics,
            traffic=self.traffic,
            final_node_count=self.traffic.node_count,
            executed_events=self.executed_events,
            extras={"revoked_copies": float(self.revoked_copies)},
        )


def _run_baseline(
    baseline: str,
    scale=None,
    seed: int = 0,
    policies=("FCFS", "SJF"),
    submission_interval: float = 10.0,
    multirequest_k: int = 3,
) -> BaselineRunResult:
    """Simulate one baseline run mirroring the Mixed workload setup."""
    from ..experiments import assembly
    from ..experiments.scale import ScenarioScale
    from ..experiments.scenario import Scenario

    scale = scale if scale is not None else ScenarioScale.paper()
    if baseline not in BASELINE_NAMES:
        raise ConfigurationError(
            f"unknown baseline {baseline!r}; known: {BASELINE_NAMES}"
        )
    # The baselines' workload is Mixed's, batch jobs only: a deadline
    # scheduler could host none of them (GridNode.can_host).
    for policy in policies:
        if make_scheduler(policy).kind == DEADLINE:
            raise ConfigurationError(
                f"baseline {baseline!r} cannot run policy {policy!r}: it is "
                "a deadline scheduler and baseline workloads are batch-only"
            )
    # Every field left at its default is the Mixed scenario's value, so
    # the shared assembly draws the node pool and workload an ARiA run
    # with the same seed gets.
    scenario = Scenario(
        name=baseline,
        description="baseline",
        policies=tuple(policies),
        submission_interval=submission_interval,
    )
    sim = Simulator(seed=seed)
    metrics = GridMetrics()
    accuracy = AccuracyModel(epsilon=scenario.epsilon)
    nodes = [
        assembly.make_node(node_id, sim, scenario.policies, accuracy)
        for node_id in range(scale.nodes)
    ]

    if baseline == "gossip":
        # The gossip baseline is itself decentralized: one agent per
        # node, random initiators, a real overlay and transport
        # underneath.
        from ..net.transport import SimTransport
        from .gossip import GossipAgent, GossipConfig

        transport = SimTransport(sim)
        graph = assembly.build_overlay("blatant", scale.nodes, seed)
        config = GossipConfig()
        targets = [
            GossipAgent(node, transport, graph, config, metrics)
            for node in nodes
        ]
        for agent in targets:
            agent.start()
        scheduler, monitor = None, transport.monitor
    else:
        if baseline == "centralized":
            scheduler = CentralizedMetaScheduler(nodes, metrics)
        elif baseline == "multirequest":
            scheduler = MultiRequestScheduler(nodes, metrics, k=multirequest_k)
        else:
            scheduler = RandomAssignScheduler(
                nodes, metrics, rng=sim.streams.get("baseline.random")
            )
        targets, monitor = [scheduler], scheduler.monitor

    SubmissionProcess(
        sim,
        agents=lambda: targets,
        generator=assembly.workload_generator(
            scenario,
            sim.streams.get("workload"),
            [node.profile for node in nodes],
        ),
        schedule=assembly.submission_schedule(scenario, scale),
        rng=sim.streams.get("submission"),
    )
    sim.run_until(scale.duration)
    result = BaselineRunResult(
        baseline=baseline,
        seed=seed,
        metrics=metrics,
        traffic=monitor.report(
            node_count=scale.nodes, duration=scale.duration
        ),
        revoked_copies=getattr(scheduler, "revoked_copies", 0),
        scale=scale,
        executed_events=sim.executed_events,
    )
    # The end of life ``GridSetup.close`` gives an ARiA grid: no cycle
    # outlives the run, so reference counting frees it on return.
    sim.close()
    if baseline == "gossip":
        transport.close()
    for node in nodes:
        node.close()
    return result
