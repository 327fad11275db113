"""Shared builders for protocol tests: a tiny hand-wired grid."""

import pytest

from repro.core import AriaAgent, AriaConfig
from repro.grid import AccuracyModel, GridNode
from repro.metrics import GridMetrics
from repro.net import ConstantLatency, SimTransport
from repro.overlay import OverlayGraph
from repro.scheduling import make_scheduler
from repro.sim import Simulator
from repro.types import MINUTE

from ..helpers import LINUX_AMD64


class MiniGrid:
    """A small fully wired ARiA grid for protocol tests."""

    def __init__(self, policies, config=None, profiles=None, indices=None,
                 topology="mesh", latency=0.01, seed=0):
        self.sim = Simulator(seed=seed)
        self.transport = SimTransport(self.sim, latency=ConstantLatency(latency))
        self.metrics = GridMetrics()
        self.graph = OverlayGraph()
        self.config = config if config is not None else AriaConfig()
        self.nodes = []
        self.agents = []
        n = len(policies)
        for i in range(n):
            self.graph.add_node(i)
        if topology == "mesh":
            for i in range(n):
                for j in range(i + 1, n):
                    self.graph.add_link(i, j)
        elif topology == "ring":
            for i in range(n):
                if n > 1:
                    self.graph.add_link(i, (i + 1) % n)
        for i, policy in enumerate(policies):
            node = GridNode(
                node_id=i,
                sim=self.sim,
                profile=(profiles[i] if profiles else LINUX_AMD64),
                performance_index=(indices[i] if indices else 1.0),
                scheduler=make_scheduler(policy),
                accuracy=AccuracyModel(epsilon=0.0),
            )
            agent = AriaAgent(
                node, self.transport, self.graph, self.config, self.metrics
            )
            agent.start()
            self.nodes.append(node)
            self.agents.append(agent)

    def record(self, job_id):
        return self.metrics.records[job_id]


def failsafe_config(**overrides):
    """Fail-safe on, rescheduling off, a short probe cadence for tests."""
    defaults = dict(
        rescheduling=False,
        failsafe=True,
        probe_interval=2 * MINUTE,
        probe_timeout=10.0,
    )
    defaults.update(overrides)
    return AriaConfig(**defaults)


@pytest.fixture
def mini_grid():
    return MiniGrid
