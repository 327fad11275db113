"""Continuous churn experiments (beyond the paper's evaluation).

The paper motivates ARiA with "very large sets of highly volatile and
heterogeneous resources" (§I) but evaluates only a one-shot expansion.
This module simulates sustained churn: throughout a window, nodes keep
*joining* (fresh resources, integrated by the BLATANT ants), *leaving
gracefully* (handing their queues off), and optionally *crashing*
(recovered by the fail-safe extension when enabled).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..overlay.blatant import BlatantMaintainer
from ..types import MINUTE, NodeId

if TYPE_CHECKING:
    from .assembly import GridSetup

__all__ = ["ChurnPlan"]


@dataclass(frozen=True)
class ChurnPlan:
    """Shape of the churn.

    Every ``interval`` seconds inside ``[start, end]`` one churn event
    happens; its kind is drawn as join / graceful leave / crash with the
    given weights.  The grid never shrinks below ``min_fraction`` of its
    initial size.
    """

    interval: float = 2 * MINUTE
    start: float = 30 * MINUTE
    end: float = 4 * 3600.0
    join_weight: float = 1.0
    leave_weight: float = 1.0
    crash_weight: float = 0.0
    min_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("churn interval must be positive")
        if not 0 <= self.start < self.end:
            raise ConfigurationError("invalid churn window")
        weights = (self.join_weight, self.leave_weight, self.crash_weight)
        if any(w < 0 for w in weights) or not any(weights):
            raise ConfigurationError("churn weights must be >= 0, not all 0")
        if not 0 < self.min_fraction <= 1:
            raise ConfigurationError("min_fraction must be in (0, 1]")

    def schedule(self, setup: "GridSetup") -> None:
        """Schedule this plan's join / leave / crash events on a built
        (not yet run) simulated grid."""
        rng = setup.sim.streams.get("churn")
        maintainer = BlatantMaintainer(
            setup.graph, setup.sim.streams.get("churn.overlay")
        )
        maintainer.start(setup.sim)
        state = {"next_id": max(n.node_id for n in setup.nodes) + 1}
        min_nodes = max(2, int(self.min_fraction * len(setup.nodes)))
        kinds = ["join", "leave", "crash"]
        weights = [self.join_weight, self.leave_weight, self.crash_weight]

        def churn_event() -> None:
            kind = rng.choices(kinds, weights=weights)[0]
            live = setup.live_agents()
            if kind == "join":
                node_id = NodeId(state["next_id"])
                state["next_id"] += 1
                maintainer.join(node_id)
                setup.add_node(node_id)
                return
            # leave / crash need a victim and a grid that stays large enough.
            victims = [a for a in live if not a.leaving]
            if len(victims) <= min_nodes:
                return
            victim = rng.choice(victims)
            if kind == "leave":
                victim.leave()
            else:
                victim.fail()

        setup.sim.every(
            self.interval, churn_event, start=self.start, until=self.end
        )
