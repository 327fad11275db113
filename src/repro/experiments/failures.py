"""Node-lifecycle failure experiments: crash-stop, crash-restart, fail-slow.

The paper's §III-D sketches "failsafe mechanisms in the event of an
assignee's crash" but never evaluates them.  This module injects node
failures into standard workloads and measures what the protocol (plus
our extensions) recovers:

* **crash-stop** — a fraction of the grid dies mid-run and stays dead
  (the original :class:`CrashPlan` behaviour).  With fail-safe tracking
  off, jobs on crashed nodes are simply lost; on, initiators detect the
  silence and resubmit.
* **crash-restart** — crashed nodes rejoin the overlay after a
  configurable downtime with all volatile state lost, under a fresh
  *incarnation number* (see :meth:`repro.core.AriaAgent.restart`): stale
  ASSIGNs/Tracks/acks addressed to the dead incarnation are rejected at
  the transport instead of corrupting the reborn node's state.
* **fail-slow** — a fraction of the nodes silently degrades (jobs take
  ``slow_factor`` times their sampled running time) while still quoting
  healthy costs.  The per-job *execution deadline*
  (``exec_deadline_slack``) re-advertises jobs stuck behind stragglers
  through the normal INFORM path.

Initiator crashes are no longer a blind spot: with ``adoption`` on, an
assignee that misses ``adoption_windows`` consecutive probe windows
adopts the orphaned job — it self-tracks it and suppresses the
now-unreachable Done — so a job whose initiator crashed keeps a tracker
through later reschedules and assignee crashes.  With adoption off, the
orphan is counted (``jobs.orphaned``), which is how the regression suite
demonstrates the leak the mechanism closes.  Jobs that die *in
discovery* with their initiator (no assignee exists yet) remain
unrecoverable by construction and are recorded as lost.

:class:`FailureModel` composes the three modes in one frozen,
cache-key-aware spec (the CrashPlan / FaultPlan pattern) accepted by
:func:`repro.experiments.run` / ``run_batch`` and the ``--failure-model``
CLI mode, alongside a network :class:`~repro.experiments.faults.FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..overlay.blatant import BlatantMaintainer
from ..types import MINUTE

if TYPE_CHECKING:
    from .assembly import GridSetup

__all__ = [
    "CrashPlan",
    "FailureModel",
]


@dataclass(frozen=True)
class CrashPlan:
    """When and how much of the grid dies (crash-stop only).

    ``fraction`` of the initial nodes crash, evenly spread over the window
    ``[start, start + spread]`` (defaults: 10 % of the grid, starting one
    hour in, over 30 minutes).  The generalised :class:`FailureModel`
    supersedes this spec; it remains for compatibility and as the
    cache-key for pure crash-stop runs.
    """

    fraction: float = 0.10
    start: float = 3600.0
    spread: float = 30 * MINUTE

    def __post_init__(self) -> None:
        if not 0 < self.fraction < 1:
            raise ConfigurationError("crash fraction must be in (0, 1)")
        if self.start < 0 or self.spread < 0:
            raise ConfigurationError("crash window must be non-negative")


@dataclass(frozen=True)
class FailureModel:
    """A composed node-lifecycle failure spec (all modes optional).

    Three disjoint victim groups are drawn from the ``"failures"``
    stream — crash-stop victims first (identical draws to the legacy
    :class:`CrashPlan` path), then crash-restart victims, then fail-slow
    victims:

    * ``crash_fraction`` of the grid crashes over
      ``[crash_start, crash_start + crash_spread]`` and stays dead;
    * ``restart_fraction`` crashes over ``[restart_start, restart_start +
      restart_spread]`` and rejoins ``restart_downtime`` seconds later
      under a fresh incarnation, volatile state lost;
    * ``slow_fraction`` degrades at ``slow_start``: jobs starting there
      after take ``slow_factor`` × their sampled running time, while the
      node keeps quoting healthy costs.

    A zero fraction disables that mode; at least one must be nonzero.
    """

    crash_fraction: float = 0.0
    crash_start: float = 3600.0
    crash_spread: float = 30 * MINUTE
    restart_fraction: float = 0.0
    restart_start: float = 3600.0
    restart_spread: float = 30 * MINUTE
    restart_downtime: float = 900.0
    slow_fraction: float = 0.0
    slow_start: float = 3600.0
    slow_factor: float = 4.0

    def __post_init__(self) -> None:
        for name in ("crash_fraction", "restart_fraction", "slow_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} {value} out of [0, 1)")
        total = self.crash_fraction + self.restart_fraction + self.slow_fraction
        if total <= 0.0:
            raise ConfigurationError(
                "FailureModel with every fraction at 0 does nothing"
            )
        if total >= 1.0:
            raise ConfigurationError(
                f"victim fractions sum to {total}; must stay below 1 "
                f"(the groups are disjoint)"
            )
        for name in ("crash_start", "crash_spread", "restart_start",
                     "restart_spread", "slow_start"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.restart_downtime <= 0:
            raise ConfigurationError("restart_downtime must be positive")
        if self.slow_factor < 1.0:
            raise ConfigurationError(
                f"slow_factor {self.slow_factor} must be >= 1"
            )

    @classmethod
    def from_crash_plan(cls, plan: CrashPlan) -> "FailureModel":
        """The crash-stop-only model equivalent to a legacy plan."""
        return cls(
            crash_fraction=plan.fraction,
            crash_start=plan.start,
            crash_spread=plan.spread,
        )

    @classmethod
    def chaos(cls, duration: float) -> "FailureModel":
        """A representative crash-restart + fail-slow mix for chaos runs:
        a tenth of the grid gone for good a quarter in, another ~15 %
        bouncing (15-minute outages), and ~15 % of the survivors silently
        running jobs at a quarter speed."""
        return cls(
            crash_fraction=0.10,
            crash_start=duration * 0.25,
            crash_spread=duration * 0.10,
            restart_fraction=0.15,
            restart_start=duration * 0.35,
            restart_spread=duration * 0.15,
            restart_downtime=900.0,
            slow_fraction=0.15,
            slow_start=duration * 0.30,
            slow_factor=4.0,
        )

    def schedule(self, setup: "GridSetup") -> None:
        """Schedule this model's crashes, restarts and slowdowns on a
        built (not yet run) simulated grid."""
        rng = setup.sim.streams.get("failures")
        crashed: list = []
        if self.crash_fraction > 0.0:
            # Exactly the legacy CrashPlan draws, so pure crash-stop models
            # reproduce historical runs bit for bit.
            crashed = rng.sample(
                setup.agents,
                max(1, round(self.crash_fraction * len(setup.agents))),
            )
            step = self.crash_spread / len(crashed)
            for index, agent in enumerate(crashed):
                setup.sim.call_at(self.crash_start + index * step, agent.fail)

        taken = set(crashed)
        if self.restart_fraction > 0.0:
            pool = [a for a in setup.agents if a not in taken]
            count = min(
                max(1, round(self.restart_fraction * len(setup.agents))),
                len(pool),
            )
            bouncing = rng.sample(pool, count)
            taken.update(bouncing)
            # Stamping must be on before the run starts so messages already
            # in flight at the first crash carry a stamp and can be rejected
            # by the reborn incarnation.
            setup.transport.enable_incarnations()
            # Restarted nodes rejoin through the same overlay-maintenance
            # path as churn joins; the maintainer also keeps the overlay
            # healthy around the holes the crashes tear into it.
            maintainer = BlatantMaintainer(
                setup.graph, setup.sim.streams.get("failures.overlay")
            )
            maintainer.start(setup.sim)
            step = self.restart_spread / len(bouncing)

            def _rejoin(agent) -> None:
                maintainer.join(agent.node_id)
                agent.restart()

            for index, agent in enumerate(bouncing):
                down_at = self.restart_start + index * step
                setup.sim.call_at(down_at, agent.fail)
                setup.sim.call_at(
                    down_at + self.restart_downtime, _rejoin, agent
                )

        if self.slow_fraction > 0.0:
            pool = [a for a in setup.agents if a not in taken]
            count = min(
                max(1, round(self.slow_fraction * len(setup.agents))),
                len(pool),
            )
            for agent in rng.sample(pool, count):
                setup.sim.call_at(
                    self.slow_start, agent.node.apply_slowdown, self.slow_factor
                )
