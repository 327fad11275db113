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

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigurationError
from ..net.reliability import ReliabilityLayer
from ..overlay.blatant import BlatantConfig, BlatantMaintainer
from ..types import MINUTE
from .catalog import get_scenario
from .faults import FaultPlan, apply_fault_plan
from .invariants import check_invariants
from .runner import RunResult, build_grid
from .scale import ScenarioScale

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


def _run_crash_experiment(
    failsafe: bool,
    scale: Optional[ScenarioScale] = None,
    seed: int = 0,
    plan: Optional[CrashPlan] = None,
    scenario_name: str = "iMixed",
    probe_interval: float = 10 * MINUTE,
    obs=None,
) -> RunResult:
    """One crash-stop run (internal, engine-dispatched impl).

    Routed through the :class:`FailureModel` internals as a pure
    crash-stop model with every extension off, which keeps its summaries
    byte-identical to the historical crash path: same scenario naming,
    same config overrides, same ``"failures"``-stream draws, no
    reliability layer, no incarnations, no invariant sweep.
    """
    plan = plan if plan is not None else CrashPlan()
    return _run_failure_experiment(
        FailureModel.from_crash_plan(plan),
        scale,
        seed,
        scenario_name=scenario_name,
        failsafe=failsafe,
        adoption=False,
        reliability=False,
        probe_interval=probe_interval,
        deadline_slack=0.0,
        scenario_suffix=f"+crash{'+failsafe' if failsafe else ''}",
        check=False,
        obs=obs,
    )


def _run_failure_experiment(
    model: FailureModel,
    scale: Optional[ScenarioScale] = None,
    seed: int = 0,
    *,
    scenario_name: str = "iMixed",
    failsafe: bool = True,
    adoption: bool = True,
    reliability: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    probe_interval: float = 10 * MINUTE,
    deadline_slack: float = 3.0,
    scenario_suffix: Optional[str] = None,
    check: bool = True,
    obs=None,
) -> RunResult:
    """One failure-injected run (internal, engine-dispatched impl).

    ``failsafe`` turns on §III-D tracking/probing (with ``probe_timeout``
    raised to 120 s whenever the network can also misbehave, i.e. when a
    reliability layer or fault plan is present); ``adoption`` adds the
    initiator-crash orphan recovery; ``deadline_slack > 0`` arms the
    straggler defense; ``fault_plan`` composes network faults on top.
    With ``check=True`` the :mod:`~repro.experiments.invariants` sweep
    runs post-horizon and lands in ``RunResult.extra_violations`` —
    crash-lost records are tolerated (``allow_lost``) but stranding,
    double-holds and cross-incarnation double executions are not.
    """
    base = get_scenario(scenario_name)
    if scenario_suffix is None:
        scenario_suffix = "+failures" + ("+failsafe" if failsafe else "")
    scenario = dataclasses.replace(base, name=f"{base.name}{scenario_suffix}")
    overrides = None
    if failsafe:
        overrides = {"failsafe": True, "probe_interval": probe_interval}
        if reliability or fault_plan is not None:
            overrides["probe_timeout"] = 120.0
        if adoption:
            overrides["adoption"] = True
    if deadline_slack > 0.0:
        overrides = dict(overrides or {})
        overrides["exec_deadline_slack"] = deadline_slack
    setup = build_grid(
        scenario, scale, seed, config_overrides=overrides, obs=obs
    )

    rng = setup.sim.streams.get("failures")
    crashed: list = []
    if model.crash_fraction > 0.0:
        # Exactly the legacy CrashPlan draws, so pure crash-stop models
        # reproduce historical runs bit for bit.
        crashed = rng.sample(
            setup.agents,
            max(1, round(model.crash_fraction * len(setup.agents))),
        )
        step = model.crash_spread / len(crashed)
        for index, agent in enumerate(crashed):
            setup.sim.call_at(model.crash_start + index * step, agent.fail)

    taken = set(crashed)
    if model.restart_fraction > 0.0:
        pool = [a for a in setup.agents if a not in taken]
        count = min(
            max(1, round(model.restart_fraction * len(setup.agents))),
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
            setup.graph,
            setup.sim.streams.get("failures.overlay"),
            BlatantConfig(),
        )
        maintainer.start(setup.sim)
        step = model.restart_spread / len(bouncing)

        def _rejoin(agent) -> None:
            maintainer.join(agent.node_id)
            agent.restart()

        for index, agent in enumerate(bouncing):
            down_at = model.restart_start + index * step
            setup.sim.call_at(down_at, agent.fail)
            setup.sim.call_at(
                down_at + model.restart_downtime, _rejoin, agent
            )

    if model.slow_fraction > 0.0:
        pool = [a for a in setup.agents if a not in taken]
        count = min(
            max(1, round(model.slow_fraction * len(setup.agents))),
            len(pool),
        )
        for agent in rng.sample(pool, count):
            setup.sim.call_at(
                model.slow_start, agent.node.apply_slowdown, model.slow_factor
            )

    if fault_plan is not None:
        apply_fault_plan(setup.transport, fault_plan)
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
        allow_lost = (
            model.crash_fraction > 0.0 or model.restart_fraction > 0.0
        )
        result.extra_violations = check_invariants(
            setup,
            expected_jobs=setup.scale.jobs,
            allow_lost=allow_lost,
            settle=settle,
        )
    return result
