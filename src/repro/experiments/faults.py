"""Network-fault experiments: chaos-testing the protocol's robustness.

The paper's §III-D fail-safe sketch assumes messages either arrive or the
assignee crashed.  Real wide-area networks also *lose*, *duplicate*,
*burst-drop*, *delay* and *partition* traffic — and a dropped ASSIGN
silently strands a job, while a duplicated one can double-execute it.
This module injects exactly those faults:

* :class:`FaultPlan` — a frozen, cache-key-aware spec (the CrashPlan /
  ChurnPlan pattern) accepted by :func:`repro.experiments.run` /
  :func:`~repro.experiments.engine.run_batch`, describing i.i.d. loss,
  Gilbert–Elliott loss bursts, duplication, delay spikes, and overlay
  partition windows with heal.
* The experiment runner wires a
  :class:`~repro.net.faults.FaultInjector` (and, with
  ``reliability=True``, a :class:`~repro.net.reliability.ReliabilityLayer`
  for at-least-once control-plane delivery) into a standard scenario grid,
  runs it, and judges it with the invariant oracle
  (:mod:`repro.metrics.oracle`).

Safety bounds (argued in ``docs/FAULTS.md``): the reliability layer's
give-up horizon (≈ 3 minutes worst case) stays far below the fail-safe
``probe_interval`` so an undeliverable ASSIGN is provably dead before any
resubmission, and partitions no longer than ``probe_interval`` with a
``probe_timeout`` comfortably above the maximum retransmit gap cause at
most one probe miss — below the two-consecutive-miss resubmission
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError
from ..net.faults import FaultInjector
from ..net.latency import SpikeLatency
from ..net.transport import Transport

__all__ = ["FaultPlan", "apply_fault_plan"]


@dataclass(frozen=True)
class FaultPlan:
    """What the network does to messages (all faults compose).

    ``loss`` is i.i.d. loss in the good state; the Gilbert–Elliott chain
    enters a bad state (loss at ``burst_loss``) with ``burst_enter`` per
    message and leaves it with ``burst_exit``.  ``duplicate`` delivers a
    second copy of a message; ``delay_spike`` adds an exponential extra
    delay with mean ``delay_spike_mean`` seconds.  During each
    ``(start, end)`` window in ``partitions`` the grid splits in two
    (each node on the minority side with probability
    ``partition_fraction``) and cross-cut messages are dropped until the
    window ends.
    """

    loss: float = 0.05
    duplicate: float = 0.02
    burst_enter: float = 0.0
    burst_exit: float = 0.25
    burst_loss: float = 0.9
    delay_spike: float = 0.0
    delay_spike_mean: float = 2.0
    partitions: Tuple[Tuple[float, float], ...] = ()
    partition_fraction: float = 0.3

    def __post_init__(self) -> None:
        # Normalise (JSON round trips turn the tuples into lists).
        object.__setattr__(
            self,
            "partitions",
            tuple(
                (float(start), float(end)) for start, end in self.partitions
            ),
        )
        for name in ("loss", "duplicate", "burst_enter", "delay_spike"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} {value} out of [0, 1)")
        if not 0.0 < self.burst_exit <= 1.0:
            raise ConfigurationError(
                f"burst_exit {self.burst_exit} out of (0, 1]"
            )
        if not 0.0 <= self.burst_loss <= 1.0:
            raise ConfigurationError(
                f"burst_loss {self.burst_loss} out of [0, 1]"
            )
        if self.delay_spike_mean <= 0:
            raise ConfigurationError(
                f"non-positive delay_spike_mean {self.delay_spike_mean}"
            )
        if not 0.0 < self.partition_fraction < 1.0:
            raise ConfigurationError(
                f"partition_fraction {self.partition_fraction} out of (0, 1)"
            )
        for start, end in self.partitions:
            if not 0 <= start < end:
                raise ConfigurationError(
                    f"invalid partition window ({start}, {end})"
                )

    @classmethod
    def chaos(cls, duration: float) -> "FaultPlan":
        """A representative everything-on plan for chaos smoke tests:
        5 % i.i.d. loss, occasional 90 %-loss bursts, 2 % duplication,
        rare 2 s delay spikes, and one 10-minute partition a third of the
        way into the run."""
        start = duration / 3.0
        return cls(
            loss=0.05,
            duplicate=0.02,
            burst_enter=0.005,
            burst_exit=0.2,
            burst_loss=0.9,
            delay_spike=0.01,
            delay_spike_mean=2.0,
            partitions=((start, start + 600.0),),
            partition_fraction=0.3,
        )


def apply_fault_plan(transport: Transport, plan: FaultPlan) -> FaultInjector:
    """Attach ``plan``'s fault models to ``transport``; returns the injector.

    Loss/burst/duplication/partitions go through a
    :class:`~repro.net.faults.FaultInjector`; delay spikes decorate the
    transport's latency model with :class:`~repro.net.latency.SpikeLatency`.

    Works on either backend: the injector is clock-generic, and the live
    transport exposes the same assignable ``latency`` seam (``None`` —
    real localhost TCP only — is treated as a zero base delay, so spikes
    become pure injected delay on the wire).
    """
    injector = FaultInjector(transport.clock, plan)
    transport.faults = injector
    if plan.delay_spike:
        base = transport.latency
        if base is None:
            from ..net.latency import ConstantLatency

            base = ConstantLatency(0.0)
        transport.latency = SpikeLatency(
            base, plan.delay_spike, plan.delay_spike_mean
        )
    return injector
