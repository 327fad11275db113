"""Chaos harness: randomized fault schedules vs the protocol invariants.

The acceptance bar for the robustness work: under composed network faults
(≥5% i.i.d. loss, duplication, loss bursts, delay spikes, and a partition
window with heal) every protocol invariant holds across many seeds when
the reliability layer + fail-safe are ON — and the harness *detects*
violations when they are OFF, proving the checker has teeth.
"""

import random

import pytest

from repro.experiments import (
    FaultPlan,
    RunOptions,
    ScenarioScale,
    run,
    validate_run,
)

TINY = ScenarioScale.tiny()

#: Seeds for the invariants-hold arm (the acceptance bar asks for >= 10).
CHAOS_SEEDS = list(range(10))


def _random_plan(seed: int, duration: float) -> FaultPlan:
    """A randomized-but-reproducible composed fault schedule."""
    rng = random.Random(seed * 7919 + 13)
    start = rng.uniform(0.2, 0.5) * duration
    return FaultPlan(
        loss=rng.uniform(0.05, 0.12),
        duplicate=rng.uniform(0.01, 0.05),
        burst_enter=rng.uniform(0.002, 0.01),
        burst_exit=rng.uniform(0.15, 0.3),
        burst_loss=0.9,
        delay_spike=rng.uniform(0.0, 0.02),
        delay_spike_mean=2.0,
        partitions=((start, start + 600.0),),
        partition_fraction=rng.uniform(0.2, 0.4),
    )


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_invariants_hold_under_randomized_faults(seed):
    plan = _random_plan(seed, TINY.duration)
    result = run(
        plan,
        TINY,
        seed=seed,
        options=RunOptions(reliability=True, failsafe=True),
    )
    assert validate_run(result) == []
    summary = result.summary()
    assert summary.violations == []
    # The run was genuinely hostile: faults actually fired.
    assert result.network["lost"] > 0
    assert result.network["reliable_retransmissions"] > 0


def test_violations_detected_without_reliability():
    """The oracle must have teeth: with the recovery machinery off, the
    same fault schedules break at least one invariant on some seed."""
    detected = 0
    for seed in range(6):
        plan = _random_plan(seed, TINY.duration)
        result = run(
            plan,
            TINY,
            seed=seed,
            options=RunOptions(reliability=False, failsafe=False),
        )
        violations = validate_run(result)
        if violations:
            detected += 1
            # The findings also reach the summary consumers.
            assert result.summary().violations == violations
    assert detected >= 1


def test_chaos_plan_round_trips_through_the_engine():
    plan = FaultPlan.chaos(TINY.duration)
    result = run(plan, TINY, seed=0)
    assert validate_run(result) == []
    assert result.network["fault_partition_dropped"] >= 0
    assert result.metrics.completed_jobs > 0
