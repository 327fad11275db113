"""Tests for the composed FailureModel (crash-stop / crash-restart /
fail-slow) and its chaos suite.

The 10-seed chaos suite is the PR's acceptance bar: a mixed FailureModel
*plus* a network FaultPlan, with the invariant checker on, must hold job
conservation and no-double-execution across incarnations on every seed —
and the adoption-off arm must demonstrably surface the orphan-job leak
the adoption mechanism closes.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    FailureModel,
    FaultPlan,
    RunOptions,
    ScenarioScale,
    get_scenario,
    run,
    run_batch,
)
from repro.experiments.failures import CrashPlan
from repro.experiments.runner import run_grid
from repro.metrics import validate_run

TINY = ScenarioScale.tiny()
CHAOS_SEEDS = list(range(10))


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_validation_rejects_empty_and_overfull_models():
    with pytest.raises(ConfigurationError):
        FailureModel()  # every fraction zero: does nothing
    with pytest.raises(ConfigurationError):
        FailureModel(crash_fraction=0.5, restart_fraction=0.5)
    with pytest.raises(ConfigurationError):
        FailureModel(crash_fraction=-0.1)
    with pytest.raises(ConfigurationError):
        FailureModel(restart_fraction=0.1, restart_downtime=0.0)
    with pytest.raises(ConfigurationError):
        FailureModel(slow_fraction=0.1, slow_factor=0.5)
    with pytest.raises(ConfigurationError):
        FailureModel(crash_fraction=0.1, crash_start=-1.0)


def test_from_crash_plan_round_trip():
    plan = CrashPlan(fraction=0.2, start=1000.0, spread=500.0)
    model = FailureModel.from_crash_plan(plan)
    assert model.crash_fraction == 0.2
    assert model.crash_start == 1000.0
    assert model.crash_spread == 500.0
    assert model.restart_fraction == 0.0
    assert model.slow_fraction == 0.0


def test_chaos_mix_is_valid_and_scaled():
    model = FailureModel.chaos(TINY.duration)
    assert model.crash_fraction > 0
    assert model.restart_fraction > 0
    assert model.slow_fraction > 0
    assert model.crash_start == TINY.duration * 0.25


# ----------------------------------------------------------------------
# Legacy equivalence: CrashPlan ≡ crash-only FailureModel
# ----------------------------------------------------------------------
def test_crash_only_model_reproduces_the_crash_plan_path():
    # The generalized path must draw its crash-stop victims exactly as
    # the legacy CrashPlan path did: with every extension disabled, the
    # two specs simulate the same run (modulo the scenario label and the
    # invariant sweep the legacy path never ran).
    plan = CrashPlan(fraction=0.25, start=3600.0)
    legacy = run(plan, TINY, seed=3, options=RunOptions(failsafe=True))
    modeled = run(
        FailureModel.from_crash_plan(plan),
        TINY,
        seed=3,
        options=RunOptions(
            adoption=False, reliability=False, deadline_slack=0.0
        ),
    )
    left = legacy.summary().to_dict()
    right = modeled.summary().to_dict()
    assert left.pop("name") == "iMixed+crash+failsafe"
    assert right.pop("name") == "iMixed+failures+failsafe"
    left.pop("violations")
    right.pop("violations")
    assert left == right


# ----------------------------------------------------------------------
# Mechanism engagement
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mixed_run():
    return run(
        FailureModel.chaos(TINY.duration),
        TINY,
        seed=0,
        options=RunOptions(fault_plan=FaultPlan.chaos(TINY.duration)),
    )


def test_restarts_and_incarnations_happen(mixed_run):
    metrics = mixed_run.metrics
    assert metrics.node_restarts > 0
    # Node count dips during outages but recovers the bouncing nodes.
    final = mixed_run.node_count_series[-1][1]
    crashed_for_good = max(1, round(0.10 * TINY.nodes))
    assert final == TINY.nodes - crashed_for_good


def test_scenario_name_is_labelled(mixed_run):
    assert mixed_run.scenario.name == "iMixed+failures+failsafe"


def test_chaos_suite_holds_invariants_on_every_seed():
    model = FailureModel.chaos(TINY.duration)
    plan = FaultPlan.chaos(TINY.duration)
    for seed in CHAOS_SEEDS:
        result = run(model, TINY, seed=seed, options=RunOptions(fault_plan=plan))
        assert validate_run(result) == [], (
            f"seed {seed}: {validate_run(result)}"
        )
        assert result.metrics.duplicate_executions == 0, f"seed {seed}"


def test_adoption_off_arm_surfaces_the_orphan_leak():
    # With adoption disabled the orphan detector still counts jobs whose
    # initiator went silent — the leak the adoption mechanism closes.
    model = FailureModel.chaos(TINY.duration)
    plan = FaultPlan.chaos(TINY.duration)
    orphaned = adopted = 0
    for seed in CHAOS_SEEDS[:5]:
        result = run(
            model,
            TINY,
            seed=seed,
            options=RunOptions(fault_plan=plan, adoption=False),
        )
        orphaned += result.metrics.orphaned_jobs
        adopted += result.metrics.adopted_jobs
    assert orphaned > 0
    assert adopted == 0


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def test_run_batch_round_trips_the_model(tmp_path):
    model = FailureModel(restart_fraction=0.2, restart_start=3600.0)
    # The per-kind table resolves a bare FailureModel to exactly this call.
    direct = run_grid(
        get_scenario("iMixed"),
        TINY,
        1,
        suffix="+failures+failsafe",
        failsafe=True,
        adoption=True,
        reliability=True,
        deadline_slack=3.0,
        failures=model,
        check=True,
    ).summary().to_dict()
    batch = run_batch(
        model, TINY, seeds=(1,), cache=tmp_path / "cache"
    )
    assert batch[0].to_dict() == direct
    assert batch.errors == {}
    # Second call is served from the cache, bit-identically.
    again = run_batch(model, TINY, seeds=(1,), cache=tmp_path / "cache")
    assert again[0].to_dict() == direct


def test_inapplicable_option_is_rejected():
    with pytest.raises(ConfigurationError):
        run(
            FailureModel(crash_fraction=0.1),
            TINY,
            seed=0,
            options=RunOptions(multirequest_k=2),
        )


def test_fault_plan_option_must_be_a_fault_plan():
    with pytest.raises(ConfigurationError):
        run(
            FailureModel(crash_fraction=0.1),
            TINY,
            seed=0,
            options=RunOptions(fault_plan={}),
        )


def test_model_is_cache_key_aware(tmp_path):
    from repro.experiments.engine import _spec_payload, cache_key

    a = _spec_payload(FailureModel(crash_fraction=0.1), {})
    b = _spec_payload(FailureModel(crash_fraction=0.2), {})
    a["scale"] = b["scale"] = dataclasses.asdict(TINY)
    a["seed"] = b["seed"] = 0
    assert cache_key(a) != cache_key(b)
