"""Randomized volatility runs judged by the invariant oracle.

Hypothesis draws churn shapes (graceful leaves, crashes, joins, fail-safe
on/off) and the full run must break no rule the oracle judges at its
hooks (:mod:`repro.metrics.oracle`, read by ``validate_run``) — timeline
coherence, placement, mutual exclusion, reservations, double finish.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import RunOptions, ScenarioScale, run, validate_run
from repro.experiments.churn import ChurnPlan
from repro.experiments.failures import CrashPlan

TINY = ScenarioScale.tiny()


@given(
    seed=st.integers(min_value=0, max_value=50),
    fraction=st.floats(min_value=0.05, max_value=0.4),
    failsafe=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_crash_runs_always_validate(seed, fraction, failsafe):
    plan = CrashPlan(fraction=fraction, start=2000.0)
    result = run(
        plan, TINY, seed=seed, options=RunOptions(failsafe=failsafe)
    )
    assert validate_run(result) == []
    # Conservation under crashes: nothing completes twice and the counter
    # matches the records.
    assert result.metrics.duplicate_executions == 0


@given(
    seed=st.integers(min_value=0, max_value=50),
    crash_weight=st.floats(min_value=0.0, max_value=1.0),
    interval=st.floats(min_value=120.0, max_value=600.0),
    failsafe=st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_churn_runs_always_validate(seed, crash_weight, interval, failsafe):
    plan = ChurnPlan(
        interval=interval, start=1500.0, end=12_000.0, crash_weight=crash_weight
    )
    result = run(
        plan, TINY, seed=seed, options=RunOptions(failsafe=failsafe)
    )
    assert validate_run(result) == []


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=6, deadline=None)
def test_graceful_churn_never_loses_jobs(seed):
    plan = ChurnPlan(interval=150.0, start=1500.0, end=12_000.0)
    result = run(plan, TINY, seed=seed)
    metrics = result.metrics
    lost = [
        r
        for r in metrics.records.values()
        if not r.completed and not r.unschedulable
    ]
    # Graceful departure hands every job off; the only acceptable
    # "incomplete" jobs are those still executing at the horizon.
    for record in lost:
        assert record.start_time is not None or record.assignments
