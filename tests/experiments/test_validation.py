"""The oracle's in-process feed: real runs are clean, and a bad
transition driven through a ``GridMetrics`` hook is reported."""

import pytest

from repro.experiments import (
    RunOptions,
    ScenarioScale,
    get_scenario,
    run,
)
from repro.experiments.churn import ChurnPlan
from repro.experiments.failures import CrashPlan
from repro.metrics import GridMetrics, validate_run

from ..helpers import make_job

TINY = ScenarioScale.tiny()


@pytest.mark.parametrize(
    "name", ["Mixed", "iMixed", "iDeadlineH", "iExpanding"]
)
def test_scenario_runs_validate_clean(name):
    result = run(get_scenario(name), TINY, seed=4)
    assert validate_run(result) == []


def test_crash_runs_validate_clean():
    for failsafe in (False, True):
        result = run(
            CrashPlan(), TINY, seed=4, options=RunOptions(failsafe=failsafe)
        )
        assert validate_run(result) == []


def test_churn_runs_validate_clean():
    plan = ChurnPlan(interval=180.0, start=1800.0, end=9000.0, crash_weight=0.5)
    result = run(plan, TINY, seed=4, options=RunOptions(failsafe=True))
    assert validate_run(result) == []


def test_validation_detects_corruption():
    result = run(get_scenario("Mixed"), TINY, seed=4)
    record = next(r for r in result.metrics.records.values() if r.completed)
    # Execution "starts" before submission, judged at the hook.
    result.metrics.job_started(
        record.job.job_id, record.start_node, record.submit_time - 100.0
    )
    violations = validate_run(result)
    assert any("started before submission" in v for v in violations)


def test_validation_detects_overlap():
    result = run(get_scenario("Mixed"), TINY, seed=4)
    completed = [r for r in result.metrics.records.values() if r.completed]
    a, b = completed[0], completed[1]
    # Start both executions on one node, the second while the first runs.
    node, t = a.start_node, result.scale.duration
    result.metrics.job_started(a.job.job_id, node, t)
    result.metrics.job_started(b.job.job_id, node, t)
    violations = validate_run(result)
    assert any("overlapping executions" in v for v in violations)


def test_validation_detects_placement_mismatch():
    result = run(get_scenario("Mixed"), TINY, seed=4)
    metrics, t = result.metrics, result.scale.duration
    # A job assigned to node 0 runs on node 9999.
    job = make_job(10_000, submit_time=t)
    metrics.job_submitted(job, initiator=0, time=t)
    metrics.job_assigned(job.job_id, 0, t, reschedule=False)
    metrics.job_started(job.job_id, 9999, t)
    metrics.job_finished(job.job_id, 9999, t + 1.0)
    violations = validate_run(result)
    assert any("ran on 9999" in v for v in violations)


# ----------------------------------------------------------------------
# A move judged against the execution that counts
# ----------------------------------------------------------------------
def booked_job(at=100.0, job_id=1):
    """Fresh metrics with ``job_id`` submitted, assigned to node 0 and
    started there."""
    metrics = GridMetrics()
    metrics.job_submitted(make_job(job_id), initiator=0, time=at)
    metrics.job_assigned(job_id, 0, at, reschedule=False)
    metrics.job_started(job_id, 0, at + 1.0)
    return metrics


def test_move_of_an_execution_voided_by_a_crash_is_clean():
    metrics = booked_job()
    # A fail-safe resubmission moves the job to node 1 while node 0 may
    # still run it; node 0 then crashes and node 1 runs the job.
    metrics.job_assigned(1, 1, 200.0, reschedule=False)
    metrics.job_lost(1, 0, 250.0)
    metrics.job_started(1, 1, 300.0)
    metrics.job_finished(1, 1, 400.0)
    assert metrics.oracle.violations == []


def test_execution_completing_after_its_move_is_flagged():
    metrics = booked_job()
    metrics.job_assigned(1, 1, 200.0, reschedule=False)
    assert metrics.oracle.violations == []  # node 0 may yet crash
    metrics.job_finished(1, 0, 400.0)
    assert metrics.oracle.violations[0] == (
        "job 1: reassigned after execution started"
    )


def test_crash_frees_the_crashed_nodes_running_slot():
    metrics = booked_job()
    # A fail-safe duplicate starts on node 1; node 0 then crashes with
    # its copy, restarts and runs another job: no overlap on node 0.
    metrics.job_assigned(1, 1, 200.0, reschedule=False)
    metrics.job_started(1, 1, 201.0)
    metrics.job_lost(1, 0, 250.0)
    metrics.job_submitted(make_job(2), initiator=0, time=300.0)
    metrics.job_assigned(2, 0, 300.0, reschedule=False)
    metrics.job_started(2, 0, 301.0)
    assert metrics.oracle.violations == []
