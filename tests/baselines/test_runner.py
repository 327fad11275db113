"""Tests for the baseline experiment runner."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import RunOptions, ScenarioScale, run

TINY = ScenarioScale.tiny()


@pytest.mark.parametrize("name", ["centralized", "multirequest", "random"])
def test_baselines_complete_the_workload(name):
    result = run(name, TINY, seed=1)
    metrics = result.metrics
    assert result.baseline == name
    assert metrics.completed_jobs + metrics.unschedulable_count() >= 0.9 * TINY.jobs
    assert metrics.average_completion_time() is not None
    assert result.traffic.count_by_type["Request"] == TINY.jobs


def test_unknown_baseline_rejected():
    with pytest.raises(ConfigurationError):
        run("oracle", TINY)


def test_baselines_share_workload_across_seeds():
    # Same seed => identical workload => identical submitted job set.
    a = run("centralized", TINY, seed=3)
    b = run("random", TINY, seed=3)
    jobs_a = {(r.job.job_id, r.job.ert) for r in a.metrics.records.values()}
    jobs_b = {(r.job.job_id, r.job.ert) for r in b.metrics.records.values()}
    assert jobs_a == jobs_b


def test_multirequest_reports_revocations():
    result = run(
        "multirequest", TINY, seed=1, options=RunOptions(multirequest_k=3)
    )
    assert result.revoked_copies > 0
    assert result.traffic.count_by_type.get("Cancel", 0) == result.revoked_copies


def test_centralized_is_deterministic():
    a = run("centralized", TINY, seed=5)
    b = run("centralized", TINY, seed=5)
    assert (
        a.metrics.average_completion_time()
        == b.metrics.average_completion_time()
    )


@pytest.mark.parametrize(
    "name", ["centralized", "multirequest", "random", "gossip"]
)
def test_a_clean_baseline_run_validates_clean(name):
    """Every job ran on its recorded assignee — for multirequest, the copy
    that started first, not the nominally cheapest of the k."""
    assert run(name, TINY, seed=4).summary().violations == []


@pytest.mark.parametrize(
    "name", ["centralized", "multirequest", "random", "gossip"]
)
def test_baselines_reject_a_deadline_policy_up_front(name):
    """The baselines' workload is batch-only, so a deadline scheduler in
    the mix could host none of it: refused before anything is built."""
    with pytest.raises(ConfigurationError, match="'EDF'"):
        run(name, TINY, options=RunOptions(policies=("FCFS", "EDF")))
