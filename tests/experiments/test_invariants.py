"""Unit tests for the post-run protocol invariant checker."""

from repro.experiments import (
    ScenarioScale,
    build_grid,
    check_invariants,
    get_scenario,
)
from repro.metrics import GridMetrics

from ..helpers import make_job

TINY = ScenarioScale.tiny()


# ----------------------------------------------------------------------
# Fakes: the checker only touches metrics, scale, and the agent surface.
# ----------------------------------------------------------------------
class FakeScheduler:
    def __init__(self, entries=()):
        self._entries = list(entries)

    def queued(self):
        return self._entries


class FakeEntry:
    def __init__(self, job):
        self.job = job


class FakeNode:
    def __init__(self, running=None, queued=()):
        self.running = FakeEntry(running) if running is not None else None
        self.scheduler = FakeScheduler([FakeEntry(j) for j in queued])


class FakeAgent:
    def __init__(self, node_id, running=None, queued=(), pending=(),
                 tracked=(), failed=False, departed=False):
        self.node_id = node_id
        self.node = FakeNode(running, queued)
        self._pending = set(pending)
        self._tracked = {job_id: None for job_id in tracked}
        self.failed = failed
        self.departed = departed


class FakeScale:
    def __init__(self, duration=10_000.0, jobs=1):
        self.duration = duration
        self.jobs = jobs


class FakeSetup:
    def __init__(self, agents=(), duration=10_000.0, jobs=1):
        self.metrics = GridMetrics()
        self.agents = list(agents)
        self.scale = FakeScale(duration, jobs)


def submit_and_finish(setup, job, node=0, at=100.0):
    setup.metrics.job_submitted(job, initiator=node, time=at)
    setup.metrics.job_assigned(job.job_id, node, at, reschedule=False)
    setup.metrics.job_started(job.job_id, node, at + 1)
    setup.metrics.job_finished(job.job_id, node, at + 2)


# ----------------------------------------------------------------------
# Each invariant, in isolation
# ----------------------------------------------------------------------
def test_completed_job_is_clean():
    setup = FakeSetup([FakeAgent(0)])
    submit_and_finish(setup, make_job(1))
    assert check_invariants(setup, expected_jobs=1) == []


def test_job_conservation_flags_missing_records():
    setup = FakeSetup([FakeAgent(0)])
    submit_and_finish(setup, make_job(1))
    violations = check_invariants(setup, expected_jobs=2)
    assert any("job conservation" in v for v in violations)


def test_stranded_job_is_flagged_after_settling():
    setup = FakeSetup([FakeAgent(0)], duration=10_000.0)
    setup.metrics.job_submitted(make_job(1), initiator=0, time=100.0)
    violations = check_invariants(setup, expected_jobs=1, settle=1800.0)
    assert any("stranded" in v for v in violations)


def test_recent_activity_is_not_stranded():
    setup = FakeSetup([FakeAgent(0)], duration=10_000.0)
    setup.metrics.job_submitted(make_job(1), initiator=0, time=9500.0)
    assert check_invariants(setup, expected_jobs=1, settle=1800.0) == []


def test_held_job_is_in_flight_not_stranded():
    job = make_job(1)
    setup = FakeSetup([FakeAgent(0, running=job)], duration=10_000.0)
    setup.metrics.job_submitted(job, initiator=0, time=100.0)
    assert check_invariants(setup, expected_jobs=1) == []


def test_pending_discovery_is_in_flight_not_stranded():
    job = make_job(1)
    setup = FakeSetup([FakeAgent(0, pending=(1,))], duration=10_000.0)
    setup.metrics.job_submitted(job, initiator=0, time=100.0)
    assert check_invariants(setup, expected_jobs=1) == []


def test_double_holding_is_flagged():
    job = make_job(1)
    setup = FakeSetup(
        [FakeAgent(0, running=job), FakeAgent(1, queued=(job,))],
        duration=10_000.0,
    )
    submit_and_finish(setup, make_job(2))
    setup.metrics.job_submitted(job, initiator=0, time=9900.0)
    violations = check_invariants(setup, expected_jobs=2)
    assert any("held by 2 live nodes" in v for v in violations)


def test_dead_nodes_do_not_count_as_holders():
    job = make_job(1)
    setup = FakeSetup(
        [
            FakeAgent(0, running=job),
            FakeAgent(1, queued=(job,), failed=True),
            FakeAgent(2, queued=(job,), departed=True),
        ],
        duration=10_000.0,
    )
    setup.metrics.job_submitted(job, initiator=0, time=100.0)
    assert check_invariants(setup, expected_jobs=1) == []


def test_duplicate_execution_is_flagged(monkeypatch):
    """A job finished twice is one defect and one violation string in the
    run's summary: the ``validate_run`` count, not repeated by the
    invariant sweep that ``check=True`` folds in beside it — whether it
    finished again on its own node, or on a second node and then once
    more on the first."""
    from repro.experiments import runner

    for offsets in ((0,), (1, 0)):

        def finish_one_job_again(setup, **kwargs):
            record = next(
                r for r in setup.metrics.records.values() if r.completed
            )
            for offset in offsets:
                setup.metrics.job_finished(
                    record.job.job_id,
                    (record.start_node + offset) % len(setup.agents),
                    setup.scale.duration,
                )
            return check_invariants(setup, **kwargs)

        monkeypatch.setattr(runner, "check_invariants", finish_one_job_again)
        result = runner.run_grid(get_scenario("iMixed"), TINY, 0, check=True)
        assert result.metrics.duplicate_executions == len(offsets)
        assert result.summary().violations == [
            f"{len(offsets)} duplicate executions"
        ]


def test_crash_loss_flagged_only_in_crash_free_mode():
    setup = FakeSetup([FakeAgent(0)])
    job = make_job(1)
    submit_and_finish(setup, job)
    setup.metrics.records[job.job_id].lost_count = 1
    assert any(
        "crash-lost" in v
        for v in check_invariants(setup, expected_jobs=1)
    )
    assert check_invariants(setup, expected_jobs=1, allow_lost=True) == []


def test_stale_tracking_is_flagged():
    setup = FakeSetup([FakeAgent(0, tracked=(1,))], duration=10_000.0)
    submit_and_finish(setup, make_job(1), at=100.0)
    violations = check_invariants(setup, expected_jobs=1, settle=1800.0)
    assert any("still tracked" in v for v in violations)


def test_fresh_tracking_of_finished_job_is_tolerated():
    setup = FakeSetup([FakeAgent(0, tracked=(1,))], duration=10_000.0)
    submit_and_finish(setup, make_job(1), at=9500.0)
    assert check_invariants(setup, expected_jobs=1, settle=1800.0) == []


# ----------------------------------------------------------------------
# Against a real (fault-free) run
# ----------------------------------------------------------------------
def test_clean_scenario_run_satisfies_all_invariants():
    setup = build_grid(get_scenario("Mixed"), TINY, seed=0)
    setup.run()
    assert check_invariants(setup, expected_jobs=TINY.jobs) == []
