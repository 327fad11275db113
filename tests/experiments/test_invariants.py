"""The oracle's end-of-run pass (``Oracle.close`` with a grid) and the
double finish it no longer needs to repeat."""

from repro.experiments import ScenarioScale, build_grid, get_scenario
from repro.experiments.assembly import GridSetup
from repro.experiments.runner import run_grid
from repro.metrics import GridMetrics

from ..helpers import make_job

TINY = ScenarioScale.tiny()


# ----------------------------------------------------------------------
# Fakes: the pass only touches metrics, the clock and the agent surface.
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


class FakeClock:
    def __init__(self, now):
        self.now = now


class FakeSetup:
    """A grid whose clock stopped at ``now`` (a simulated run stops at
    its horizon, a live one may stop early)."""

    def __init__(self, agents=(), now=10_000.0):
        self.metrics = GridMetrics()
        self.agents = list(agents)
        self.sim = FakeClock(now)


def verdict_at_close(setup, **options):
    """The end-of-run pass over ``setup``; returns the whole verdict."""
    setup.metrics.oracle.close(setup, **options)
    return setup.metrics.oracle.violations


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
    assert verdict_at_close(setup, expected_jobs=1) == []


def test_job_conservation_flags_missing_records():
    setup = FakeSetup([FakeAgent(0)])
    submit_and_finish(setup, make_job(1))
    violations = verdict_at_close(setup, expected_jobs=2)
    assert any("job conservation" in v for v in violations)


def test_stranded_job_is_flagged_after_settling():
    setup = FakeSetup([FakeAgent(0)])
    setup.metrics.job_submitted(make_job(1), initiator=0, time=100.0)
    violations = verdict_at_close(setup, expected_jobs=1, settle=1800.0)
    assert any("stranded" in v for v in violations)


def test_recent_activity_is_not_stranded():
    setup = FakeSetup([FakeAgent(0)])
    setup.metrics.job_submitted(make_job(1), initiator=0, time=9500.0)
    assert verdict_at_close(setup, expected_jobs=1, settle=1800.0) == []


def test_held_job_is_in_flight_not_stranded():
    job = make_job(1)
    setup = FakeSetup([FakeAgent(0, running=job)])
    setup.metrics.job_submitted(job, initiator=0, time=100.0)
    assert verdict_at_close(setup, expected_jobs=1) == []


def test_pending_discovery_is_in_flight_not_stranded():
    job = make_job(1)
    setup = FakeSetup([FakeAgent(0, pending=(1,))])
    setup.metrics.job_submitted(job, initiator=0, time=100.0)
    assert verdict_at_close(setup, expected_jobs=1) == []


def test_double_holding_is_flagged():
    job = make_job(1)
    setup = FakeSetup(
        [FakeAgent(0, running=job), FakeAgent(1, queued=(job,))]
    )
    submit_and_finish(setup, make_job(2))
    setup.metrics.job_submitted(job, initiator=0, time=9900.0)
    violations = verdict_at_close(setup, expected_jobs=2)
    assert any("held by 2 live nodes" in v for v in violations)


def test_dead_nodes_do_not_count_as_holders():
    job = make_job(1)
    setup = FakeSetup(
        [
            FakeAgent(0, running=job),
            FakeAgent(1, queued=(job,), failed=True),
            FakeAgent(2, queued=(job,), departed=True),
        ]
    )
    setup.metrics.job_submitted(job, initiator=0, time=100.0)
    assert verdict_at_close(setup, expected_jobs=1) == []


def test_duplicate_execution_is_flagged(monkeypatch):
    """An untraced run learns of a job finished twice at the hook that
    booked the second completion, with the job and both executions named
    — whether it finished again on its own node, or on a second node and
    then once more on the first (one defect, one violation)."""
    original_run = GridSetup.run
    for offsets in ((0,), (1, 0)):
        seen = {}

        def run_then_finish_again(setup):
            result = original_run(setup)
            record = next(
                r for r in setup.metrics.records.values() if r.completed
            )
            nodes = [
                (record.start_node + offset) % len(setup.agents)
                for offset in offsets
            ]
            for node in nodes:
                setup.metrics.job_finished(
                    record.job.job_id, node, setup.scale.duration
                )
            seen["at hook"] = list(setup.metrics.oracle.violations)
            seen["expected"] = [
                f"job {record.job.job_id} finished twice: node "
                f"{record.finish_node} at t={record.finish_time:.0f}, then "
                f"node {nodes[0]} at t={setup.scale.duration:.0f} — double "
                f"execution"
            ]
            return result

        monkeypatch.setattr(GridSetup, "run", run_then_finish_again)
        result = run_grid(get_scenario("iMixed"), TINY, 0, check=True)
        assert result.metrics.duplicate_executions == len(offsets)
        assert seen["at hook"] == seen["expected"]
        assert result.summary().violations == seen["expected"]


def test_crash_loss_flagged_only_in_crash_free_mode():
    setup = FakeSetup([FakeAgent(0)])
    job = make_job(1)
    submit_and_finish(setup, job)
    setup.metrics.job_lost(job.job_id, 0, 200.0)
    assert verdict_at_close(setup, expected_jobs=1, allow_lost=True) == []
    assert any(
        "crash-lost" in v
        for v in verdict_at_close(setup, expected_jobs=1)
    )


def test_stale_tracking_is_flagged():
    setup = FakeSetup([FakeAgent(0, tracked=(1,))])
    submit_and_finish(setup, make_job(1), at=100.0)
    violations = verdict_at_close(setup, expected_jobs=1, settle=1800.0)
    assert any("still tracked" in v for v in violations)


def test_fresh_tracking_of_finished_job_is_tolerated():
    setup = FakeSetup([FakeAgent(0, tracked=(1,))])
    submit_and_finish(setup, make_job(1), at=9500.0)
    assert verdict_at_close(setup, expected_jobs=1, settle=1800.0) == []


def test_horizon_rules_measure_against_the_stopped_clock():
    """A live run that stopped at t=3000 of a 10 000 s horizon: a job
    finished at t=2500 and still tracked is 500 s old, not 7500 s."""
    setup = FakeSetup([FakeAgent(0, tracked=(1,))], now=3000.0)
    submit_and_finish(setup, make_job(1), at=2498.0)
    assert setup.metrics.records[1].finish_time == 2500.0
    assert verdict_at_close(setup, expected_jobs=1, settle=1800.0) == []


# ----------------------------------------------------------------------
# Against a real (fault-free) run
# ----------------------------------------------------------------------
def test_clean_scenario_run_satisfies_all_invariants():
    setup = build_grid(get_scenario("Mixed"), TINY, seed=0)
    setup.run()
    assert verdict_at_close(setup, expected_jobs=TINY.jobs) == []


def test_job_still_running_where_it_was_moved_from_is_flagged():
    job = make_job(1)
    setup = FakeSetup([FakeAgent(0, running=job), FakeAgent(1)])
    metrics = setup.metrics
    metrics.job_submitted(job, initiator=0, time=100.0)
    metrics.job_assigned(job.job_id, 0, 100.0, reschedule=False)
    metrics.job_started(job.job_id, 0, 101.0)
    metrics.job_assigned(job.job_id, 1, 200.0, reschedule=False)
    assert metrics.oracle.violations == []
    assert verdict_at_close(setup) == [
        "job 1: reassigned after execution started"
    ]
