"""The oracle's trace feed (the merged ``--procs`` trace, and a live
run's recorded trace).

Each test feeds a small synthetic event stream straight into an
:class:`~repro.metrics.Oracle` — no grid, no transport — and asserts
its verdict, the live run's tee to its recorder, and that its state
stays bounded.  The last section replays real chaos runs instead and
pins the trace feed's agreement with the in-process one.
"""

import pytest

from repro.experiments import (
    ChurnPlan,
    CrashPlan,
    FailureModel,
    FaultPlan,
    RunOptions,
    ScenarioScale,
    TraceConfig,
    run,
)
from repro.metrics import GridMetrics, Oracle
from repro.metrics.oracle import MAX_TRACKED_JOBS, ORPHAN_GRACE, SETTLE
from repro.obs import MemorySink
from repro.runtime.serve import _TraceTee

from ..helpers import make_job


def ev(name, t, **fields):
    """One synthetic trace event in the bus's wire shape."""
    event = {"ev": name, "t": t}
    event.update(fields)
    return event


def feed(oracle, *events):
    for event in events:
        oracle.append(event)
    return oracle


# ----------------------------------------------------------------------
# Tee behaviour
# ----------------------------------------------------------------------
def test_clean_stream_forwards_everything_and_stays_silent():
    # A live run's trace: each event is judged, then recorded.
    sink, oracle = MemorySink(), Oracle()
    tee = _TraceTee(oracle, sink)
    events = [
        ev("job.submitted", 10.0, job=1, node=0),
        ev("job.assigned", 20.0, job=1, node=2, cost=5.0),
        ev("job.finished", 900.0, job=1, node=2),
    ]
    feed(tee, *events)
    assert oracle.violations == []
    assert oracle.checked == 3
    assert sink.events == events
    tee.close()  # closes the recorder without raising


def test_checker_without_sink_checks_and_drops():
    oracle = Oracle()
    feed(oracle, ev("job.finished", 1.0, job=1, node=0))
    assert oracle.checked == 1
    assert oracle.violations == []
    oracle.close()


def test_live_trace_leaves_double_finishes_to_the_hook():
    # A live run's oracle judges each completion at its hook; the trace
    # events it also gets are not judged again.
    metrics = GridMetrics()
    metrics.job_submitted(make_job(1), initiator=0, time=0.0)
    metrics.job_assigned(1, 0, 0.0, reschedule=False)
    metrics.job_started(1, 0, 1.0)
    metrics.job_finished(1, 0, 100.0)
    finished = ev("job.finished", 100.0, job=1, node=0)
    feed(metrics.oracle, finished, dict(finished))  # a repeated event
    assert metrics.oracle.violations == []
    metrics.job_finished(1, 4, 250.0)
    assert metrics.oracle.violations == [
        "job 1 finished twice: node 0 at t=100, then node 4 at t=250 — "
        "double execution"
    ]


# ----------------------------------------------------------------------
# Double execution
# ----------------------------------------------------------------------
def test_second_finish_of_a_job_is_a_double_execution():
    oracle = Oracle()
    feed(
        oracle,
        ev("job.finished", 100.0, job=7, node=1),
        ev("job.finished", 250.0, job=7, node=4),
    )
    assert len(oracle.violations) == 1
    assert "double execution" in oracle.violations[0]
    assert "job 7" in oracle.violations[0]
    # A third sighting of the same job adds nothing new.
    feed(oracle, ev("job.finished", 300.0, job=7, node=5))
    assert len(oracle.violations) == 1


def test_on_violation_fires_once_per_new_violation():
    seen = []
    oracle = Oracle(on_violation=seen.append)
    feed(
        oracle,
        ev("job.finished", 1.0, job=1, node=0),
        ev("job.finished", 2.0, job=1, node=1),
        ev("job.finished", 3.0, job=1, node=2),
        ev("job.finished", 4.0, job=2, node=0),
        ev("job.finished", 5.0, job=2, node=1),
    )
    assert seen == oracle.violations
    assert len(seen) == 2


def test_finished_job_memory_is_lru_bounded():
    oracle = Oracle()
    for job in range(MAX_TRACKED_JOBS + 6):
        oracle.append(ev("job.finished", float(job), job=job, node=0))
    assert len(oracle._finished) == MAX_TRACKED_JOBS
    # An evicted job finishing "again" can no longer be flagged — the
    # price of bounded memory — but recent jobs still are.
    feed(oracle, ev("job.finished", 9e4, job=0, node=3))
    assert oracle.violations == []
    feed(oracle, ev("job.finished", 9e4, job=MAX_TRACKED_JOBS, node=3))
    assert len(oracle.violations) == 1


# ----------------------------------------------------------------------
# Stale-incarnation delivery
# ----------------------------------------------------------------------
def test_delivery_to_a_crashed_node_is_flagged():
    oracle = Oracle()
    feed(
        oracle,
        ev("node.crashed", 100.0, node=3),
        ev("msg.delivered", 110.0, type="Assign", src=0, dst=3),
    )
    assert len(oracle.violations) == 1
    assert "stale-incarnation" in oracle.violations[0]


def test_delivery_after_restart_is_clean():
    oracle = Oracle()
    feed(
        oracle,
        ev("node.crashed", 100.0, node=3),
        ev("node.restarted", 150.0, node=3, incarnation=1),
        ev("msg.delivered", 160.0, type="Assign", src=0, dst=3),
    )
    assert oracle.violations == []


# ----------------------------------------------------------------------
# Orphan-adoption convergence
# ----------------------------------------------------------------------
def test_orphan_adopted_within_grace_is_clean():
    oracle = Oracle()
    feed(
        oracle,
        ev("job.orphaned", 100.0, job=5, node=2),
        ev("job.adopted", 100.0 + ORPHAN_GRACE - 1, job=5, node=4),
        ev("job.submitted", 5 * ORPHAN_GRACE, job=6, node=0),  # time passes
    )
    assert oracle.violations == []


def test_orphan_outliving_the_grace_fails_convergence():
    oracle = Oracle()
    feed(
        oracle,
        ev("job.orphaned", 100.0, job=5, node=2),
        # The watermark advances past the grace.
        ev("job.submitted", 101.0 + ORPHAN_GRACE, job=6, node=0),
    )
    assert len(oracle.violations) == 1
    assert "orphan adoption failed to converge" in oracle.violations[0]


def test_close_sweeps_orphans_still_pending():
    oracle = Oracle()
    feed(
        oracle,
        ev("job.orphaned", 100.0, job=5, node=2),
        ev("job.submitted", 99.0 + ORPHAN_GRACE, job=6, node=0),  # inside
    )
    assert oracle.violations == []
    oracle._now = 5 * ORPHAN_GRACE  # the run ended much later
    oracle.close()
    assert len(oracle.violations) == 1


# ----------------------------------------------------------------------
# Tracking quiescence
# ----------------------------------------------------------------------
def test_probe_soon_after_finish_is_clean():
    oracle = Oracle()
    feed(
        oracle,
        ev("job.finished", 100.0, job=1, node=2),
        ev("probe.sent", 100.0 + SETTLE, job=1, node=0, target=2),
    )
    assert oracle.violations == []


def test_probe_long_after_finish_is_leaked_tracking_state():
    assert SETTLE == 1800.0
    oracle = Oracle()
    feed(
        oracle,
        ev("job.finished", 100.0, job=1, node=2),
        ev("probe.sent", 2500.0, job=1, node=0, target=2),
    )
    assert oracle.violations == [
        "job 1 still tracked by node 0 2400s after completing"
    ]


# ----------------------------------------------------------------------
# Agreement with the in-process feed
# ----------------------------------------------------------------------
# One run, judged by each feed: the grid's own oracle at the hooks, and a
# second oracle replaying the run's transport-level trace.  Their
# verdicts agree on real chaos runs.
def _replay(spec, options):
    result = run(
        spec,
        ScenarioScale.tiny(),
        seed=0,
        options=options,
        trace=TraceConfig(level="transport", sink="memory"),
    )
    oracle = Oracle()
    feed(oracle, *result.trace_events)
    oracle.close()
    return oracle.violations, result.summary().violations


def _chaos_kind(kind):
    duration = ScenarioScale.tiny().duration
    chaos = FaultPlan.chaos(duration)
    return {
        "crash+failsafe": (CrashPlan(), RunOptions(failsafe=True)),
        "faults": (chaos, RunOptions()),
        "failures": (
            FailureModel.chaos(duration),
            RunOptions(fault_plan=chaos),
        ),
    }[kind]


@pytest.mark.parametrize("kind", ["crash+failsafe", "faults", "failures"])
def test_replayed_trace_agrees_with_the_post_run_sweep(kind):
    online, post_run = _replay(*_chaos_kind(kind))
    assert online == []
    assert post_run == []


def test_churn_replay_reports_unadopted_orphans_only():
    # The churn kind keeps adoption off by design, so every orphan its
    # crashes leave stays unadopted: the replay says so and nothing else,
    # and the in-process feed (which has no orphan rule) stays clean.
    online, post_run = _replay(
        ChurnPlan(crash_weight=0.5), RunOptions(failsafe=True)
    )
    assert post_run == []
    assert online
    assert all("orphan adoption failed to converge" in v for v in online)
