"""Unit tests for the streaming invariant checker (soak-mode core).

Each test feeds a small synthetic event stream straight into
:class:`~repro.experiments.OnlineInvariantChecker` — no grid, no
transport — and asserts the checker's verdict, its tee-through to the
downstream sink, and that its state stays bounded.  The last section
replays real chaos runs instead and pins the checker's agreement with
the post-run sweep.
"""

import pytest

from repro.experiments import (
    ChurnPlan,
    CrashPlan,
    FailureModel,
    FaultPlan,
    OnlineInvariantChecker,
    RunOptions,
    ScenarioScale,
    TraceConfig,
    run,
)
from repro.obs import MemorySink


def ev(name, t, **fields):
    """One synthetic trace event in the bus's wire shape."""
    event = {"ev": name, "t": t}
    event.update(fields)
    return event


def feed(checker, *events):
    for event in events:
        checker.append(event)
    return checker


# ----------------------------------------------------------------------
# Tee behaviour
# ----------------------------------------------------------------------
def test_clean_stream_forwards_everything_and_stays_silent():
    sink = MemorySink()
    checker = OnlineInvariantChecker(sink)
    events = [
        ev("job.submitted", 10.0, job=1, node=0),
        ev("job.assigned", 20.0, job=1, node=2, cost=5.0),
        ev("job.finished", 900.0, job=1, node=2),
    ]
    feed(checker, *events)
    assert checker.violations == []
    assert checker.checked == 3
    assert sink.events == events
    checker.close()  # closes the downstream sink without raising


def test_checker_without_sink_checks_and_drops():
    checker = OnlineInvariantChecker()
    feed(checker, ev("job.finished", 1.0, job=1, node=0))
    assert checker.sink is None
    assert checker.checked == 1
    checker.close()


# ----------------------------------------------------------------------
# Double execution
# ----------------------------------------------------------------------
def test_second_finish_of_a_job_is_a_double_execution():
    checker = OnlineInvariantChecker()
    feed(
        checker,
        ev("job.finished", 100.0, job=7, node=1),
        ev("job.finished", 250.0, job=7, node=4),
    )
    assert len(checker.violations) == 1
    assert "double execution" in checker.violations[0]
    assert "job 7" in checker.violations[0]
    # A third sighting of the same job adds nothing new.
    feed(checker, ev("job.finished", 300.0, job=7, node=5))
    assert len(checker.violations) == 1


def test_on_violation_fires_once_per_new_violation():
    seen = []
    checker = OnlineInvariantChecker(on_violation=seen.append)
    feed(
        checker,
        ev("job.finished", 1.0, job=1, node=0),
        ev("job.finished", 2.0, job=1, node=1),
        ev("job.finished", 3.0, job=1, node=2),
        ev("job.finished", 4.0, job=2, node=0),
        ev("job.finished", 5.0, job=2, node=1),
    )
    assert seen == checker.violations
    assert len(seen) == 2


def test_finished_job_memory_is_lru_bounded():
    checker = OnlineInvariantChecker(max_tracked_jobs=4)
    for job in range(10):
        checker.append(ev("job.finished", float(job), job=job, node=0))
    assert len(checker._finished) == 4
    # An evicted job finishing "again" can no longer be flagged — the
    # price of bounded memory — but recent jobs still are.
    feed(checker, ev("job.finished", 50.0, job=9, node=3))
    assert len(checker.violations) == 1


# ----------------------------------------------------------------------
# Stale-incarnation delivery
# ----------------------------------------------------------------------
def test_delivery_to_a_crashed_node_is_flagged():
    checker = OnlineInvariantChecker()
    feed(
        checker,
        ev("node.crashed", 100.0, node=3),
        ev("msg.delivered", 110.0, type="Assign", src=0, dst=3),
    )
    assert len(checker.violations) == 1
    assert "stale-incarnation" in checker.violations[0]


def test_delivery_after_restart_is_clean():
    checker = OnlineInvariantChecker()
    feed(
        checker,
        ev("node.crashed", 100.0, node=3),
        ev("node.restarted", 150.0, node=3, incarnation=1),
        ev("msg.delivered", 160.0, type="Assign", src=0, dst=3),
    )
    assert checker.violations == []


# ----------------------------------------------------------------------
# Orphan-adoption convergence
# ----------------------------------------------------------------------
def test_orphan_adopted_within_grace_is_clean():
    checker = OnlineInvariantChecker(orphan_grace=1000.0)
    feed(
        checker,
        ev("job.orphaned", 100.0, job=5, node=2),
        ev("job.adopted", 600.0, job=5, node=4),
        ev("job.submitted", 5000.0, job=6, node=0),  # time passes
    )
    assert checker.violations == []


def test_orphan_outliving_the_grace_fails_convergence():
    checker = OnlineInvariantChecker(orphan_grace=1000.0)
    feed(
        checker,
        ev("job.orphaned", 100.0, job=5, node=2),
        ev("job.submitted", 2000.0, job=6, node=0),  # watermark advances
    )
    assert len(checker.violations) == 1
    assert "orphan adoption failed to converge" in checker.violations[0]


def test_close_sweeps_orphans_still_pending():
    checker = OnlineInvariantChecker(orphan_grace=1000.0)
    feed(
        checker,
        ev("job.orphaned", 100.0, job=5, node=2),
        ev("job.submitted", 900.0, job=6, node=0),  # inside grace
    )
    assert checker.violations == []
    checker._now = 5000.0  # the run ended much later
    checker.close()
    assert len(checker.violations) == 1


# ----------------------------------------------------------------------
# Tracking quiescence
# ----------------------------------------------------------------------
def test_probe_soon_after_finish_is_clean():
    checker = OnlineInvariantChecker(settle=1800.0)
    feed(
        checker,
        ev("job.finished", 100.0, job=1, node=2),
        ev("probe.sent", 500.0, job=1, node=0, target=2),
    )
    assert checker.violations == []


def test_probe_long_after_finish_is_leaked_tracking_state():
    checker = OnlineInvariantChecker(settle=1800.0)
    feed(
        checker,
        ev("job.finished", 100.0, job=1, node=2),
        ev("probe.sent", 2500.0, job=1, node=0, target=2),
    )
    assert len(checker.violations) == 1
    assert "tracking state leaked" in checker.violations[0]


# ----------------------------------------------------------------------
# Agreement with the post-run checker (experiments/invariants.py)
# ----------------------------------------------------------------------
# Twelve rules live in two modules; only double execution and tracking
# quiescence are stated in both.  Rather than merge them (the post-run
# rules read final queues no trace records), pin that the two verdicts
# agree on real chaos runs replayed from their transport-level trace.
def _replay(spec, options):
    result = run(
        spec,
        ScenarioScale.tiny(),
        seed=0,
        options=options,
        trace=TraceConfig(level="transport", sink="memory"),
    )
    checker = OnlineInvariantChecker()
    feed(checker, *result.trace_events)
    checker.close()
    return checker.violations, result.summary().violations


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
    # and the post-run sweep (which has no orphan rule) stays clean.
    online, post_run = _replay(
        ChurnPlan(crash_weight=0.5), RunOptions(failsafe=True)
    )
    assert post_run == []
    assert online
    assert all("orphan adoption failed to converge" in v for v in online)
