"""Unit tests for the grid node executor and its invariants."""

import pytest

from repro.errors import SchedulingError
from repro.grid import AccuracyModel, Architecture, NodeProfile, OperatingSystem
from repro.scheduling import EDFScheduler, SJFScheduler
from repro.types import HOUR

from ..helpers import make_job, make_node


def test_accept_starts_execution_immediately_when_idle():
    sim, node = make_node()
    job = make_job(1, ert=HOUR)
    node.accept_job(job)
    assert node.running is not None
    assert node.running.job is job
    assert node.queue_length == 0


def test_one_job_at_a_time():
    sim, node = make_node()
    node.accept_job(make_job(1, ert=HOUR))
    node.accept_job(make_job(2, ert=HOUR))
    assert node.running.job.job_id == 1
    assert node.queue_length == 1


def test_completion_starts_next_job_and_counts():
    sim, node = make_node()
    node.accept_job(make_job(1, ert=HOUR))
    node.accept_job(make_job(2, ert=2 * HOUR))
    sim.run_until(HOUR)
    assert node.completed_jobs == 1
    assert node.running.job.job_id == 2
    sim.run_until(3 * HOUR)
    assert node.completed_jobs == 2
    assert node.is_idle


def test_precise_accuracy_finishes_exactly_at_ertp():
    sim, node = make_node(performance_index=2.0)
    node.accept_job(make_job(1, ert=HOUR))
    sim.run_until(HOUR / 2 - 1)
    assert node.running is not None
    sim.run_until(HOUR / 2)
    assert node.running is None


def test_cannot_accept_unmatching_job():
    profile = NodeProfile(
        architecture=Architecture.POWER,
        memory_gb=8,
        disk_gb=8,
        os=OperatingSystem.LINUX,
    )
    sim, node = make_node(profile=profile)
    with pytest.raises(SchedulingError):
        node.accept_job(make_job(1))


@pytest.mark.parametrize(
    "scheduler,job",
    [
        (None, make_job(1, deadline=4 * HOUR)),
        (EDFScheduler(), make_job(1)),
        (None, make_job(1, not_before=HOUR)),
    ],
    ids=["deadline-on-batch", "batch-on-deadline", "reservation-on-fcfs"],
)
def test_cannot_accept_a_job_outside_the_hosting_rule(scheduler, job):
    """``accept_job`` holds the same rule the agents offer by: the profile
    matches here, the scheduler family or reservation support does not."""
    sim, node = make_node(scheduler=scheduler)
    assert not node.can_host(job)
    with pytest.raises(SchedulingError):
        node.accept_job(job)
    assert node.is_idle


def test_withdraw_waiting_job():
    sim, node = make_node()
    node.accept_job(make_job(1, ert=HOUR))
    node.accept_job(make_job(2, ert=HOUR))
    entry = node.withdraw_job(2)
    assert entry is not None
    assert entry.job.job_id == 2
    assert node.queue_length == 0
    assert not node.holds_job(2)


def test_withdraw_running_job_is_refused():
    sim, node = make_node()
    node.accept_job(make_job(1, ert=HOUR))
    assert node.withdraw_job(1) is None
    assert node.holds_job(1)


def test_withdraw_unknown_job_returns_none():
    sim, node = make_node()
    assert node.withdraw_job(42) is None


def test_started_job_runs_to_completion_even_if_late_offers_arrive():
    # no preemption: once running, the job finishes on this node
    sim, node = make_node()
    node.accept_job(make_job(1, ert=HOUR))
    sim.run_until(HOUR / 2)
    assert node.withdraw_job(1) is None
    sim.run_until(HOUR)
    assert node.completed_jobs == 1


def test_callbacks_fire_with_running_info():
    sim, node = make_node()
    events = []
    node.on_job_started.append(lambda n, r: events.append(("start", sim.now, r.job.job_id)))
    node.on_job_finished.append(lambda n, r: events.append(("finish", sim.now, r.job.job_id)))
    node.accept_job(make_job(1, ert=HOUR))
    sim.run_until(2 * HOUR)
    assert events == [("start", 0.0, 1), ("finish", HOUR, 1)]


def test_running_remaining_uses_ertp_estimate():
    sim, node = make_node(performance_index=2.0, accuracy=AccuracyModel(epsilon=0.0))
    node.accept_job(make_job(1, ert=2 * HOUR))  # ERTp = 1h
    sim.call_at(HOUR / 2, lambda: None)
    sim.run_until(HOUR / 2)
    assert node.running_remaining() == pytest.approx(HOUR / 2)


def test_running_remaining_zero_when_idle():
    _, node = make_node()
    assert node.running_remaining() == 0.0


def test_cost_for_fcfs_accumulates_queue():
    sim, node = make_node()
    node.accept_job(make_job(1, ert=HOUR))      # running, remaining 1h
    node.accept_job(make_job(2, ert=2 * HOUR))  # queued
    cost = node.cost_for(make_job(3, ert=HOUR))
    assert cost == pytest.approx(4 * HOUR)  # 1h remaining + 2h + 1h


def test_executor_respects_scheduler_order():
    sim, node = make_node(scheduler=SJFScheduler())
    node.accept_job(make_job(1, ert=3 * HOUR))  # starts immediately
    node.accept_job(make_job(2, ert=2 * HOUR))
    node.accept_job(make_job(3, ert=1 * HOUR))
    order = []
    node.on_job_started.append(lambda n, r: order.append(r.job.job_id))
    sim.run_until(10 * HOUR)
    assert order == [3, 2]  # shortest first among the waiting jobs


def test_is_idle_reflects_running_and_queue():
    sim, node = make_node()
    assert node.is_idle
    node.accept_job(make_job(1, ert=HOUR))
    assert not node.is_idle
    sim.run_until(HOUR)
    assert node.is_idle
