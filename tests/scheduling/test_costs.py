"""Unit tests for the ETTC and NAL cost functions (paper §III-C)."""

import random

import pytest

from repro.errors import SchedulingError
from repro.scheduling import (
    EDFScheduler,
    FCFSScheduler,
    LJFScheduler,
    SJFScheduler,
)
from repro.scheduling.base import QueuedJob
from repro.scheduling.costs import completion_times, ettc, nal
from repro.types import HOUR

from ..helpers import make_job


def entry(job_id, ert, deadline=None, enqueue=0.0):
    job = make_job(job_id, ert=ert, deadline=deadline)
    return QueuedJob(job, ert, enqueue)


def test_completion_times_accumulate():
    order = [entry(1, HOUR), entry(2, 2 * HOUR)]
    etcs = completion_times(order, now=100.0, running_remaining=50.0)
    assert etcs == [100.0 + 50.0 + HOUR, 100.0 + 50.0 + 3 * HOUR]


def test_completion_times_reject_negative_remaining():
    with pytest.raises(SchedulingError):
        completion_times([], now=0.0, running_remaining=-1.0)


def test_ettc_is_relative_time():
    order = [entry(1, HOUR), entry(2, 2 * HOUR)]
    assert ettc(order, 2, now=500.0, running_remaining=0.0) == 3 * HOUR


def test_ettc_missing_job_raises():
    with pytest.raises(SchedulingError):
        ettc([entry(1, HOUR)], 99, now=0.0, running_remaining=0.0)


def test_ettc_on_empty_node_is_just_ertp():
    s = FCFSScheduler()
    assert s.cost_of(make_job(1, ert=HOUR), HOUR, now=0.0, running_remaining=0.0) == HOUR


def test_fcfs_cost_counts_whole_queue():
    s = FCFSScheduler()
    s.enqueue(make_job(1, ert=2 * HOUR), 2 * HOUR, now=0.0)
    cost = s.cost_of(make_job(2, ert=HOUR), HOUR, now=0.0, running_remaining=HOUR)
    assert cost == 4 * HOUR  # 1h running + 2h queued + 1h itself


def test_sjf_cost_lets_short_jobs_jump_queue():
    s = SJFScheduler()
    s.enqueue(make_job(1, ert=3 * HOUR), 3 * HOUR, now=0.0)
    # A 1h job slots before the queued 3h job under SJF.
    cost = s.cost_of(make_job(2, ert=HOUR), HOUR, now=0.0, running_remaining=0.0)
    assert cost == HOUR
    # The same probe under FCFS would cost 4h.
    f = FCFSScheduler()
    f.enqueue(make_job(1, ert=3 * HOUR), 3 * HOUR, now=0.0)
    assert f.cost_of(make_job(2, ert=HOUR), HOUR, now=0.0, running_remaining=0.0) == 4 * HOUR


def test_nal_all_on_time_is_negative_total_slack():
    # Two jobs, both comfortably before their deadlines.
    order = [
        entry(1, HOUR, deadline=4 * HOUR),
        entry(2, HOUR, deadline=10 * HOUR),
    ]
    value = nal(order, now=0.0, running_remaining=0.0)
    # ETC = 1h and 2h; slacks 3h and 8h; all on time => -(3h + 8h)
    assert value == -(3 * HOUR + 8 * HOUR)


def test_nal_late_jobs_contribute_positive_lateness():
    order = [
        entry(1, 2 * HOUR, deadline=HOUR),  # 1h late
        entry(2, HOUR, deadline=10 * HOUR),  # on time, but queue has lateness
    ]
    value = nal(order, now=0.0, running_remaining=0.0)
    # gamma1 = 1h - 2h = -1h (late: delta=1); gamma2 = 7h (on time in a
    # late queue: delta=0) => NAL = +1h
    assert value == HOUR


def test_nal_prefers_nodes_that_keep_deadlines():
    # NAL is computed over the whole hypothetical queue Q' (paper formula),
    # so a node where the probe would cause a missed deadline must quote a
    # strictly worse (higher) cost than an idle node that meets it.
    overloaded = EDFScheduler()
    overloaded.enqueue(
        make_job(1, ert=5 * HOUR, deadline=5.5 * HOUR), 5 * HOUR, now=0.0
    )
    idle = EDFScheduler()
    probe = make_job(2, ert=HOUR, deadline=2 * HOUR)
    late_cost = overloaded.cost_of(probe, HOUR, now=0.0, running_remaining=0.0)
    idle_cost = idle.cost_of(probe, HOUR, now=0.0, running_remaining=0.0)
    assert idle_cost < 0 <= late_cost


def test_nal_rewards_accumulated_slack():
    # Corollary of the whole-queue formula: when everything is on time the
    # cost is the *negated total slack*, so a queue of comfortable jobs
    # quotes lower than an empty one.  This is the paper-literal behaviour.
    busy = EDFScheduler()
    busy.enqueue(make_job(1, ert=HOUR, deadline=20 * HOUR), HOUR, now=0.0)
    idle = EDFScheduler()
    probe = make_job(2, ert=HOUR, deadline=6 * HOUR)
    busy_cost = busy.cost_of(probe, HOUR, now=0.0, running_remaining=0.0)
    idle_cost = idle.cost_of(probe, HOUR, now=0.0, running_remaining=0.0)
    assert busy_cost < idle_cost


def test_nal_requires_deadlines():
    with pytest.raises(SchedulingError):
        nal([entry(1, HOUR, deadline=None)], now=0.0, running_remaining=0.0)


def test_nal_uses_edf_order_for_etc():
    # Earlier-deadline job runs first, so the later one accumulates its ERTp.
    s = EDFScheduler()
    s.enqueue(make_job(1, ert=2 * HOUR, deadline=3 * HOUR), 2 * HOUR, now=0.0)
    probe = make_job(2, ert=HOUR, deadline=2.5 * HOUR)
    # Probe's deadline (2.5h) is earlier: it runs first, pushing job 1 to
    # ETC=3h (slack 0) while the probe finishes at 1h (slack 1.5h).
    cost = s.cost_of(probe, HOUR, now=0.0, running_remaining=0.0)
    assert cost == -(1.5 * HOUR + 0.0)


@pytest.mark.parametrize("queue_length", [5, 200])
@pytest.mark.parametrize(
    "scheduler_type", [FCFSScheduler, SJFScheduler, LJFScheduler, EDFScheduler]
)
def test_cached_costs_equal_the_reference_exactly(scheduler_type, queue_length):
    # The version-keyed caches (order, bisected probe position, prefix
    # fold) must replay the reference float operations in the reference
    # order: exact equality, also on queues far longer than any golden
    # run folds.
    rng = random.Random(queue_length)
    scheduler = scheduler_type()
    now, remaining = 12_345.678, 901.234
    for job_id in range(queue_length):
        # Mixed magnitudes provoke a rounding difference in any fold
        # that reorders the summation.
        ertp = rng.uniform(0.001, 3600.0) * 10 ** rng.randint(-3, 3)
        deadline = now + rng.uniform(-HOUR, 400 * HOUR)
        scheduler.enqueue(
            make_job(job_id, ert=ertp, deadline=deadline),
            ertp,
            now=rng.uniform(0.0, now),
        )
    deadline_family = scheduler_type is EDFScheduler
    for probe_id in range(queue_length, queue_length + 5):
        ertp = rng.uniform(1.0, 3600.0)
        probe = make_job(
            probe_id, ert=ertp, deadline=now + rng.uniform(0.0, 400 * HOUR)
        )
        order = scheduler.hypothetical_order(probe, ertp)
        expected = (
            nal(order, now, remaining)
            if deadline_family
            else ettc(order, probe_id, now, remaining)
        )
        assert scheduler.cost_of(probe, ertp, now, remaining) == expected
    for job_id in rng.sample(range(queue_length), 5):
        order = scheduler.ordered_queue()
        expected = (
            nal(order, now, remaining)
            if deadline_family
            else ettc(order, job_id, now, remaining)
        )
        assert scheduler.queue_cost_of(job_id, now, remaining) == expected
