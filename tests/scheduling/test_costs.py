"""Unit tests for the ETTC and NAL cost functions (paper §III-C)."""

import random

import pytest

from repro.errors import SchedulingError
from repro.scheduling import (
    SCHEDULER_FACTORIES,
    EDFScheduler,
    FCFSScheduler,
    SJFScheduler,
    reservation_completion_times,
)
from repro.scheduling.base import DEADLINE, QueuedJob
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


def reference_ettc(order, job_id, now, remaining, times=completion_times):
    """§III-C restated: every entry's ETC, then the first match's, made
    relative — built on ``completion_times``, which ``ettc`` no longer
    calls."""
    for entry, etc in zip(order, times(order, now, remaining)):
        if entry.job.job_id == job_id:
            return etc - now
    raise AssertionError(f"job {job_id} not in order")


def reference_nal(order, now, remaining):
    """§III-C restated: γ per entry, one δ per entry, Σ δ·|γ|."""
    gammas = [
        entry.job.deadline - etc
        for entry, etc in zip(order, completion_times(order, now, remaining))
    ]
    any_late = any(gamma < 0 for gamma in gammas)
    total = 0.0
    for gamma in gammas:
        if not any_late:
            delta = -1.0
        elif gamma >= 0:
            delta = 0.0
        else:
            delta = 1.0
        total += delta * abs(gamma)
    return total


@pytest.mark.parametrize("queue_length", [5, 200])
@pytest.mark.parametrize("scheduler_type", list(SCHEDULER_FACTORIES.values()))
def test_cached_costs_equal_the_reference_exactly(scheduler_type, queue_length):
    # Nothing is cached any more (the name is pinned by the tier-1 floor
    # list): every registry policy's quotes must equal the literal §III-C
    # restatement above *exactly*, also on queues far longer than any
    # golden run folds.
    rng = random.Random(queue_length)
    scheduler = scheduler_type()
    now, remaining = 12_345.678, 901.234

    def draw_job(job_id, ertp):
        return make_job(
            job_id,
            ert=ertp,
            deadline=now + rng.uniform(-HOUR, 400 * HOUR),
            priority=rng.randint(0, 3),
        )

    for job_id in range(queue_length):
        # Mixed magnitudes provoke a rounding difference in any fold
        # that reorders the summation.
        ertp = rng.uniform(0.001, 3600.0) * 10 ** rng.randint(-3, 3)
        scheduler.enqueue(draw_job(job_id, ertp), ertp, now=rng.uniform(0.0, now))
    deadline_family = scheduler.kind == DEADLINE
    # The reservation family's probe cost has its own completion-time
    # function (idle gaps); its INFORM quote is the plain ETTC.
    probe_times = (
        reservation_completion_times
        if scheduler.supports_reservations
        else completion_times
    )
    for probe_id in range(queue_length, queue_length + 5):
        ertp = rng.uniform(1.0, 3600.0)
        probe = draw_job(probe_id, ertp)
        order = scheduler.hypothetical_order(probe, ertp)
        expected = (
            reference_nal(order, now, remaining)
            if deadline_family
            else reference_ettc(order, probe_id, now, remaining, probe_times)
        )
        assert scheduler.cost_of(probe, ertp, now, remaining) == expected
    for job_id in rng.sample(range(queue_length), 5):
        order = scheduler.ordered_queue()
        expected = (
            reference_nal(order, now, remaining)
            if deadline_family
            else reference_ettc(order, job_id, now, remaining)
        )
        assert scheduler.queue_cost_of(job_id, now, remaining) == expected


def test_probe_with_an_already_queued_id_quotes_the_first_match():
    # A re-offer of a job this node already holds: the order then has two
    # entries with one id, and the quote is the earlier one's.
    s = FCFSScheduler()
    s.enqueue(make_job(1, ert=HOUR), HOUR, now=0.0)
    s.enqueue(make_job(2, ert=2 * HOUR), 2 * HOUR, now=1.0)
    cost = s.cost_of(make_job(1, ert=HOUR), HOUR, now=0.0, running_remaining=0.0)
    assert cost == HOUR  # the queued entry at the head, not the probe (4h)


@pytest.mark.parametrize("policy", ["FCFS", "SJF", "EDF"])
def test_negative_running_remaining_raises_from_every_quote(policy):
    s = SCHEDULER_FACTORIES[policy]()
    job = make_job(1, ert=HOUR, deadline=5 * HOUR)
    s.enqueue(job, HOUR, now=0.0)
    probe = make_job(2, ert=HOUR, deadline=5 * HOUR)
    with pytest.raises(SchedulingError):
        s.cost_of(probe, HOUR, now=0.0, running_remaining=-1.0)
    with pytest.raises(SchedulingError):
        s.queue_cost_of(1, now=0.0, running_remaining=-1.0)


def test_negative_running_remaining_raises_from_both_folds():
    order = [entry(1, HOUR, deadline=5 * HOUR)]
    with pytest.raises(SchedulingError):
        ettc(order, 1, now=0.0, running_remaining=-1.0)
    with pytest.raises(SchedulingError):
        nal(order, now=0.0, running_remaining=-1.0)
