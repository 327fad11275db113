"""Property-based tests for schedulers and cost functions."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    SCHEDULER_FACTORIES,
    EDFScheduler,
    FCFSScheduler,
    LJFScheduler,
    SJFScheduler,
    completion_times,
    nal,
)
from repro.scheduling.base import QueuedJob
from repro.types import HOUR

from ..helpers import make_job

erts = st.floats(min_value=60.0, max_value=4 * HOUR, allow_nan=False)
arrival_times = st.floats(min_value=0.0, max_value=10 * HOUR, allow_nan=False)
batch_factories = st.sampled_from([FCFSScheduler, SJFScheduler, LJFScheduler])


@st.composite
def batch_queues(draw, min_size=0, max_size=12):
    """A scheduler preloaded with random jobs, plus the fill data."""
    factory = draw(batch_factories)
    scheduler = factory()
    jobs = draw(
        st.lists(st.tuples(erts, arrival_times), min_size=min_size, max_size=max_size)
    )
    for index, (ert, arrival) in enumerate(sorted(jobs, key=lambda x: x[1])):
        scheduler.enqueue(make_job(index + 1, ert=ert), ert, now=arrival)
    return scheduler


@given(batch_queues())
def test_execution_order_is_a_permutation(scheduler):
    order = scheduler.ordered_queue()
    assert sorted(e.job.job_id for e in order) == sorted(
        e.job.job_id for e in scheduler.queued()
    )


@given(batch_queues(min_size=1))
def test_pop_next_drains_in_policy_order(scheduler):
    expected = [e.job.job_id for e in scheduler.ordered_queue()]
    popped = []
    while True:
        entry = scheduler.pop_next()
        if entry is None:
            break
        popped.append(entry.job.job_id)
    # Arrival-stable policies keep the same order while draining: each
    # popped job was the head of the remaining order.
    assert popped == expected
    assert len(scheduler) == 0


@given(batch_queues(), erts, st.floats(min_value=0, max_value=HOUR))
def test_batch_cost_is_positive_and_at_least_ertp(scheduler, ert, running):
    job = make_job(999, ert=ert)
    cost = scheduler.cost_of(job, ert, now=0.0, running_remaining=running)
    assert cost >= ert  # cannot finish faster than its own ERTp
    assert cost >= running  # cannot start before the running job ends


@given(batch_queues(), erts)
def test_fcfs_cost_equals_total_backlog(scheduler, ert):
    # Only meaningful for FCFS: the probe lands at the end of the queue.
    if not isinstance(scheduler, FCFSScheduler):
        scheduler = FCFSScheduler()
    job = make_job(999, ert=ert)
    backlog = sum(e.ertp for e in scheduler.queued())
    cost = scheduler.cost_of(job, ert, now=0.0, running_remaining=100.0)
    assert math.isclose(cost, 100.0 + backlog + ert)


@given(batch_queues(), erts, erts)
def test_cost_monotonic_in_running_remaining(scheduler, ert, extra):
    job = make_job(999, ert=ert)
    low = scheduler.cost_of(job, ert, now=0.0, running_remaining=0.0)
    high = scheduler.cost_of(job, ert, now=0.0, running_remaining=extra)
    assert high >= low


@given(st.lists(st.tuples(erts, arrival_times), min_size=1, max_size=10))
def test_completion_times_are_strictly_increasing(jobs):
    entries = [
        QueuedJob(make_job(i + 1, ert=ert), ert, arrival)
        for i, (ert, arrival) in enumerate(jobs)
    ]
    etcs = completion_times(entries, now=50.0, running_remaining=10.0)
    assert all(b > a for a, b in zip(etcs, etcs[1:]))
    assert etcs[0] == 50.0 + 10.0 + entries[0].ertp


@st.composite
def deadline_entries(draw, min_size=1, max_size=10):
    jobs = draw(
        st.lists(
            st.tuples(erts, st.floats(min_value=0, max_value=30 * HOUR)),
            min_size=min_size,
            max_size=max_size,
        )
    )
    return [
        QueuedJob(
            make_job(i + 1, ert=ert, deadline=ert + slack + 1.0), ert, 0.0
        )
        for i, (ert, slack) in enumerate(jobs)
    ]


@given(deadline_entries())
def test_nal_sign_reflects_deadline_feasibility(entries):
    etcs = completion_times(entries, now=0.0, running_remaining=0.0)
    gammas = [e.job.deadline - etc for e, etc in zip(entries, etcs)]
    value = nal(entries, now=0.0, running_remaining=0.0)
    if all(g >= 0 for g in gammas):
        # All on time: NAL is the negated total slack.
        assert math.isclose(value, -sum(abs(g) for g in gammas))
        assert value <= 0
    else:
        # Late jobs contribute their lateness; on-time jobs nothing.
        assert math.isclose(
            value, sum(abs(g) for g in gammas if g < 0)
        )
        assert value > 0


@given(deadline_entries(max_size=8))
def test_edf_orders_by_deadline_always(entries):
    scheduler = EDFScheduler()
    for entry in entries:
        scheduler.enqueue(entry.job, entry.ertp, now=0.0)
    order = scheduler.ordered_queue()
    deadlines = [e.job.deadline for e in order]
    assert deadlines == sorted(deadlines)


@given(batch_queues(min_size=1), erts)
@settings(max_examples=50)
def test_hypothetical_order_never_mutates(scheduler, ert):
    before = [e.job.job_id for e in scheduler.queued()]
    scheduler.hypothetical_order(make_job(999, ert=ert), ert)
    assert [e.job.job_id for e in scheduler.queued()] == before


queue_ops = st.one_of(
    st.tuples(
        st.just("enqueue"),
        erts,
        st.integers(min_value=0, max_value=3),  # priority
        st.floats(min_value=0, max_value=30 * HOUR),  # deadline slack
    ),
    st.tuples(st.just("remove"), st.integers(min_value=0)),
    st.tuples(st.just("pop_next")),
)


@given(
    st.sampled_from(sorted(SCHEDULER_FACTORIES)),
    st.lists(queue_ops, max_size=25),
    erts,
    st.floats(min_value=0, max_value=HOUR),
)
def test_quotes_depend_on_the_queue_not_on_its_history(policy, ops, ert, running):
    # Schedulers keep no state between quotes beyond the queue itself:
    # after any interleaving of mutations, a scheduler quotes exactly what
    # one freshly built from the surviving entries does.
    scheduler = SCHEDULER_FACTORIES[policy]()
    survivors = {}
    clock = 0.0
    for index, (op, *params) in enumerate(ops):
        clock += 60.0
        if op == "enqueue":
            ertp, priority, slack = params
            job = make_job(
                index + 1, ert=ertp, priority=priority,
                deadline=clock + ertp + slack,
            )
            survivors[job.job_id] = scheduler.enqueue(job, ertp, now=clock)
        elif op == "remove" and survivors:
            job_id = sorted(survivors)[params[0] % len(survivors)]
            assert scheduler.remove(job_id) is survivors.pop(job_id)
        elif op == "pop_next" and survivors:
            del survivors[scheduler.pop_next().job.job_id]
    fresh = SCHEDULER_FACTORIES[policy]()
    for entry in survivors.values():  # dicts keep arrival order
        fresh.enqueue(entry.job, entry.ertp, now=entry.enqueue_time)
    probe = make_job(999, ert=ert, deadline=clock + 10 * HOUR)
    quote = dict(now=clock, running_remaining=running)
    assert scheduler.cost_of(probe, ert, **quote) == fresh.cost_of(
        probe, ert, **quote
    )
    for job_id in survivors:
        assert scheduler.queue_cost_of(job_id, **quote) == fresh.queue_cost_of(
            job_id, **quote
        )
