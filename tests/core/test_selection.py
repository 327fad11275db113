"""Unit tests for INFORM candidate selection (§III-D)."""

import pytest

from repro.core import select_inform_candidates
from repro.scheduling import EDFScheduler, FCFSScheduler, SJFScheduler
from repro.types import HOUR

from ..helpers import make_job


def ids(entries):
    return [e.job.job_id for e in entries]


def test_batch_selects_longest_waiting_first():
    s = FCFSScheduler()
    s.enqueue(make_job(1, ert=HOUR), HOUR, now=50.0)
    s.enqueue(make_job(2, ert=HOUR), HOUR, now=10.0)  # waited longest
    s.enqueue(make_job(3, ert=HOUR), HOUR, now=30.0)
    picked = select_inform_candidates(s, 2, now=100.0, running_remaining=0.0)
    assert ids(picked) == [2, 3]


def test_count_limits_candidates():
    s = FCFSScheduler()
    for jid in range(1, 6):
        s.enqueue(make_job(jid, ert=HOUR), HOUR, now=float(jid))
    assert len(select_inform_candidates(s, 2, 100.0, 0.0)) == 2
    assert len(select_inform_candidates(s, 10, 100.0, 0.0)) == 5


def test_empty_queue_selects_nothing():
    assert select_inform_candidates(FCFSScheduler(), 2, 0.0, 0.0) == []


def test_deadline_selects_least_slack_first():
    s = EDFScheduler()
    # Two jobs: EDF order puts the 5h-deadline one first (finishes at 1h,
    # slack 4h); the 10h one second (finishes at 3h, slack 7h).
    s.enqueue(make_job(1, ert=2 * HOUR, deadline=10 * HOUR), 2 * HOUR, now=0.0)
    s.enqueue(make_job(2, ert=1 * HOUR, deadline=5 * HOUR), 1 * HOUR, now=1.0)
    picked = select_inform_candidates(s, 1, now=0.0, running_remaining=0.0)
    assert ids(picked) == [2]


def test_deadline_slack_accounts_for_running_job():
    s = EDFScheduler()
    s.enqueue(make_job(1, ert=HOUR, deadline=3 * HOUR), HOUR, now=0.0)
    s.enqueue(make_job(2, ert=HOUR, deadline=3.5 * HOUR), HOUR, now=1.0)
    # With 1h of running work ahead, job 1 finishes at 2h (slack 1h) and
    # job 2 at 3h (slack 0.5h): job 2 is now the most at risk.
    picked = select_inform_candidates(s, 1, now=0.0, running_remaining=HOUR)
    assert ids(picked) == [2]


def test_current_queue_cost_batch_is_position_ettc():
    s = SJFScheduler()
    s.enqueue(make_job(1, ert=3 * HOUR), 3 * HOUR, now=0.0)
    s.enqueue(make_job(2, ert=1 * HOUR), 1 * HOUR, now=1.0)
    # SJF order: job 2 then job 1.
    assert s.queue_cost_of(2, now=0.0, running_remaining=0.0) == HOUR
    assert s.queue_cost_of(1, now=0.0, running_remaining=0.0) == 4 * HOUR


def test_current_queue_cost_deadline_is_whole_queue_nal():
    s = EDFScheduler()
    s.enqueue(make_job(1, ert=HOUR, deadline=4 * HOUR), HOUR, now=0.0)
    s.enqueue(make_job(2, ert=HOUR, deadline=10 * HOUR), HOUR, now=1.0)
    # ETCs 1h and 2h; slacks 3h and 8h; NAL = -(11h) regardless of which
    # job the INFORM advertises.
    for job_id in (1, 2):
        assert s.queue_cost_of(
            job_id, now=0.0, running_remaining=0.0
        ) == -(11 * HOUR)
