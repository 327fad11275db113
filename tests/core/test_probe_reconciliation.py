"""Protocol tests: probe-reply reconciliation under lossy control plane.

The fail-safe extension (§III-D) assumes Track/Done notifications arrive.
On an unreliable network either can be permanently lost (e.g. dropped
throughout a partition while the retry budget runs out), so ProbeReply
carries two reconciliation fields — ``done`` and ``new_assignee`` — that
let the initiator repair its tracking state from the probed node's own
memory.  These tests drive the reconciliation paths directly.
"""

from repro.core.messages import Probe, ProbeReply
from repro.core.protocol import _Tracked
from repro.types import HOUR, MINUTE

from ..helpers import make_job
from .conftest import MiniGrid, failsafe_config


def tracked_grid(n=3):
    """A grid where agent 0 tracks job 1 with believed assignee 1."""
    grid = MiniGrid(["FCFS"] * n, config=failsafe_config())
    job = make_job(1, ert=HOUR)
    grid.metrics.job_submitted(job, 0, 0.0)
    grid.agents[0]._tracked[1] = _Tracked(job, 1)
    return grid, job


def test_done_reply_heals_a_lost_done_notification():
    # Agent 1 executed job 1 but its Done never arrived: agent 0 still
    # tracks it.  The probe reply's ``done`` flag reconciles.
    grid, _job = tracked_grid()
    grid.agents[1]._completed.add(1, 0.0)
    grid.agents[1]._handle_probe(0, Probe(1, initiator=0))
    grid.sim.run_until(MINUTE)
    assert 1 not in grid.agents[0]._tracked


def test_forwarding_pointer_heals_a_lost_track_notification():
    # Agent 1 re-delegated job 1 to agent 2 but the Track was lost: the
    # probe reply's forwarding pointer redirects the tracking.
    grid, job = tracked_grid()
    grid.agents[1]._redelegated[1] = 2
    grid.agents[2].node.accept_job(job)
    grid.agents[1]._handle_probe(0, Probe(1, initiator=0))
    grid.sim.run_until(MINUTE)
    tracked = grid.agents[0]._tracked[1]
    assert (tracked.job, tracked.assignee) == (job, 2)
    assert tracked.misses == 0


def test_pointer_back_at_self_without_the_job_counts_as_miss():
    # The forwarding pointer says "I sent it back to you", but nothing
    # ever arrived — the re-ASSIGN itself died.  Tracking it forever
    # would strand the job; the reply must count as a probe miss.
    grid, _job = tracked_grid()
    grid.agents[0]._handle_probe_reply(
        1, ProbeReply(1, holds=False, new_assignee=0)
    )
    assert grid.agents[0]._tracked[1].misses == 1  # one miss does not resubmit


def test_duplicate_not_held_reply_counts_one_miss():
    # At-least-once delivery can hand the initiator the same "not held"
    # reply twice.  Only the copy that settles the pending probe timeout
    # may count — otherwise one unanswered round looks like two.
    grid, _job = tracked_grid()
    agent = grid.agents[0]
    agent._tracked[1].probe_timer = grid.sim.call_after(
        10.0, agent._probe_missed, 1
    )
    agent._handle_probe_reply(1, ProbeReply(1, holds=False))
    assert agent._tracked[1].misses == 1
    agent._handle_probe_reply(1, ProbeReply(1, holds=False))  # duplicate
    assert agent._tracked[1].misses == 1  # still one miss


def test_held_reply_clears_suspicion():
    grid, job = tracked_grid()
    grid.agents[1].node.accept_job(job)
    tracked = grid.agents[0]._tracked[1]
    tracked.misses = 1
    grid.agents[1]._handle_probe(0, Probe(1, initiator=0))
    grid.sim.run_until(MINUTE)
    assert tracked.misses == 0
    assert grid.agents[0]._tracked[1] is tracked
    assert (tracked.job, tracked.assignee) == (job, 1)


def test_resubmitted_job_rejects_stale_duplicate_assign():
    # A node that already executed a job drops a late duplicate ASSIGN
    # for it (lost-Done + fail-safe resubmission race): accepting would
    # double-execute.
    from repro.core.messages import Assign

    grid, job = tracked_grid()
    agent = grid.agents[1]
    agent._completed.add(1, 0.0)
    agent._handle_assign(0, Assign(initiator=0, job=job, reschedule=False))
    assert not agent.node.holds_job(1)
    assert grid.metrics.records[1].assignments == []
