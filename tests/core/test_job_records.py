"""Protocol tests: what an agent remembers about a job, per role.

One ``_Tracked`` record per job this node tracks as initiator, one
``_Held`` record per job it holds as assignee (the table in
``docs/PROTOCOL.md``).  These tests drive the handlers that create,
update and drop the records: a miss count or probe timer never outlives
its tracked job, and an initiator, adoption mark or deadline never
outlives its held job.
"""

import pytest

from repro.core import AriaConfig
from repro.core.messages import Accept, Assign, Probe, ProbeReply, Track
from repro.core.protocol import _Tracked
from repro.grid import NodeProfile
from repro.obs import TraceConfig, Tracer
from repro.sim.events import is_cancelled
from repro.types import HOUR, MINUTE

from ..helpers import LINUX_AMD64, make_job
from .conftest import MiniGrid, failsafe_config

#: Too little memory for ``make_job``'s requirements: never a taker.
TOO_SMALL = NodeProfile(
    architecture=LINUX_AMD64.architecture,
    memory_gb=1,
    disk_gb=LINUX_AMD64.disk_gb,
    os=LINUX_AMD64.os,
)


def assign(grid, assignee, job, initiator=0):
    grid.metrics.job_submitted(job, initiator, grid.sim.now)
    grid.agents[assignee]._handle_assign(
        initiator, Assign(initiator=initiator, job=job, reschedule=False)
    )


# ----------------------------------------------------------------------
# Initiator role: _Tracked
# ----------------------------------------------------------------------
def probing_agent():
    """Agent 0 tracks job 1 at assignee 1, one miss deep, probe in flight."""
    grid = MiniGrid(["FCFS"] * 3, config=failsafe_config())
    job = make_job(1, ert=HOUR)
    grid.metrics.job_submitted(job, 0, 0.0)
    agent = grid.agents[0]
    tracked = agent._tracked[1] = _Tracked(job, 1)
    tracked.misses = 1
    tracked.probe_timer = grid.sim.call_after(HOUR, agent._probe_missed, 1)
    return grid, agent, tracked


def test_track_resets_misses_and_leaves_the_probe_armed():
    _grid, agent, tracked = probing_agent()
    timer = tracked.probe_timer
    agent._handle_track(1, Track(1, 2))
    assert agent._tracked[1] is tracked
    assert (tracked.assignee, tracked.misses) == (2, 0)
    assert tracked.probe_timer is timer and not is_cancelled(timer)


def test_holds_reply_resets_misses_and_settles_only_its_own_probe():
    _grid, agent, tracked = probing_agent()
    timer = tracked.probe_timer
    agent._handle_probe_reply(1, ProbeReply(1, holds=True))
    assert agent._tracked[1] is tracked
    assert (tracked.assignee, tracked.misses) == (1, 0)
    assert tracked.probe_timer is None and is_cancelled(timer)
    # The next round's probe is armed on the same record, and a Track
    # that overtakes its reply leaves it armed.
    agent._failsafe_round()
    rearmed = tracked.probe_timer
    assert rearmed is not None and not is_cancelled(rearmed)
    agent._handle_track(1, Track(1, 2))
    assert tracked.probe_timer is rearmed and not is_cancelled(rearmed)


@pytest.mark.parametrize("how", ["untrack", "fail", "depart"])
def test_dropping_a_tracked_record_cancels_its_probe_timer(how):
    grid, agent, tracked = probing_agent()
    timer = tracked.probe_timer
    if how == "untrack":
        agent._untrack(1)
    elif how == "fail":
        agent.fail()
    else:
        agent.leave()
        grid.sim.run_until(grid.config.departure_grace + 1.0)
        assert agent.departed
    assert agent._tracked == {}
    assert is_cancelled(timer)
    # Nothing is left to count a miss against or to resubmit.
    grid.sim.run_until(2 * HOUR)
    assert grid.record(1).resubmissions == 0


# ----------------------------------------------------------------------
# Assignee role: _Held
# ----------------------------------------------------------------------
def holding_grid(config=None, profiles=None):
    """Agent 1 runs job 1 and queues job 2, both initiated by node 0."""
    grid = MiniGrid(
        ["FCFS"] * 3, config=config or failsafe_config(), profiles=profiles
    )
    assign(grid, 1, make_job(1, ert=HOUR))
    assign(grid, 1, make_job(2, ert=HOUR))
    return grid, grid.agents[1]


def test_assign_creates_the_held_record():
    grid, agent = holding_grid()
    assert list(agent._held) == [1, 2]
    held = agent._held[2]
    assert held.job.job_id == 2
    assert held.initiator == 0
    assert held.last_probe == grid.sim.now  # the ASSIGN seeds the detector
    assert not held.adopted
    assert held.exec_deadline is None  # straggler defense is off


def test_finish_drops_the_held_record():
    grid, agent = holding_grid()
    grid.sim.run_until(HOUR + MINUTE)
    assert grid.metrics.completed_jobs == 1
    assert list(agent._held) == [2]


def test_crash_drops_every_held_record():
    _grid, agent = holding_grid()
    agent.fail()
    assert agent._held == {}


def test_withdrawal_drops_the_record_and_keeps_the_initiator():
    grid, agent = holding_grid()
    # Node 2 offers to run the waiting job at once: it beats the hour of
    # queue wait, so agent 1 withdraws job 2 and re-ASSIGNs it.
    agent._handle_accept(2, Accept(2, 2, 0.0))
    assert list(agent._held) == [1]
    assert agent._redelegated[2] == 2
    grid.sim.run_until(1.0)
    assert grid.agents[2]._held[2].initiator == 0


def test_handoff_drops_the_record_and_the_discovery_carries_the_initiator():
    grid, agent = holding_grid()
    assert agent.leave() == 1
    assert list(agent._held) == [1]  # the running job stays held
    assert agent._pending[2].initiator == 0
    assert agent._pending[2].reschedule
    grid.sim.run_until(MINUTE)
    taker = next(a for a in grid.agents if a.node.holds_job(2))
    assert taker is not agent
    assert taker._held[2].initiator == 0


def test_handoff_without_a_taker_recreates_the_record_under_the_initiator():
    grid, agent = holding_grid(
        config=failsafe_config(max_request_retries=0),
        profiles=[TOO_SMALL, LINUX_AMD64, TOO_SMALL],
    )
    agent.leave()
    assert 2 not in agent._held
    # Mid-hand-off the leaving node still answers for the job, but there
    # is no held record for the probe to feed.
    agent._handle_probe(0, Probe(2, initiator=0))
    assert 2 not in agent._held
    grid.sim.run_until(MINUTE)
    assert grid.transport.is_registered(1)  # still here: it owes the job
    assert agent.node.holds_job(2) and 2 not in agent._pending
    held = agent._held[2]
    assert held.initiator == 0
    assert held.last_probe is None  # watched again from the next probe on
    agent._handle_probe(0, Probe(2, initiator=0))
    assert held.last_probe == grid.sim.now


def test_overdue_jobs_are_readvertised_in_assign_arrival_order():
    grid = MiniGrid(
        ["FCFS"] * 2,
        config=AriaConfig(
            rescheduling=True,
            inform_count=1,
            improvement_threshold=100 * HOUR,  # nobody pulls: order only
            exec_deadline_slack=2.0,
        ),
    )
    agent = grid.agents[1]
    # Arrival order 1 (runs), 4, 3, 2 — deliberately not id order.
    for job_id in (1, 4, 3, 2):
        assign(grid, 1, make_job(job_id, ert=HOUR))
    grid.sim.run_until(1.0)
    assert agent._held[1].exec_deadline is None  # running: nothing to defend
    for job_id in (3, 2):
        agent._held[job_id].exec_deadline = 0.5
    sink = []
    agent._trace = Tracer(TraceConfig(level="protocol", sink="memory"), sink)
    agent._inform_round()
    advertised = [e["job"] for e in sink if e["ev"] == "inform.broadcast"]
    # Job 4 is the round's one regular candidate (longest waiting); the
    # overdue jobs are forced in behind it, oldest ASSIGN first.
    assert advertised == [4, 3, 2]
    assert [e["job"] for e in sink if e["ev"] == "deadline.exceeded"] == [3, 2]
    assert agent._held[3].overdue and agent._held[2].overdue
    assert not agent._held[4].overdue
    # A second round re-advertises them without counting them again.
    agent._inform_round()
    assert grid.metrics.deadline_exceeded_jobs == 2
