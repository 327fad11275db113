"""Protocol tests: crash-restart incarnations, orphan adoption, deadlines.

Three robustness mechanisms layered onto the §III-D fail-safe:

* **Crash-restart** — a crashed node may rejoin under a fresh
  incarnation; volatile state is lost, the completion journal survives.
* **Orphan adoption** — an assignee whose initiator has gone silent for
  ``adoption_windows`` probe intervals takes over the initiator role
  (the initiator-crash blind spot of the paper's fail-safe sketch).
* **Execution deadlines** — a queued job stuck past its estimate on a
  (possibly fail-slow) node is re-advertised with a growing cost
  penalty until another node pulls it away.
"""

import pytest

from repro.core import AriaConfig
from repro.core.journal import DurableJournal
from repro.core.messages import Assign, Probe
from repro.core.protocol import _Tracked
from repro.errors import ProtocolError, SchedulingError
from repro.obs import TraceConfig, Tracer
from repro.types import HOUR, MINUTE

from ..helpers import make_job
from .conftest import MiniGrid, failsafe_config


def assign_tracked_job(grid, job, initiator=0, assignee=1):
    """Deliver an ASSIGN and mirror the initiator-side tracking state."""
    grid.metrics.job_submitted(job, initiator, grid.sim.now)
    grid.agents[assignee]._handle_assign(
        initiator, Assign(initiator=initiator, job=job, reschedule=False)
    )
    grid.agents[initiator]._tracked[job.job_id] = _Tracked(job, assignee)
    return job


# ----------------------------------------------------------------------
# Crash-restart
# ----------------------------------------------------------------------
def test_restart_requires_a_crash():
    grid = MiniGrid(["FCFS"] * 2)
    with pytest.raises(ProtocolError):
        grid.agents[0].restart()


def test_restart_rejoins_under_a_fresh_incarnation():
    grid = MiniGrid(["FCFS"] * 2, config=failsafe_config())
    agent = grid.agents[1]
    agent.fail()
    assert not grid.transport.is_registered(1)
    agent.restart()
    assert agent.incarnation == 1
    assert not agent.failed
    assert grid.transport.is_registered(1)
    assert grid.transport.incarnation_stamp(1) == 1
    assert grid.metrics.node_restarts == 1


def test_completion_journal_survives_restart_and_blocks_replay():
    # The durable journal is a safety requirement: a duplicate ASSIGN
    # arriving after the restart (e.g. a confused tracker resubmitting a
    # job whose Done died with the crash) must still be rejected, or the
    # reborn node re-executes it.
    grid = MiniGrid(["FCFS"] * 2, config=failsafe_config())
    job = make_job(1, ert=MINUTE)
    assign_tracked_job(grid, job)
    grid.sim.run_until(10 * MINUTE)
    assert grid.metrics.completed_jobs == 1
    agent = grid.agents[1]
    assert 1 in agent._completed
    agent.fail()
    agent.restart()
    assert 1 in agent._completed  # journal survived
    agent._handle_assign(0, Assign(initiator=0, job=job, reschedule=False))
    assert not agent.node.holds_job(1)
    grid.sim.run_until(20 * MINUTE)
    assert grid.metrics.duplicate_executions == 0


def test_bound_journal_carries_completions_across_a_process_death(tmp_path):
    # Across a *real* death the heap is gone: the completion log's journal
    # backend is what a reborn process recovers its memory from.
    path = tmp_path / "node-1.jsonl"
    job = make_job(1, ert=MINUTE)
    grid = MiniGrid(["FCFS"] * 2, config=failsafe_config())
    with DurableJournal(path, fsync=False) as journal:
        assert grid.agents[1].bind_journal(journal) == 0
        assign_tracked_job(grid, job)
        grid.sim.run_until(10 * MINUTE)
        assert grid.metrics.completed_jobs == 1
    reborn = MiniGrid(["FCFS"] * 2, config=failsafe_config())
    agent = reborn.agents[1]
    events = []
    agent._trace = Tracer(
        TraceConfig(level="protocol", sink="memory"), events
    )
    with DurableJournal(path, fsync=False) as journal:
        assert agent.bind_journal(journal) == 1
        assert agent.incarnation == 1
        assert reborn.transport.incarnation_stamp(1) == 1
        assert 1 in agent._completed
        assert [e["ev"] for e in events] == [
            "journal.recovered",
            "journal.replayed",
        ]
        assert events[0]["entries"] == 1 and events[1]["job"] == 1
        reborn.metrics.job_submitted(job, 0, 0.0)
        agent._handle_assign(
            0, Assign(initiator=0, job=job, reschedule=False)
        )
        assert not agent.node.holds_job(1)


def test_restart_loses_volatile_state():
    grid = MiniGrid(["FCFS"] * 3, config=failsafe_config())
    job = make_job(1, ert=HOUR)
    assign_tracked_job(grid, job, initiator=0, assignee=1)
    agent = grid.agents[0]
    agent._tracked[1].misses = 1
    agent.fail()
    agent.restart()
    assert agent._tracked == {}
    assert agent._held == {}


def test_crash_records_pending_discoveries_as_lost():
    # A job still *in discovery* when its initiator crashes has no
    # assignee and no tracker — nothing can recover it.  It must be
    # recorded as lost, not silently dropped from the books.
    grid = MiniGrid(["FCFS"] * 2, config=failsafe_config())
    agent = grid.agents[0]
    job = make_job(7, ert=HOUR)
    agent.submit(job)
    agent.fail()  # before any Accept can arrive
    assert grid.metrics.records[7].lost_count == 1


def test_node_revive_and_slowdown_guards():
    grid = MiniGrid(["FCFS"] * 1)
    node = grid.nodes[0]
    with pytest.raises(SchedulingError):
        node.revive()  # not crashed
    with pytest.raises(SchedulingError):
        node.apply_slowdown(0.5)  # a speed-up is not a failure
    node.apply_slowdown(4.0)
    assert node.slowdown_factor == 4.0


# ----------------------------------------------------------------------
# Orphan adoption (initiator-crash recovery) — the regression arm
# ----------------------------------------------------------------------
def adoption_grid(adoption):
    grid = MiniGrid(
        ["FCFS"] * 3,
        config=failsafe_config(adoption=adoption, adoption_windows=2),
    )
    job = make_job(1, ert=HOUR)
    assign_tracked_job(grid, job, initiator=0, assignee=1)
    grid.agents[0].fail()  # the initiator dies right after assigning
    return grid, job


def test_initiator_crash_without_adoption_counts_the_orphan():
    grid, _job = adoption_grid(adoption=False)
    grid.sim.run_until(2 * HOUR)
    assert grid.metrics.orphaned_jobs == 1
    assert grid.metrics.adopted_jobs == 0


def test_initiator_crash_with_adoption_completes_exactly_once():
    grid, job = adoption_grid(adoption=True)
    grid.sim.run_until(20 * MINUTE)
    # The assignee noticed the silence and took over the initiator role.
    assert grid.metrics.orphaned_jobs == 1
    assert grid.metrics.adopted_jobs == 1
    agent = grid.agents[1]
    assert agent._held[1].adopted
    assert agent._held[1].initiator == 1
    tracked = agent._tracked[1]
    assert (tracked.job, tracked.assignee) == (job, 1)
    grid.sim.run_until(2 * HOUR)
    # Completed exactly once; as its own initiator the adopter suppresses
    # the Done that would otherwise chase the dead node, and untracks.
    assert grid.metrics.completed_jobs == 1
    assert grid.metrics.duplicate_executions == 0
    assert 1 not in agent._tracked


def test_probe_from_a_live_initiator_cedes_adoption_back():
    # False adoption (the initiator was merely partitioned away, or
    # restarted): its next probe proves it alive, and the adopter cedes
    # the initiator role back instead of double-tracking.
    grid, job = adoption_grid(adoption=True)
    grid.sim.run_until(20 * MINUTE)
    agent = grid.agents[1]
    assert agent._held[1].adopted
    agent._handle_probe(0, Probe(1, initiator=0))
    assert not agent._held[1].adopted
    assert agent._held[1].initiator == 0
    assert 1 not in agent._tracked


# ----------------------------------------------------------------------
# Execution deadlines (fail-slow straggler defense)
# ----------------------------------------------------------------------
def test_overdue_queued_job_is_re_advertised_and_pulled_away():
    grid = MiniGrid(
        ["FCFS"] * 2,
        config=AriaConfig(
            rescheduling=True,
            improvement_threshold=0.0,
            exec_deadline_slack=2.0,
        ),
    )
    running = make_job(1, ert=HOUR)
    queued = make_job(2, ert=HOUR)
    grid.metrics.job_submitted(running, 0, 0.0)
    grid.metrics.job_submitted(queued, 0, 0.0)
    agent = grid.agents[1]
    agent._handle_assign(0, Assign(initiator=0, job=running, reschedule=False))
    agent._handle_assign(0, Assign(initiator=0, job=queued, reschedule=False))
    grid.sim.run_until(1.0)
    # The running job's deadline has nothing left to defend; the queued
    # job's was armed at assignment.
    assert agent._held[1].exec_deadline is None
    assert agent._held[2].exec_deadline is not None
    # Force the queued job far past its deadline and run an INFORM round:
    # the idle peer's honest quote beats the penalized cost and pulls it.
    agent._held[2].exec_deadline = 0.5
    agent._inform_round()
    grid.sim.run_until(MINUTE)
    assert grid.metrics.deadline_exceeded_jobs == 1
    assert grid.agents[0].node.holds_job(2)
    assert not agent.node.holds_job(2)
    assert 2 not in agent._held  # forgotten on withdrawal
