"""Protocol tests: graceful node departure (volatile resources).

The paper motivates ARiA with "very large sets of highly volatile ...
resources"; graceful departure is the cooperative half of volatility (the
crash half lives in test_failsafe.py).  A leaving node sheds its waiting
queue through hand-off discoveries, finishes its running job, and departs.
"""

import pytest

from repro.core import AriaConfig
from repro.core.protocol import _Held
from repro.errors import ProtocolError
from repro.types import HOUR, MINUTE

from ..helpers import make_job
from .conftest import MiniGrid


def config(**overrides):
    defaults = dict(rescheduling=False)
    defaults.update(overrides)
    return AriaConfig(**defaults)


def loaded_grid(n=3, cfg=None):
    grid = MiniGrid(["FCFS"] * n, config=cfg or config())
    return grid


def test_leave_hands_off_waiting_jobs():
    grid = loaded_grid()
    # Load node 0 with one running + two waiting jobs (direct enqueue).
    for jid in (1, 2, 3):
        job = make_job(jid, ert=2 * HOUR)
        grid.metrics.job_submitted(job, 0, 0.0)
        grid.metrics.job_assigned(jid, 0, 0.0, reschedule=False)
        grid.agents[0].node.accept_job(job)
        grid.agents[0]._held[jid] = _Held(job, 0)
    handed = grid.agents[0].leave()
    assert handed == 2  # the running job stays
    grid.sim.run_until(30 * HOUR)
    # All three jobs completed: one locally, two on other nodes.
    assert grid.metrics.completed_jobs == 3
    assert grid.metrics.reschedules == 2
    moved = [
        r for r in grid.metrics.records.values() if r.reschedule_count > 0
    ]
    assert all(r.start_node != 0 for r in moved)


def test_leaving_node_departs_after_running_job_finishes():
    grid = loaded_grid()
    job = make_job(1, ert=2 * HOUR)
    grid.metrics.job_submitted(job, 0, 0.0)
    grid.agents[0].node.accept_job(job)
    grid.agents[0].leave()
    assert not grid.agents[0].departed  # still running its job
    grid.sim.run_until(3 * HOUR)
    assert grid.agents[0].departed
    assert not grid.transport.is_registered(0)
    assert not grid.graph.has_node(0)


def test_idle_node_departs_after_grace_period():
    grid = loaded_grid()
    grid.agents[1].leave()
    grid.sim.run_until(1.0)
    assert not grid.agents[1].departed  # lingering for in-flight ASSIGNs
    grid.sim.run_until(grid.config.departure_grace + 1.0)
    assert grid.agents[1].departed
    assert not grid.graph.has_node(1)


def test_leaving_node_stops_offering():
    grid = MiniGrid(["FCFS", "FCFS"], config=config())
    grid.agents[1].leave()
    grid.sim.run_until(1.0)
    grid.agents[0].submit(make_job(1, ert=HOUR))
    grid.sim.run_until(10 * MINUTE)
    # Only node 0 can take the job now.
    assert grid.record(1).start_node == 0


def test_leave_twice_raises():
    grid = loaded_grid()
    grid.agents[0].leave()
    with pytest.raises(ProtocolError):
        grid.agents[0].leave()


def test_leave_after_crash_raises():
    grid = loaded_grid()
    grid.agents[0].fail()
    with pytest.raises(ProtocolError):
        grid.agents[0].leave()


def test_submit_to_dead_or_departed_node_raises():
    grid = loaded_grid()
    grid.agents[0].fail()
    with pytest.raises(ProtocolError):
        grid.agents[0].submit(make_job(1))
    grid.agents[1].leave()
    grid.sim.run_until(2 * MINUTE)
    assert grid.agents[1].departed
    with pytest.raises(ProtocolError):
        grid.agents[1].submit(make_job(2))


def test_handoff_with_no_taker_falls_back_to_local_execution():
    # Single node: nobody can take the hand-off, so the leaving node must
    # run the job itself (accepted jobs are never dropped) and depart after.
    cfg = config(max_request_retries=1, request_retry_interval=10.0)
    grid = MiniGrid(["FCFS", "FCFS"], config=cfg, topology="ring")
    grid.graph.remove_link(0, 1)  # isolate both nodes
    for jid in (1, 2):
        job = make_job(jid, ert=HOUR)
        grid.metrics.job_submitted(job, 0, 0.0)
        grid.agents[0].node.accept_job(job)
    grid.agents[0].leave()
    grid.sim.run_until(10 * HOUR)
    assert grid.metrics.completed_jobs == 2
    assert grid.agents[0].departed


def test_assign_racing_departure_is_redelegated():
    grid = MiniGrid(["FCFS", "FCFS", "FCFS"], config=config())
    # Node 1 wins a discovery, but starts leaving before the ASSIGN lands.
    grid.agents[1].node.performance_index = 2.0  # make it the clear winner
    grid.agents[0].submit(make_job(1, ert=2 * HOUR))
    grid.sim.call_at(5.0, grid.agents[1].leave)  # right at assignment time
    grid.sim.run_until(30 * HOUR)
    record = grid.record(1)
    assert record.completed
    assert record.start_node != 1 or not grid.agents[1].departed


def test_late_assign_within_departure_grace_hands_off_exactly_once():
    # The departure-grace race: node 1 wins the discovery, calls leave()
    # while idle (arming the grace timer), and the ASSIGN lands inside the
    # grace window.  The lingering endpoint must take responsibility and
    # hand the job off exactly once — not drop it, not queue it twice.
    cfg = config(failsafe=True, probe_interval=2 * MINUTE, probe_timeout=10.0)
    grid = MiniGrid(["FCFS", "FCFS", "FCFS"], config=cfg)
    grid.agents[1].node.performance_index = 2.0  # the clear winner
    grid.agents[0].submit(make_job(1, ert=2 * HOUR))
    # accept_wait finalizes at t=5; the ASSIGN is in flight when node 1
    # starts leaving, and arrives within departure_grace (60 s).
    grid.sim.call_at(grid.config.accept_wait, grid.agents[1].leave)
    grid.sim.run_until(30 * HOUR)
    record = grid.record(1)
    assert record.completed
    assert grid.metrics.completed_jobs == 1
    assert grid.metrics.duplicate_executions == 0
    # Exactly one hand-off: the initial delegation to node 1, then the
    # re-delegation to whichever node took it over.
    assert len(record.assignments) == 2
    assert record.assignments[0][1] == 1
    assert record.start_node != 1
    assert record.resubmissions == 0  # tracking followed the hand-off
    assert grid.agents[1].departed


def test_failsafe_tracking_survives_departures():
    cfg = config(failsafe=True, probe_interval=2 * MINUTE, probe_timeout=10.0)
    grid = MiniGrid(["FCFS", "FCFS", "FCFS"], config=cfg)
    for jid in (1, 2, 3, 4):
        grid.agents[0].submit(make_job(jid, ert=2 * HOUR))
    grid.sim.run_until(10 * MINUTE)
    # Some node leaves; its waiting jobs hand off with Track notifications,
    # so no spurious fail-safe resubmission ever fires.
    victim = next(
        a for a in grid.agents if a.node.queue_length > 0 or a.node.running
    )
    victim.leave()
    grid.sim.run_until(40 * HOUR)
    assert grid.metrics.completed_jobs == 4
    assert all(r.resubmissions == 0 for r in grid.metrics.records.values())
