"""Tests for the process-isolated runtime (``repro.runtime.proc``).

Three layers, matching the module's structure:

* pure policy — :class:`ProcessFailureSchedule` validation and the
  supervisor's exponential backoff arithmetic;
* supervision — a real spawn-based :class:`Supervisor` driven through
  manual ``poll(now=...)`` steps against tiny crash/clean targets, so
  the reap → backoff → respawn → circuit-breaker ladder is asserted
  deterministically without sleeping through real backoffs;
* end to end — module-scoped :func:`run_procs` runs (expensive, shared
  by several small tests, like ``test_live_overlay``): a clean fleet,
  and a SIGKILL + SIGSTOP chaos fleet whose restarted node must prove
  journal recovery across a real process death.
"""

import asyncio
import sys
import time

import pytest

from repro.errors import ConfigurationError
from repro.runtime.proc import (
    ProcRunConfig,
    ProcessFailureSchedule,
    Supervisor,
    WorkerSpec,
    run_procs,
)


# ----------------------------------------------------------------------
# ProcessFailureSchedule
# ----------------------------------------------------------------------
def test_schedule_normalises_and_validates():
    schedule = ProcessFailureSchedule(
        kills=[(3, 1)], stalls=[(5, 2, 0)]  # lists + ints normalise
    )
    assert schedule.kills == ((3.0, 1),)
    assert schedule.stalls == ((5.0, 2.0, 0),)
    assert bool(schedule)
    assert not ProcessFailureSchedule()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kills": [(-1.0, 0)]},
        {"kills": [(1.0, -2)]},
        {"stalls": [(1.0, 0.0, 0)]},
        {"stalls": [(-1.0, 2.0, 0)]},
    ],
)
def test_schedule_rejects_bad_entries(kwargs):
    with pytest.raises(ConfigurationError):
        ProcessFailureSchedule(**kwargs)


def test_schedule_chaos_scales_with_wall_duration():
    schedule = ProcessFailureSchedule.chaos(20.0)
    assert schedule.kills == ((6.0, 1),)
    (at, duration, victim) = schedule.stalls[0]
    assert at == pytest.approx(12.0)
    assert duration == pytest.approx(1.5)  # capped
    assert victim == 2
    with pytest.raises(ConfigurationError):
        ProcessFailureSchedule.chaos(0.0)


# ----------------------------------------------------------------------
# Supervisor policy + lifecycle
# ----------------------------------------------------------------------
def _spec(run_dir, index=0):
    """A minimal picklable spec; the unit-test targets never read it."""
    return WorkerSpec(
        index=index,
        node_ids=(index,),
        config=ProcRunConfig(nodes=2, duration=6_000.0, reliability=False),
        run_dir=str(run_dir),
        run_epoch=0.0,
    )


def _crash_target(spec):
    sys.exit(3)


def _clean_target(spec):
    sys.exit(0)


def test_backoff_delay_doubles_and_caps():
    supervisor = Supervisor(
        [], backoff_base=0.5, backoff_cap=10.0, max_restarts=5
    )
    delays = [supervisor.backoff_delay(k) for k in range(6)]
    assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 10.0]


def _wait_exit(worker, deadline=20.0):
    """Block until the worker's current process has exited."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if worker.process is not None and worker.process.exitcode is not None:
            return
        time.sleep(0.02)
    raise AssertionError("worker process did not exit in time")


def test_supervisor_backoff_then_circuit_breaker(tmp_path):
    supervisor = Supervisor(
        [_spec(tmp_path)],
        backoff_base=0.5,
        max_restarts=2,
        target=_crash_target,
    )
    worker = supervisor.workers[0]
    try:
        supervisor.start()
        assert worker.state == "running"

        # Crash 1: reap at a pinned clock, check the scheduled backoff.
        _wait_exit(worker)
        supervisor.poll(now=100.0)
        assert worker.state == "backoff"
        assert worker.restart_at == pytest.approx(100.5)
        supervisor.poll(now=100.4)  # before restart_at: nothing happens
        assert worker.state == "backoff"
        assert worker.restarts == 0
        supervisor.poll(now=100.6)  # past restart_at: respawn
        assert worker.state == "running"
        assert worker.restarts == 1

        # Crash 2: the delay doubles.
        _wait_exit(worker)
        supervisor.poll(now=200.0)
        assert worker.restart_at == pytest.approx(201.0)
        supervisor.poll(now=201.1)
        assert worker.restarts == 2

        # Crash 3: restarts have hit max_restarts — the breaker trips
        # and the worker is never respawned.
        _wait_exit(worker)
        supervisor.poll(now=300.0)
        assert worker.state == "broken"
        supervisor.poll(now=10_000.0)
        assert worker.state == "broken"
        assert supervisor.total_restarts == 2
        stats = supervisor.stats()
        assert stats["restarts"] == 2
        assert stats["broken"] == [0]
        assert stats["states"] == ["broken"]
    finally:
        asyncio.run(supervisor.drain(grace=1.0))


def test_supervisor_clean_exit_is_not_restarted(tmp_path):
    supervisor = Supervisor(
        [_spec(tmp_path)], backoff_base=0.01, target=_clean_target
    )
    worker = supervisor.workers[0]
    try:
        supervisor.start()
        _wait_exit(worker)
        supervisor.poll(now=100.0)
        assert worker.state == "stopped"
        supervisor.poll(now=10_000.0)  # stays stopped: exit 0 is final
        assert worker.state == "stopped"
        assert supervisor.total_restarts == 0
    finally:
        asyncio.run(supervisor.drain(grace=1.0))


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_config_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        ProcRunConfig(nodes=1)
    with pytest.raises(ConfigurationError):
        ProcRunConfig(accept_wait=1.0, time_scale=600.0)  # <10ms wall
    with pytest.raises(ConfigurationError):
        ProcRunConfig(nodes=4, group_size=4, seed_violation=True)
    with pytest.raises(ConfigurationError):
        ProcRunConfig(trace_level="off", seed_violation=True)


def test_config_worker_count_rounds_up():
    assert ProcRunConfig(nodes=6, group_size=1).worker_count() == 6
    assert ProcRunConfig(nodes=6, group_size=4).worker_count() == 2
    assert ProcRunConfig(nodes=5, group_size=2).worker_count() == 3


# ----------------------------------------------------------------------
# End to end: clean fleet
# ----------------------------------------------------------------------
PLAIN_CONFIG_KW = dict(
    nodes=4,
    jobs=3,
    seed=1,
    time_scale=600.0,
    duration=12_000.0,
    early_exit_grace=0.5,
)


@pytest.fixture(scope="module")
def plain_result(tmp_path_factory):
    config = ProcRunConfig(
        run_dir=str(tmp_path_factory.mktemp("procs-plain")),
        **PLAIN_CONFIG_KW,
    )
    return run_procs(config)


def test_plain_fleet_has_no_violations(plain_result):
    assert plain_result.violations == []
    assert plain_result.checked_events > 0


def test_plain_fleet_moves_jobs(plain_result):
    assert plain_result.submitted == PLAIN_CONFIG_KW["jobs"]
    assert plain_result.completed >= 1


def test_plain_fleet_traces_are_whole(plain_result):
    # No SIGKILL → the graceful drain flushed every sink: no torn lines.
    assert plain_result.torn_lines == 0
    assert not plain_result.interrupted


def test_plain_fleet_supervision_is_quiet(plain_result):
    assert plain_result.supervisor["restarts"] == 0
    assert plain_result.supervisor["broken"] == []
    assert set(plain_result.supervisor["states"]) == {"stopped"}


# ----------------------------------------------------------------------
# End to end: SIGKILL + SIGSTOP chaos with journal recovery
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_result(tmp_path_factory):
    config = ProcRunConfig(
        nodes=5,
        jobs=4,
        seed=3,
        time_scale=600.0,
        duration=18_000.0,
        early_exit_grace=0.5,
        backoff_base=0.2,
        run_dir=str(tmp_path_factory.mktemp("procs-chaos")),
        failure_schedule=ProcessFailureSchedule(
            kills=((6.0, 1),),
            stalls=((12.0, 1.5, 2),),
        ),
    )
    return run_procs(config)


def test_chaos_fleet_has_no_violations(chaos_result):
    # The load-bearing claim: a real SIGKILL mid-run, a respawned
    # incarnation, and the merged cross-process trace still satisfies
    # every invariant (no double execution, no phantom completions).
    assert chaos_result.violations == []
    assert chaos_result.checked_events > 0


def test_chaos_fleet_restarted_the_victim(chaos_result):
    assert chaos_result.supervisor["restarts"] >= 1
    assert chaos_result.supervisor["broken"] == []


def test_chaos_fleet_recovered_journal_from_disk(chaos_result):
    # The respawned process announced that it reloaded its durable
    # journal, and the on-disk incarnation counter moved past boot 0.
    assert any(
        event.get("incarnation", 0) >= 1 for event in chaos_result.recovered
    )
    assert any(
        incarnation >= 1
        for incarnation in chaos_result.journal_incarnations.values()
    )


def test_chaos_fleet_still_moves_jobs(chaos_result):
    assert chaos_result.submitted == 4
    assert chaos_result.completed >= 1
