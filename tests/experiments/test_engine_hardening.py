"""Batch-engine hardening: crashed / hung workers degrade per seed.

These tests drive ``run_batch``'s parallel path through the
``$ARIA_TEST_WORKER_FAULT`` hook (see ``engine._inject_worker_fault``):
a worker that hard-exits or wedges for one designated seed must cost at
most that seed — after one automatic retry the failure is recorded in
``BatchResult.errors`` while every other seed's summary still comes
back, bit-identical to a serial run.  No worker process outlives the
call, whatever happened to it.
"""

import multiprocessing

from repro.experiments import BatchResult, RunOptions, ScenarioScale, run_batch

TINY = ScenarioScale.tiny()


def tiny_batch(seeds, **kwargs):
    return run_batch("iMixed", TINY, seeds=seeds, cache=False, **kwargs)


def serial_dicts(seeds):
    return {
        summary.seed: summary.to_dict()
        for summary in tiny_batch(seeds, parallel=1)
    }


def test_serial_path_returns_an_ok_batch_result():
    result = tiny_batch([0], parallel=1)
    assert isinstance(result, BatchResult)
    assert result.ok
    assert result.errors == {}
    assert len(result) == 1


def test_crashed_worker_is_retried_once_and_recovers(monkeypatch, tmp_path):
    marker = tmp_path / "first-strike"
    monkeypatch.setenv("ARIA_TEST_WORKER_FAULT", f"crash_once:1:{marker}")
    result = tiny_batch([0, 1, 2], parallel=2)
    assert multiprocessing.active_children() == []
    assert marker.exists()  # the first attempt did die
    assert result.ok
    assert [summary.seed for summary in result] == [0, 1, 2]


def test_persistently_crashing_seed_degrades_to_an_error(monkeypatch):
    monkeypatch.setenv("ARIA_TEST_WORKER_FAULT", "crash:1")
    result = tiny_batch([0, 1, 2], parallel=2)
    assert multiprocessing.active_children() == []
    assert not result.ok
    assert list(result.errors) == [1]
    assert "worker process died" in result.errors[1]
    # The surviving seeds are unharmed by the pool breakage — present,
    # in order, and bit-identical to a serial run.
    expected = serial_dicts([0, 2])
    assert {s.seed: s.to_dict() for s in result} == expected


def test_hung_worker_is_timed_out_and_recorded(monkeypatch):
    monkeypatch.setenv("ARIA_TEST_WORKER_FAULT", "hang:2")
    result = tiny_batch([0, 1, 2], parallel=2, seed_timeout=10.0)
    assert multiprocessing.active_children() == []
    assert list(result.errors) == [2]
    assert "timed out after 10s" in result.errors[2]
    assert [summary.seed for summary in result] == [0, 1]


def test_seed_timeout_leaves_healthy_batches_alone():
    result = tiny_batch([0, 1], parallel=2, seed_timeout=120.0)
    assert multiprocessing.active_children() == []
    assert result.ok
    assert [summary.seed for summary in result] == [0, 1]


def test_raising_unit_is_retried_and_recorded_with_its_text():
    result = tiny_batch(
        [0, 1],
        parallel=2,
        options=RunOptions(config_overrides={"accept_wait": -1.0}),
    )
    assert multiprocessing.active_children() == []
    assert len(result) == 0
    assert result.errors == {
        0: "ConfigurationError: accept_wait must be positive",
        1: "ConfigurationError: accept_wait must be positive",
    }
