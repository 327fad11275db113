"""A finished run leaves nothing for the cyclic collector.

Every simulated run builds reference cycles — pending events hold their
owners' bound methods, recurrences their callbacks, the transport its
agents' handlers, nodes their agents' job callbacks.  ``run_grid`` and
the baselines' runner end each run by breaking them, so a process that
runs grid after grid (``run_batch``, the engine's reused workers) holds
one grid at a time instead of waiting for a full collection.  Each case
runs with the collector off, drops the result, and counts what a
``DEBUG_SAVEALL`` collection then finds: it must be nothing.
"""

import gc

import pytest

from repro.experiments import (
    FailureModel,
    FaultPlan,
    ScenarioScale,
    build_grid,
    get_scenario,
    run,
)
from repro.experiments.runner import run_grid
from repro.obs import TraceConfig

TINY = ScenarioScale.tiny()


def cyclic_garbage(execute):
    """Objects in reference cycles once ``execute()``'s result is gone."""
    execute()  # warm-up: first-use imports and caches are not garbage
    gc.collect()
    gc.disable()
    try:
        execute()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return sorted({type(obj).__name__ for obj in gc.garbage}), len(
            gc.garbage
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


GRID_RUNS = {
    "plain": lambda: run_grid(get_scenario("iMixed"), TINY, 0),
    "traced": lambda: run_grid(
        get_scenario("iMixed"),
        TINY,
        0,
        obs=TraceConfig(level="kernel", sink="memory"),
    ),
    "failures": lambda: run_grid(
        get_scenario("iMixed"),
        TINY,
        0,
        failures=FailureModel(crash_fraction=0.2, restart_fraction=0.2),
        failsafe=True,
        adoption=True,
        check=True,
    ),
    "faults": lambda: run_grid(
        get_scenario("iMixed"),
        TINY,
        0,
        faults=FaultPlan.chaos(TINY.duration),
        reliability=True,
        check=True,
    ),
    # Online BLATANT: the maintainer's recurrence stops mid-run.
    "expanding": lambda: run_grid(get_scenario("iExpanding"), TINY, 0),
}


@pytest.mark.parametrize("case", sorted(GRID_RUNS))
def test_a_finished_grid_leaves_no_cycles(case):
    kinds, count = cyclic_garbage(GRID_RUNS[case])
    assert count == 0, f"{count} objects in cycles: {kinds}"


@pytest.mark.parametrize(
    "baseline", ["centralized", "gossip", "multirequest", "random"]
)
def test_a_finished_baseline_leaves_no_cycles(baseline):
    kinds, count = cyclic_garbage(lambda: run(baseline, TINY, seed=0))
    assert count == 0, f"{count} objects in cycles: {kinds}"


def test_close_is_idempotent_and_empties_the_grid():
    setup = build_grid(get_scenario("iMixed"), TINY, 0)
    summary = setup.run().summary()
    setup.close()
    setup.close()
    assert setup.sim.pending_events == 0
    assert not any(
        setup.transport.is_registered(node.node_id) for node in setup.nodes
    )
    assert setup.transport.reliability is None
    assert all(
        not node.on_job_started and not node.on_job_finished
        for node in setup.nodes
    )
    # What the run produced is taken before close and stays the same.
    assert setup.result().summary() == summary
