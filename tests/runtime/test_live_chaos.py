"""The live chaos gauntlet: faults + node lifecycle across ten seeds.

Every run combines wire-level fault injection (i.i.d. loss, loss
bursts, duplication, one partition window, delay spikes) with real
node-lifecycle chaos over sockets — one crash-restart (endpoint torn
down, fresh incarnation on a new port, card re-discovery), one
brand-new mid-run join and one graceful leave — while the grid's
invariant oracle judges every job transition as it happens and every
event of the run's transport-level trace.  The bar is
the paper's safety story: no invariant may break under any of it, on
any seed.

The module fixture runs all ten seeds once (each a few wall seconds);
the tests then slice the collected results.
"""

import pytest

from repro.experiments import FaultPlan
from repro.obs import TraceConfig
from repro.runtime import LiveFailureSchedule, LiveRunConfig, run_live

SEEDS = tuple(range(10))

#: Protocol horizon and compression: 3000 protocol seconds in ~5 wall
#: seconds, leaving every HTTP round-trip hundreds of times smaller
#: than the accept window.
DURATION = 3_000.0
TIME_SCALE = 600.0
NODES = 5


def chaos_config(seed):
    """One gauntlet run: everything-on faults plus full lifecycle chaos."""
    wall = DURATION / TIME_SCALE
    return LiveRunConfig(
        nodes=NODES,
        jobs=3,
        seed=seed,
        time_scale=TIME_SCALE,
        duration=DURATION,
        ert_mean=600.0,
        fault_plan=FaultPlan.chaos(DURATION),
        failure_schedule=LiveFailureSchedule.chaos(wall),
        failsafe=True,
    )


@pytest.fixture(scope="module")
def chaos_runs(tmp_path_factory):
    """(seed, RunResult, oracle) for every seed, run back to back, each
    recording a transport-level trace (which the oracle judges too)."""
    runs = []
    for seed in SEEDS:
        path = tmp_path_factory.mktemp("trace") / f"seed{seed}.jsonl"
        trace = TraceConfig(level="transport", sink="jsonl", path=str(path))
        result = run_live(chaos_config(seed), obs=trace)
        runs.append((seed, result, result.metrics.oracle))
    return runs


def test_no_seed_violates_any_invariant(chaos_runs):
    for seed, result, oracle in chaos_runs:
        assert oracle.violations == [], f"seed {seed}: {oracle.violations}"
        assert result.summary().violations == [], f"seed {seed}"


def test_online_checker_really_watched_every_run(chaos_runs):
    for seed, result, oracle in chaos_runs:
        # Every booked transition passed the oracle's hook first ...
        records = result.metrics.records.values()
        assert any(r.assignments for r in records), f"seed {seed}: no jobs"
        # ... and every traced event its trace feed.
        assert oracle.checked > 0, f"seed {seed}: trace feed saw no events"


def test_faults_really_shaped_the_wire(chaos_runs):
    fault_keys = (
        "fault_iid_lost",
        "fault_burst_lost",
        "fault_partition_dropped",
        "fault_duplicated",
    )
    for seed, result, _oracle in chaos_runs:
        for key in fault_keys:
            assert key in result.network, f"seed {seed}: missing {key}"
    # Across ten seeds the injector must have actually bitten.
    total = sum(
        result.network[key]
        for _seed, result, _oracle in chaos_runs
        for key in fault_keys
    )
    assert total > 0


def test_lifecycle_chaos_really_happened(chaos_runs):
    for seed, result, _oracle in chaos_runs:
        counts = [count for _t, count in result.node_count_series]
        assert counts, f"seed {seed}: no node-count samples"
        # The crash-restart's downtime dips the live-node count below
        # the initial fleet ...
        assert min(counts) < NODES, f"seed {seed}: no crash observed"
        # ... and the mid-run join lifts it above it.
        assert max(counts) > NODES, f"seed {seed}: no join observed"


def test_no_inbound_message_was_rejected(chaos_runs):
    # Chaos mangles delivery, never the wire format: every POST that
    # arrives still parses.
    for seed, result, _oracle in chaos_runs:
        assert result.network["rejected"] == 0, f"seed {seed}"


def test_online_checker_flags_a_seeded_violation_in_run():
    """The soak harness's self-test: a forged duplicate completion must
    be caught *during* the run, not at teardown."""
    config = LiveRunConfig(
        nodes=4,
        jobs=2,
        seed=1,
        time_scale=TIME_SCALE,
        duration=DURATION,
        ert_mean=600.0,
    )
    result = run_live(config, seed_violation=True)
    # Caught at the hook (which stops the run), and only that.
    (violation,) = result.metrics.oracle.violations
    assert "double execution" in violation
    assert result.summary().violations == [violation]
