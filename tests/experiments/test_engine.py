"""The batch engine: unified specs, determinism, caching, deprecations."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    ChurnPlan,
    CrashPlan,
    FailureModel,
    FaultPlan,
    ResultCache,
    RunOptions,
    RunSummary,
    ScenarioScale,
    get_scenario,
    run,
    run_batch,
    validate_run,
)
from repro.experiments.engine import cache_key, code_version

TINY = ScenarioScale.tiny()


@pytest.fixture(scope="module")
def mixed_batch():
    """Two serial, uncached runs of the tiny Mixed scenario."""
    return run_batch(get_scenario("Mixed"), TINY, seeds=(0, 1), cache=False)


# ----------------------------------------------------------------------
# The unified run() entry point
# ----------------------------------------------------------------------
def test_run_accepts_scenario_object():
    result = run(get_scenario("Mixed"), TINY, seed=0)
    assert result.metrics.completed_jobs > 0


def test_run_accepts_scenario_name():
    by_name = run("Mixed", TINY, seed=0).summary()
    by_object = run(get_scenario("Mixed"), TINY, seed=0).summary()
    assert by_name.to_dict() == by_object.to_dict()


def test_run_accepts_baseline_name():
    result = run("centralized", TINY, seed=0)
    assert result.baseline == "centralized"
    assert result.metrics.completed_jobs > 0


def test_run_accepts_crash_plan():
    result = run(CrashPlan(), TINY, seed=0, options=RunOptions(failsafe=True))
    assert result.metrics.completed_jobs > 0


def test_run_accepts_churn_plan():
    result = run(ChurnPlan(), TINY, seed=0)
    assert result.metrics.completed_jobs > 0


def test_run_accepts_fault_plan():
    result = run(FaultPlan(), TINY, seed=0)
    assert result.metrics.completed_jobs > 0
    assert result.network["reliable_delivered"] > 0


def test_fault_plan_rejects_unknown_options():
    with pytest.raises(ConfigurationError):
        run(FaultPlan(), TINY, seed=0, options=RunOptions(config_overrides={}))


def test_fault_batch_round_trips_summaries(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_batch(
        FaultPlan(),
        TINY,
        seeds=(0, 1),
        cache=cache,
        options=RunOptions(reliability=True),
    )
    again = run_batch(
        FaultPlan(),
        TINY,
        seeds=(0, 1),
        cache=cache,
        options=RunOptions(reliability=True),
    )
    assert [s.to_dict() for s in first] == [s.to_dict() for s in again]
    assert cache.hits == 2
    assert all("net_reliable_delivered" in s.extras for s in first)


def test_fault_cache_key_covers_plan_and_options():
    plan = FaultPlan()
    keys = set()
    for plan_dict, reliability in [
        (dataclasses.asdict(plan), True),
        (dataclasses.asdict(plan), False),
        (dataclasses.asdict(dataclasses.replace(plan, loss=0.2)), True),
    ]:
        payload = {
            "kind": "faults",
            "plan": plan_dict,
            "reliability": reliability,
            "failsafe": True,
            "scenario_name": "iMixed",
            "probe_interval": None,
            "scale": dataclasses.asdict(TINY),
            "seed": 0,
        }
        keys.add(cache_key(payload))
    assert len(keys) == 3


def test_run_rejects_unknown_spec():
    with pytest.raises(ConfigurationError):
        run("NoSuchScenarioOrBaseline", TINY)
    with pytest.raises(ConfigurationError):
        run(42, TINY)


def test_run_rejects_unknown_options():
    with pytest.raises(ConfigurationError):
        run(get_scenario("Mixed"), TINY, seed=0, options=RunOptions(failsafe=True))
    with pytest.raises(ConfigurationError):
        run("centralized", TINY, seed=0, options=RunOptions(config_overrides={}))


# ----------------------------------------------------------------------
# Determinism: parallel == serial, batch == single run
# ----------------------------------------------------------------------
def test_parallel_batch_bit_identical_to_serial(mixed_batch):
    parallel = run_batch(
        get_scenario("Mixed"), TINY, seeds=(0, 1), parallel=2, cache=False
    )
    assert [s.to_dict() for s in parallel] == [
        s.to_dict() for s in mixed_batch
    ]


def test_batch_matches_single_runs(mixed_batch):
    single = run(get_scenario("Mixed"), TINY, seed=1).summary()
    assert mixed_batch[1].to_dict() == single.to_dict()


def test_batch_preserves_seed_order_and_duplicates():
    summaries = run_batch(
        get_scenario("Mixed"), TINY, seeds=(1, 0, 1), cache=False
    )
    assert [s.seed for s in summaries] == [1, 0, 1]
    assert summaries[0].to_dict() == summaries[2].to_dict()


# ----------------------------------------------------------------------
# The result cache
# ----------------------------------------------------------------------
def test_cache_hit_on_second_batch(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_batch(
        get_scenario("Mixed"), TINY, seeds=(0, 1), cache=cache
    )
    assert (cache.hits, cache.misses, cache.stores) == (0, 2, 2)
    assert len(cache) == 2
    second = run_batch(
        get_scenario("Mixed"), TINY, seeds=(0, 1), cache=cache
    )
    assert (cache.hits, cache.misses, cache.stores) == (2, 2, 2)
    assert [s.to_dict() for s in second] == [s.to_dict() for s in first]


def test_cache_misses_on_scenario_field_change(tmp_path):
    cache = ResultCache(tmp_path)
    base = get_scenario("Mixed")
    run_batch(base, TINY, seeds=(0,), cache=cache)
    changed = dataclasses.replace(base, submission_interval=11.0)
    run_batch(changed, TINY, seeds=(0,), cache=cache)
    assert cache.hits == 0
    assert cache.misses == 2
    assert len(cache) == 2


def test_cache_key_separates_seeds_scales_and_options():
    base = get_scenario("Mixed")
    keys = set()
    for scale, seed, overrides in [
        (TINY, 0, None),
        (TINY, 1, None),
        (ScenarioScale.small(), 0, None),
        (TINY, 0, {"accept_wait": 30.0}),
    ]:
        payload = {
            "kind": "scenario",
            "scenario": base.to_dict(),
            "config_overrides": overrides,
            "scale": dataclasses.asdict(scale),
            "seed": seed,
        }
        keys.add(cache_key(payload))
    assert len(keys) == 4


def test_corrupt_cache_entry_treated_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    run_batch(get_scenario("Mixed"), TINY, seeds=(0,), cache=cache)
    for path in tmp_path.glob("*/*.json"):
        path.write_text("{not json")
    again = run_batch(get_scenario("Mixed"), TINY, seeds=(0,), cache=cache)
    assert cache.misses == 2  # initial + corrupt reload
    assert again[0].completed_jobs > 0


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    run_batch(get_scenario("Mixed"), TINY, seeds=(0, 1), cache=cache)
    assert cache.clear() == 2
    assert len(cache) == 0


def test_run_profile_does_not_change_the_outcome(capsys):
    """Profiling only observes: the summary must be bit-identical."""
    from repro.experiments import run

    plain = run(get_scenario("Mixed"), TINY, seed=0).summary()
    profiled = run(get_scenario("Mixed"), TINY, seed=0, profile=True).summary()
    assert profiled.to_dict() == plain.to_dict()
    assert "cumulative" in capsys.readouterr().err


def test_code_version_is_stable_and_short():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_code_version_ignores_pycache_artifacts():
    """Interpreter droppings under __pycache__ must not shift the hash."""
    import repro
    from repro.experiments import engine

    package_root = Path(repro.__file__).resolve().parent
    engine._code_version_cache = None
    baseline = code_version()

    junk_dir = package_root / "experiments" / "__pycache__"
    junk_dir.mkdir(exist_ok=True)
    junk = junk_dir / "zz_code_version_probe.py"
    junk.write_text("GARBAGE = object()\n")
    try:
        engine._code_version_cache = None
        assert code_version() == baseline
    finally:
        junk.unlink()
        engine._code_version_cache = None


# ----------------------------------------------------------------------
# RunSummary round-trips
# ----------------------------------------------------------------------
def test_summary_json_round_trip(tmp_path, mixed_batch):
    summary = mixed_batch[0]
    rebuilt = RunSummary.from_dict(
        json.loads(json.dumps(summary.to_dict()))
    )
    assert rebuilt == summary
    path = tmp_path / "summary.json"
    summary.save(path)
    assert RunSummary.load(path) == summary


def test_summary_is_validated_and_clean(mixed_batch):
    assert mixed_batch[0].violations == []
    assert validate_run(mixed_batch[0]) == []


def test_result_summary_matches_validate_run():
    result = run(get_scenario("Mixed"), TINY, seed=0)
    assert result.summary().violations == validate_run(result)


# ----------------------------------------------------------------------
# Every perturbed kind takes the one run_grid path, byte for byte
# ----------------------------------------------------------------------
#: SHA-256 of ``json.dumps(RunSummary.to_dict(), sort_keys=True)`` at tiny
#: scale, seed 0, recorded at the last commit that had one runner per kind;
#: and beside it that of the run's protocol-level trace
#: (``json.dumps(result.trace_events, sort_keys=True)``), recorded at the
#: last commit that kept per-job agent state in eight tables — summaries
#: alone do not pin the *order* of probes, orphanings and adoptions.
_KIND_HASHES = [
    (
        CrashPlan(),
        RunOptions(),
        "iMixed+crash",
        "11d7695ca2906f0d20ad96d7a30b488027499974593c4af15519575f9ab3a00e",
        "92328fd86506e65cd4adaaeb28d995ddbd222d1164d72b6dede380951407b11b",
    ),
    (
        CrashPlan(),
        RunOptions(failsafe=True),
        "iMixed+crash+failsafe",
        "9f24175ef96e10c39dcf12b849e4eb92ad513b6dd077ee800c58c7cf25582e7b",
        "43739629e78ef119be1df46bd5e6ded1f9203c8f80dab1857f612c800af4002a",
    ),
    (
        ChurnPlan(crash_weight=0.5),
        RunOptions(),
        "iMixed+churn",
        "36bb6299acf27fa67b3c047e7f4ce127d9a28ed64bad5d40ea035c179ef527f9",
        "c2b04d377403fc5a6cfccd7b60c60024efa7467e40c5b27b8c6b2cc9314ca316",
    ),
    (
        FaultPlan.chaos(TINY.duration),
        RunOptions(),
        "iMixed+faults+reliable",
        "135094ab84be5aaa6be0f2555e8fcf4f61dc820883521a66f270d0abcb7c4f25",
        "f17bbb0355a1b230ff8a3ecec87c97fef0660f7454e77da48f68df3f1b21af9a",
    ),
    (
        FailureModel.chaos(TINY.duration),
        RunOptions(fault_plan=FaultPlan.chaos(TINY.duration)),
        "iMixed+failures+failsafe",
        "6dda1f28778bf40fb8f2b3e873b7106cb02f27cdaf2d94a77acb15cb2b4f8185",
        "61801e658656d7a5b6dc81e39600542617e82092e1e5ab052cd916b3755dc32b",
    ),
]


_per_kind = pytest.mark.parametrize(
    "spec,options,name,digest,trace_digest",
    _KIND_HASHES,
    ids=[k[2] for k in _KIND_HASHES],
)


@_per_kind
def test_perturbed_kind_summary_is_pinned(
    spec, options, name, digest, trace_digest
):
    summary = run(spec, TINY, seed=0, options=options).summary().to_dict()
    assert summary["name"] == name
    canonical = json.dumps(summary, sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == digest


@_per_kind
def test_perturbed_kind_protocol_trace_is_pinned(
    spec, options, name, digest, trace_digest
):
    from repro.experiments import TraceConfig

    result = run(
        spec,
        TINY,
        seed=0,
        options=options,
        trace=TraceConfig(level="protocol", sink="memory"),
    )
    canonical = json.dumps(result.trace_events, sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == trace_digest


# ----------------------------------------------------------------------
# Removed entry points and the loose-kwarg path are gone
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "module, name",
    [
        ("repro.experiments.runner", "run_scenario"),
        ("repro.experiments.runner", "run_scenario_batch"),
        ("repro.baselines.runner", "run_baseline"),
        ("repro.experiments.failures", "run_crash_experiment"),
        ("repro.experiments.failures", "_run_crash_experiment"),
        ("repro.experiments.failures", "_run_failure_experiment"),
        ("repro.experiments.churn", "run_churn_experiment"),
        ("repro.experiments.churn", "_run_churn_experiment"),
        ("repro.experiments.faults", "_run_fault_experiment"),
    ],
)
def test_removed_entry_points_are_gone(module, name):
    import importlib

    package = module.rsplit(".", 1)[0]
    for path in (module, package):
        assert not hasattr(importlib.import_module(path), name)
    # Spec options travel in RunOptions only: a loose one is a TypeError.
    for entry in (run, run_batch):
        with pytest.raises(TypeError):
            entry(ChurnPlan(), TINY, failsafe=True)


# ----------------------------------------------------------------------
# Overlay cache bound (the old unbounded module-level dict)
# ----------------------------------------------------------------------
def test_overlay_cache_is_bounded():
    from repro.experiments.assembly import (
        _OVERLAY_CACHE,
        _OVERLAY_CACHE_SIZE,
        _converged_overlay,
    )

    for seed in range(_OVERLAY_CACHE_SIZE + 4):
        _converged_overlay(8, seed)
    assert len(_OVERLAY_CACHE) <= _OVERLAY_CACHE_SIZE
    # Most-recently-used entries survive the eviction.
    assert (8, _OVERLAY_CACHE_SIZE + 3) in _OVERLAY_CACHE


# ----------------------------------------------------------------------
# Tracing + telemetry + progress through the engine
# ----------------------------------------------------------------------
def test_trace_config_joins_the_cache_key(tmp_path):
    from repro.experiments import TraceConfig

    cache = ResultCache(tmp_path)
    run_batch(get_scenario("Mixed"), TINY, seeds=(0,), cache=cache)
    run_batch(
        get_scenario("Mixed"),
        TINY,
        seeds=(0,),
        cache=cache,
        trace=TraceConfig(sink="memory"),
    )
    # The traced run must not be served from the untraced entry.
    assert cache.hits == 0
    assert cache.misses == 2


def test_untraced_payload_matches_pre_trace_cache_key():
    base = get_scenario("Mixed")
    payload = {
        "kind": "scenario",
        "scenario": base.to_dict(),
        "config_overrides": None,
        "scale": dataclasses.asdict(TINY),
        "seed": 0,
    }
    untouched = cache_key(payload)
    from repro.experiments.engine import _attach_trace

    _attach_trace(payload, None, seed=0)
    assert "trace" not in payload
    assert cache_key(payload) == untouched


def test_batch_telemetry_lands_in_summaries(tmp_path):
    from repro.experiments import TraceConfig

    summaries = run_batch(
        get_scenario("Mixed"),
        TINY,
        seeds=(0,),
        cache=False,
        trace=TraceConfig(level="off", sink="memory"),
    )
    telemetry = summaries[0].telemetry
    assert telemetry["jobs.completed"] > 0
    assert "net.lost" in telemetry
    # And it survives the summary JSON round trip.
    restored = RunSummary.from_dict(
        json.loads(json.dumps(summaries[0].to_dict()))
    )
    assert restored.telemetry == telemetry


def test_untraced_summary_omits_telemetry(mixed_batch):
    payload = mixed_batch[0].to_dict()
    assert "telemetry" not in payload
    assert mixed_batch[0].telemetry == {}


def test_trace_rejected_for_baseline_runs():
    from repro.experiments import TraceConfig

    with pytest.raises(ConfigurationError):
        run("centralized", TINY, seed=0, trace=TraceConfig(sink="memory"))


def test_trace_rejects_non_config():
    with pytest.raises(ConfigurationError):
        run("Mixed", TINY, seed=0, trace={"level": "protocol"})


def test_multi_seed_trace_files_use_the_seed_placeholder(tmp_path):
    from repro.experiments import TraceConfig
    from repro.obs import load_trace

    run_batch(
        get_scenario("Mixed"),
        TINY,
        seeds=(0, 1),
        cache=False,
        trace=TraceConfig(path=str(tmp_path / "trace-{seed}.jsonl")),
    )
    for seed in (0, 1):
        events = load_trace(tmp_path / f"trace-{seed}.jsonl")
        assert events, f"seed {seed} wrote no events"


def test_progress_callback_sees_every_completion():
    calls = []
    run_batch(
        get_scenario("Mixed"),
        TINY,
        seeds=(0, 1, 2),
        cache=False,
        progress=lambda done, total: calls.append((done, total)),
    )
    assert calls == [(1, 3), (2, 3), (3, 3)]


def test_parallel_progress_reports_and_stays_deterministic():
    calls = []
    parallel = run_batch(
        get_scenario("Mixed"),
        TINY,
        seeds=(0, 1, 2),
        cache=False,
        parallel=2,
        progress=lambda done, total: calls.append((done, total)),
    )
    serial = run_batch(
        get_scenario("Mixed"), TINY, seeds=(0, 1, 2), cache=False
    )
    assert calls == [(1, 3), (2, 3), (3, 3)]
    assert [s.to_dict() for s in parallel] == [s.to_dict() for s in serial]


def test_run_profile_out_saves_loadable_stats(tmp_path):
    import pstats

    out = tmp_path / "run.pstats"
    result = run("Mixed", TINY, seed=0, profile_out=str(out))
    assert result.metrics.completed_jobs > 0
    stats = pstats.Stats(str(out))
    assert stats.total_calls > 0
