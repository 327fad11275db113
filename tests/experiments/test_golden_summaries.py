"""Bit-identical determinism against committed golden summaries.

The hot-path optimizations (slab event queue, incremental cost caching)
must not change any simulated outcome: the same ``(scenario, scale, seed)``
must produce the exact same :class:`RunSummary` — byte-identical canonical
JSON — as the pre-optimization code that generated the golden files in
``tests/experiments/golden/``.

If one of these tests fails after an intentional semantic change to the
simulation, regenerate the golden files (see ``docs/PERFORMANCE.md``;
``bench/README.md`` has the benchmark that pins the same outcomes) and
call the change out loudly in the PR — it alters every published number.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import SCALES, RunOptions, get_scenario, run
from repro.experiments.runner import run_grid

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The frozen (scenario, scale, seed) pairs; one batch/ETTC-heavy run with
#: rescheduling, one deadline/NAL run — together they exercise the kernel,
#: flooding, both cost families and the INFORM path.
PAIRS = [
    ("iMixed", "tiny", 0),
    ("iDeadline", "small", 1),
]


def _canonical(summary_dict) -> str:
    return json.dumps(summary_dict, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("scenario,scale_name,seed", PAIRS)
def test_summary_matches_golden_file(scenario, scale_name, seed):
    golden_path = GOLDEN_DIR / f"{scenario}_{scale_name}_seed{seed}.json"
    golden = golden_path.read_text()
    summary = run(scenario, SCALES[scale_name](), seed=seed).summary()
    assert _canonical(summary.to_dict()) == golden, (
        f"{scenario}@{scale_name} seed={seed} diverged from the golden "
        f"summary in {golden_path} — a hot-path change altered simulated "
        f"outcomes"
    )


@pytest.mark.parametrize("scenario,scale_name,seed", PAIRS)
def test_an_eight_id_dedup_window_reproduces_the_golden_file(
    scenario, scale_name, seed
):
    """Every duplicate of these runs reaches a node while its id is among
    the node's last 8 first-seen ids (``scripts/flood_census.py`` measures
    at most 7 at every scale), so a window of 8 answers as the default
    does."""
    golden_path = GOLDEN_DIR / f"{scenario}_{scale_name}_seed{seed}.json"
    options = RunOptions(config_overrides={"seen_cache_capacity": 8})
    summary = run(
        scenario, SCALES[scale_name](), seed=seed, options=options
    ).summary()
    assert _canonical(summary.to_dict()) == golden_path.read_text()


@pytest.mark.parametrize("scenario", ["iMixed", "iDeadline"])
def test_an_undersized_dedup_window_costs_traffic_not_correctness(scenario):
    """A window of one id forgets duplicates that are still arriving: they
    are relayed again, so more messages go out, but every invariant the
    post-run sweep checks still holds."""
    counts = {}
    for capacity in (64, 1):
        result = run_grid(
            get_scenario(scenario),
            SCALES["small"](),
            0,
            config_overrides={"seen_cache_capacity": capacity},
            check=True,
        )
        summary = result.summary()
        assert summary.violations == []
        assert summary.duplicate_executions == 0
        counts[capacity] = summary.traffic_counts
    assert counts[1]["Inform"] > counts[64]["Inform"]
    assert sum(counts[1].values()) > sum(counts[64].values())


def test_golden_files_are_canonical():
    """The committed files themselves round-trip through canonical dumping."""
    for path in GOLDEN_DIR.glob("*.json"):
        data = json.loads(path.read_text())
        assert _canonical(data) == path.read_text(), path.name
