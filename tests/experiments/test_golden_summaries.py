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

from repro.experiments import SCALES, run

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


def test_golden_files_are_canonical():
    """The committed files themselves round-trip through canonical dumping."""
    for path in GOLDEN_DIR.glob("*.json"):
        data = json.loads(path.read_text())
        assert _canonical(data) == path.read_text(), path.name
