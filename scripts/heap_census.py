"""Census of what a simulated run still holds on the heap at its horizon.

Runs one simulated scenario under ``tracemalloc``, takes a snapshot when
the clock reaches the horizon — the grid, its agents and their metrics are
all still alive — and prints the lines of ``src/repro`` that allocated the
most of what is left (MiB and blocks), plus the traced total and peak::

    PYTHONPATH=src python scripts/heap_census.py iMixed paper
    PYTHONPATH=src python scripts/heap_census.py iMixed tiny 3
    PYTHONPATH=/other/checkout/src python scripts/heap_census.py iMixed paper

The package comes from ``PYTHONPATH`` (this checkout's ``src/`` is only the
fallback), so the one file measures any two trees that have
``GridSetup.close`` against each other; a
size that is no ``SCALES`` preset is run by importing :func:`census`.
Tracing slows the run several times over and adds its own bookkeeping to
RSS, so the census names holders and their sizes, not ``peak_rss_mb``.
A claim that some structure is the heap's largest holder
(``docs/PERFORMANCE.md``, "The hosting rule, computed") starts here.

After the snapshot the grid is closed (``GridSetup.close``) and dropped,
and one collection counts what reference counting could not free; the
script exits 1 when that is not zero ("A finished run frees its grid").
"""

from __future__ import annotations

import gc
import linecache
import os
import sys
import tracemalloc
from typing import Tuple

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402
from repro.experiments import SCALES, build_grid, get_scenario  # noqa: E402

#: Holders printed, largest first.
TOP = 12

MIB = 1024.0 * 1024.0


def census(scenario, scale, seed: int = 0) -> Tuple[str, int]:
    """Run ``scenario`` once under ``tracemalloc``; the report as text
    and the number of objects the closed grid left in cycles."""
    package = os.path.dirname(repro.__file__)
    tracemalloc.start()
    setup = build_grid(scenario, scale, seed)
    setup.run()
    snapshot = tracemalloc.take_snapshot()
    traced, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    setup.close()
    del setup
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    left = len(gc.garbage)
    gc.garbage.clear()
    gc.set_debug(0)
    ours = snapshot.filter_traces(
        [tracemalloc.Filter(True, os.path.join(package, "*"))]
    ).statistics("lineno")
    lines = [
        f"traced at horizon    {traced / MIB:.2f} MiB"
        f"  (peak {peak / MIB:.2f} MiB)",
        f"allocated in repro   {sum(s.size for s in ours) / MIB:.2f} MiB"
        f"  in {sum(s.count for s in ours)} blocks",
        f"{'MiB':>8} {'blocks':>9}  holder",
    ]
    for stat in ours[:TOP]:
        frame = stat.traceback[0]
        where = os.path.relpath(frame.filename, package)
        source = linecache.getline(frame.filename, frame.lineno).strip()
        lines.append(
            f"{stat.size / MIB:8.2f} {stat.count:9d}  "
            f"{where}:{frame.lineno}  {source}"
        )
    lines.append(f"left behind after close: {left} objects in cycles")
    return "\n".join(lines), left


def main(argv) -> int:
    if len(argv) not in (3, 4) or argv[2] not in SCALES:
        print(
            f"usage: {argv[0]} SCENARIO SCALE [SEED]   "
            f"(SCALE one of {sorted(SCALES)})",
            file=sys.stderr,
        )
        return 2
    scenario = get_scenario(argv[1])
    seed = int(argv[3]) if len(argv) == 4 else 0
    report, left = census(scenario, SCALES[argv[2]](), seed)
    print(f"{scenario.name} @ {argv[2]}, seed {seed}")
    print(f"repro from           {os.path.dirname(repro.__file__)}")
    print(report)
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
