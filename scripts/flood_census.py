"""Census of the duplicate-suppression windows a workload's floods fill.

Runs one simulated scenario with ``SeenCache.seen_before`` wrapped *from
outside* — there is no hook in ``src/`` — and prints how many relayed
broadcasts asked a window, how many were duplicates, how full the fullest
window got against its capacity, how many ids were evicted, how many
windows were full at the horizon, and what the overlay under the floods
cost to build::

    PYTHONPATH=src python scripts/flood_census.py iMixed paper
    PYTHONPATH=/other/checkout/src python scripts/flood_census.py iMixed paper 3

The package comes from ``PYTHONPATH`` (this checkout's ``src/`` is only the
fallback), so the one file measures any two trees against each other; a
size that is no ``SCALES`` preset is run by importing :class:`Census`.
A claim about ``peak_rss_mb``, the eviction policy or the window's capacity
(``docs/PERFORMANCE.md``, "The overlay, held once") starts here.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402
from repro.experiments import SCALES, get_scenario  # noqa: E402
from repro.experiments.assembly import build_overlay  # noqa: E402
from repro.experiments.runner import run_grid  # noqa: E402
from repro.overlay.flooding import SeenCache  # noqa: E402


class Census:
    """Counters filled by the wrapper :meth:`install` puts in place."""

    def __init__(self) -> None:
        self.calls = 0
        self.duplicates = 0
        self.evictions = 0
        self.windows = set()  # a SeenCache hashes by identity

    def install(self) -> None:
        """Wrap ``SeenCache.seen_before``."""
        seen_before = SeenCache.seen_before
        windows = self.windows

        def wrapper(cache, key):
            windows.add(cache)
            before = len(cache)
            duplicate = seen_before(cache, key)
            self.calls += 1
            if duplicate:
                self.duplicates += 1
            elif len(cache) == before:  # a miss that did not grow the window
                self.evictions += 1
            return duplicate

        SeenCache.seen_before = wrapper

    def report(self) -> str:
        """The census as the lines ``main`` prints."""
        windows = self.windows
        fullest = max(windows, key=len, default=None)
        full = sum(1 for cache in windows if len(cache) >= cache._capacity)
        share = 100.0 * self.duplicates / self.calls if self.calls else 0.0
        return "\n".join(
            [
                f"seen_before calls    {self.calls}",
                f"duplicates           {self.duplicates}  ({share:.1f} %)",
                f"windows              {len(windows)}"
                f"  ({sum(map(len, windows))} ids remembered at the horizon)",
                "fullest window       "
                + (
                    f"{len(fullest)} of {fullest._capacity}"
                    if fullest is not None
                    else "n/a"
                ),
                f"evictions            {self.evictions}",
                f"windows full         {full}",
            ]
        )


def main(argv) -> int:
    if len(argv) not in (3, 4) or argv[2] not in SCALES:
        print(
            f"usage: {argv[0]} SCENARIO SCALE [SEED]   "
            f"(SCALE one of {sorted(SCALES)})",
            file=sys.stderr,
        )
        return 2
    scenario = get_scenario(argv[1])
    scale = SCALES[argv[2]]()
    seed = int(argv[3]) if len(argv) == 4 else 0
    # Built here to be timed; the run below builds (or copies) its own.
    start = perf_counter()
    graph = build_overlay(scenario.overlay, scale.nodes, seed)
    build_s = perf_counter() - start
    census = Census()
    census.install()
    run_grid(scenario, scale, seed)
    print(f"{scenario.name} @ {argv[2]}, seed {seed}")
    print(f"repro from           {os.path.dirname(repro.__file__)}")
    print(
        f"overlay              {len(graph)} nodes, {graph.link_count} links, "
        f"degree {graph.average_degree():.2f}, built in {build_s:.3f} s"
    )
    print(census.report())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
