"""Census of the search one BLATANT overlay build does to converge.

Builds ``build_blatant_overlay(SIZE)`` on the ``overlay.build`` stream of
SEED (the overlay a run of that size and seed starts from) with the
searches wrapped *from outside* — there is no hook in ``src/`` — and prints
the ticks and convergence checks the build took, how many source searches
each check ran and how many a failing one needed, the ``hop_distance``
calls of each ant species, the build's seconds and the adjacency digest
``tests/overlay/test_blatant.py`` pins::

    PYTHONPATH=src python scripts/overlay_census.py 500
    PYTHONPATH=/other/checkout/src python scripts/overlay_census.py 1000 2

The package comes from ``PYTHONPATH`` (this checkout's ``src/`` is only the
fallback), so the one file measures any two trees against each other.  The
seconds are the best of three unwrapped builds; the counts come from one
more, wrapped build, whose digest must equal theirs.  A claim about the
overlay's set-up cost (``docs/PERFORMANCE.md``, "The overlay, converged
with less search") starts here.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from collections import Counter
from statistics import median
from time import perf_counter

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402
from repro.overlay import ants, blatant  # noqa: E402
from repro.sim.rng import derive_seed  # noqa: E402

REPEATS = 3


def build(size: int, seed: int):
    """The overlay a run of ``size`` nodes and ``seed`` starts from."""
    rng = random.Random(derive_seed(seed, "overlay.build"))
    return blatant.build_blatant_overlay(size, rng)


def digest(graph) -> str:
    """The adjacency digest ``test_converged_overlays_are_pinned`` pins."""
    adjacency = repr([(n, graph.neighbors(n)) for n in graph.nodes()])
    return hashlib.sha256(adjacency.encode()).hexdigest()[:12]


class Census:
    """Counters filled by the wrappers :meth:`install` puts in place."""

    def __init__(self) -> None:
        self.ticks = 0
        #: Source searches of each convergence check, keyed by the tick
        #: count it ran at: checks run between ticks, every few of them.
        self.searches = Counter()
        self.species = ""
        self.hop_calls = Counter()

    def install(self) -> None:
        """Wrap ``BlatantMaintainer.tick``, the check's ``bfs_distances``,
        the ants' ``hop_distance`` and both ant constructors."""
        tick = blatant.BlatantMaintainer.tick
        bfs_distances = blatant.bfs_distances
        hop_distance = ants.hop_distance

        def counted_tick(maintainer):
            self.ticks += 1
            tick(maintainer)

        def counted_search(*args, **kwargs):
            self.searches[self.ticks] += 1
            return bfs_distances(*args, **kwargs)

        def counted_hop(*args, **kwargs):
            self.hop_calls[self.species] += 1
            return hop_distance(*args, **kwargs)

        def tagged(cls):
            init = cls.__init__

            def wrapper(ant, *args, **kwargs):
                self.species = cls.__name__
                init(ant, *args, **kwargs)

            cls.__init__ = wrapper

        blatant.BlatantMaintainer.tick = counted_tick
        blatant.bfs_distances = counted_search
        ants.hop_distance = counted_hop
        tagged(ants.DiscoveryAnt)
        tagged(ants.PruningAnt)

    def report(self) -> str:
        """The census as the lines ``main`` prints."""
        per_check = [self.searches[tick] for tick in sorted(self.searches)]
        failing = per_check[:-1]  # the build stops at the first "yes"
        return "\n".join(
            [
                f"ticks                {self.ticks}",
                f"convergence checks   {len(per_check)}"
                f"  ({len(failing)} failing)",
                f"source searches      {sum(per_check)}"
                f"  ({sum(per_check) / len(per_check):.2f} per check)",
                "a failing check      "
                + (
                    f"{min(failing)}-{max(failing)} searches, "
                    f"median {median(failing):g}"
                    if failing
                    else "n/a"
                ),
                f"the passing check    {per_check[-1]} searches",
                "hop_distance calls   "
                + ", ".join(
                    f"{cls.__name__} {self.hop_calls[cls.__name__]}"
                    for cls in (ants.DiscoveryAnt, ants.PruningAnt)
                ),
            ]
        )


def main(argv) -> int:
    if len(argv) not in (2, 3):
        print(f"usage: {argv[0]} SIZE [SEED]", file=sys.stderr)
        return 2
    size = int(argv[1])
    seed = int(argv[2]) if len(argv) == 3 else 0
    seconds = []
    for _ in range(REPEATS):
        start = perf_counter()
        graph = build(size, seed)
        seconds.append(perf_counter() - start)
    census = Census()
    census.install()
    wrapped = build(size, seed)
    if digest(wrapped) != digest(graph):
        print("the wrapped build differs from the plain one", file=sys.stderr)
        return 1
    print(f"BLATANT overlay, {size} nodes, seed {seed}")
    print(f"repro from           {os.path.dirname(repro.__file__)}")
    print(
        f"overlay              {graph.link_count} links, "
        f"degree {graph.average_degree():.2f}"
    )
    print(census.report())
    print(f"build                {min(seconds):.3f} s (best of {REPEATS})")
    print(f"adjacency digest     {digest(graph)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
