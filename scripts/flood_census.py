"""Census of the duplicate-suppression windows a workload's floods fill.

Runs one simulated experiment with ``SeenCache.seen_before`` wrapped *from
outside* — there is no hook in ``src/`` — and prints how many relayed
broadcasts asked a window, how many were duplicates, how far back each
duplicate's id lay when it arrived, how full the fullest window got, how
many ids the windows forgot, how many forgotten ids were asked for again,
and what the overlay under the floods cost to build::

    PYTHONPATH=src python scripts/flood_census.py iMixed paper
    PYTHONPATH=src python scripts/flood_census.py chaos medium 2
    PYTHONPATH=/other/checkout/src python scripts/flood_census.py iMixed paper 3

``SPEC`` is a Table II scenario name, ``chaos`` (``FaultPlan.chaos`` with
reliability and the fail-safe on, the benchmark's faulted medium arm) or
``chaos+failures`` (the same under ``FailureModel.chaos``).  Two distances
are taken per duplicate, both against an unbounded shadow of the window:

* the **LRU stack distance** — the id was among the last *d* distinct ids
  the window was asked about; an LRU window of *d* ids catches it;
* the **first-seen distance** — the id was among the last *d* ids the
  window saw for the first time; a two-generation window of *d* catches it.

The census exits 1 when the worse of the two leaves less than 8× headroom
under the smallest window capacity of the run, so a change to the floods
that lets duplicates arrive later fails before a window answers wrongly.

The package comes from ``PYTHONPATH`` (this checkout's ``src/`` is only the
fallback), so the one file measures any two trees against each other; a
size that is no ``SCALES`` preset is run by importing :class:`Census`.
A claim about ``peak_rss_mb``, the window policy or its capacity
(``docs/PERFORMANCE.md``, "The dedup windows, sized by their reuse
distance") starts here.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402
from repro.experiments import (  # noqa: E402
    SCALES,
    FailureModel,
    FaultPlan,
    RunOptions,
    get_scenario,
    run,
)
from repro.experiments.assembly import build_overlay  # noqa: E402
from repro.overlay.flooding import SeenCache  # noqa: E402

#: Window capacity ÷ worst distance the census insists on.
HEADROOM = 8


class _Shadow:
    """What an unbounded window would know, kept beside one real window."""

    __slots__ = ("recency", "first_seen", "count")

    def __init__(self) -> None:
        self.recency = {}  # id -> None, least recently asked first
        self.first_seen = {}  # id -> its number among first-seen ids
        self.count = 0  # first-seen ids so far


class Census:
    """Counters filled by the wrapper :meth:`install` puts in place."""

    def __init__(self) -> None:
        self.calls = 0
        self.duplicates = 0
        self.forgotten = 0  # ids windows dropped
        self.asked_again = 0  # duplicates a window no longer remembered
        self.worst_lru = 0
        self.worst_first_seen = 0
        self.fullest = 0
        self.shadows = {}  # a SeenCache hashes by identity
        self.forgetful = set()

    def install(self) -> None:
        """Wrap ``SeenCache.seen_before``."""
        seen_before = SeenCache.seen_before
        shadows = self.shadows

        def wrapper(cache, key):
            shadow = shadows.get(cache)
            if shadow is None:
                shadow = shadows[cache] = _Shadow()
            before = len(cache)
            duplicate = seen_before(cache, key)
            after = len(cache)
            self.calls += 1
            self.fullest = max(self.fullest, after)
            if not duplicate and after <= before:
                self.forgotten += before + 1 - after
                self.forgetful.add(cache)
            self._observe(shadow, key, duplicate)
            return duplicate

        SeenCache.seen_before = wrapper

    def _observe(self, shadow, key, duplicate) -> None:
        recency = shadow.recency
        first = shadow.first_seen.get(key)
        if first is None:
            shadow.first_seen[key] = shadow.count
            shadow.count += 1
        else:
            self.duplicates += 1
            self.asked_again += not duplicate
            self.worst_first_seen = max(
                self.worst_first_seen, shadow.count - first
            )
            distance = 0
            for distance, other in enumerate(reversed(recency), 1):
                if other == key:
                    break
            self.worst_lru = max(self.worst_lru, distance)
            del recency[key]
        recency[key] = None

    @property
    def capacity(self):
        """The smallest window capacity of the run (``None``: no window)."""
        return min((cache._capacity for cache in self.shadows), default=None)

    @property
    def worst(self) -> int:
        return max(self.worst_lru, self.worst_first_seen)

    def headroom_ok(self) -> bool:
        capacity = self.capacity
        return capacity is None or self.worst * HEADROOM <= capacity

    def report(self) -> str:
        """The census as the lines ``main`` prints."""
        windows = self.shadows
        share = 100.0 * self.duplicates / self.calls if self.calls else 0.0
        capacity = self.capacity
        headroom = (
            f"{capacity / self.worst:.1f}×" if self.worst else "unbounded"
        )
        return "\n".join(
            [
                f"seen_before calls    {self.calls}",
                f"duplicates           {self.duplicates}  ({share:.1f} %)",
                f"worst LRU distance   {self.worst_lru}",
                f"worst first-seen     {self.worst_first_seen}",
                f"windows              {len(windows)}"
                f"  ({sum(map(len, windows))} ids remembered at the horizon)",
                f"fullest window       {self.fullest} ids"
                f"  (capacity {capacity})",
                f"ids forgotten        {self.forgotten}"
                f"  ({len(self.forgetful)} windows forgot)",
                f"asked again          {self.asked_again}",
                f"headroom             {headroom}  (needed {HEADROOM}×: "
                + ("ok)" if self.headroom_ok() else "FAIL)"),
            ]
        )


def experiment(name: str, duration: float):
    """``(spec, options)`` for :func:`repro.experiments.run`; the plans
    run over their default scenario, ``iMixed``."""
    if name == "chaos":
        options = RunOptions(reliability=True, failsafe=True)
        return FaultPlan.chaos(duration), options
    if name == "chaos+failures":
        options = RunOptions(
            reliability=True,
            failsafe=True,
            fault_plan=FaultPlan.chaos(duration),
        )
        return FailureModel.chaos(duration), options
    return get_scenario(name), None


def main(argv) -> int:
    if len(argv) not in (3, 4) or argv[2] not in SCALES:
        print(
            f"usage: {argv[0]} SPEC SCALE [SEED]   (SPEC a scenario, chaos or "
            f"chaos+failures; SCALE one of {sorted(SCALES)})",
            file=sys.stderr,
        )
        return 2
    scale = SCALES[argv[2]]()
    seed = int(argv[3]) if len(argv) == 4 else 0
    spec, options = experiment(argv[1], scale.duration)
    scenario = spec if options is None else get_scenario("iMixed")
    # Built here to be timed; the run below builds (or copies) its own.
    start = perf_counter()
    graph = build_overlay(scenario.overlay, scale.nodes, seed)
    build_s = perf_counter() - start
    census = Census()
    census.install()
    run(spec, scale, seed=seed, options=options)
    print(f"{argv[1]} @ {argv[2]}, seed {seed}")
    print(f"repro from           {os.path.dirname(repro.__file__)}")
    print(
        f"overlay              {len(graph)} nodes, {graph.link_count} links, "
        f"degree {graph.average_degree():.2f}, built in {build_s:.3f} s"
    )
    print(census.report())
    return 0 if census.headroom_ok() else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
