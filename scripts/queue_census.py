"""Census of the queues a workload's cost probes actually see.

Runs one simulated scenario with every registry scheduler's ``cost_of`` /
``queue_cost_of`` / ``enqueue`` / ``remove`` / ``pop_next`` wrapped *from
outside* — there is no hook in ``src/`` — and prints how many probes there
were, how deep the probed queue was, the longest queue any node built and
the mean wall time of one scheduler call::

    PYTHONPATH=src python scripts/queue_census.py iMixed paper
    PYTHONPATH=/other/checkout/src python scripts/queue_census.py iMixed paper 3

The package comes from ``PYTHONPATH`` (this checkout's ``src/`` is only the
fallback), so the one file measures any two trees against each other.
A claim that queues got deep enough for a cache or a vector kernel
(``docs/PERFORMANCE.md``, "Cost evaluation: one left fold") starts here.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from time import perf_counter

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402
from repro.experiments import SCALES, get_scenario  # noqa: E402
from repro.experiments.runner import run_grid  # noqa: E402
from repro.scheduling import SCHEDULER_FACTORIES  # noqa: E402

PROBES = ("cost_of", "queue_cost_of")
MUTATIONS = ("enqueue", "remove", "pop_next")


class Census:
    """Counters filled by the wrappers :meth:`install` puts in place."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.depths: Counter = Counter()  # probed queue length -> probes
        self.longest = 0
        self.seconds = 0.0

    def install(self) -> None:
        """Wrap the five methods on every registry scheduler class.

        Each concrete class gets its own wrapper around the method it
        resolves to, so a ``super()`` call inside one is not counted (or
        timed) twice.
        """
        classes = set(SCHEDULER_FACTORIES.values())
        resolved = [
            (cls, name, getattr(cls, name))
            for cls in classes
            for name in PROBES + MUTATIONS
        ]
        for cls, name, method in resolved:
            setattr(cls, name, self._wrap(name, method))

    def _wrap(self, name, method):
        probe = name in PROBES

        def wrapper(scheduler, *args, **kwargs):
            if probe:
                self.depths[len(scheduler)] += 1
            start = perf_counter()
            result = method(scheduler, *args, **kwargs)
            self.seconds += perf_counter() - start
            self.calls[name] += 1
            self.longest = max(self.longest, len(scheduler))
            return result

        return wrapper

    def report(self) -> str:
        """The census as the lines ``main`` prints."""
        probes = sum(self.depths.values())
        calls = sum(self.calls.values())

        def share(count):
            return f"{100.0 * count / probes:.1f} %" if probes else "n/a"

        def tally(names):
            return ", ".join(f"{name} {self.calls[name]}" for name in names)

        shallow = sum(n for depth, n in self.depths.items() if depth <= 2)
        histogram = "  ".join(
            f"{depth}:{count}" for depth, count in sorted(self.depths.items())
        )
        per_call = 1e6 * self.seconds / calls if calls else 0.0
        return "\n".join(
            [
                f"probes               {probes}  ({tally(PROBES)})",
                f"mutations            {calls - probes}  ({tally(MUTATIONS)})",
                f"probed queue empty   {share(self.depths[0])}",
                f"probed queue <= 2    {share(shallow)}",
                f"deepest probed queue {max(self.depths, default=0)}",
                f"longest queue        {self.longest}",
                f"probes by depth      {histogram}",
                f"per scheduler call   {per_call:.2f} us"
                f"  ({calls} calls, {self.seconds:.3f} s)",
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
    seed = int(argv[3]) if len(argv) == 4 else 0
    census = Census()
    census.install()
    run_grid(scenario, SCALES[argv[2]](), seed)
    print(f"{scenario.name} @ {argv[2]}, seed {seed}")
    print(f"repro from           {os.path.dirname(repro.__file__)}")
    print(census.report())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
