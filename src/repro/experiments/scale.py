"""Grid-size scaling of the paper's evaluation setup.

The paper simulates 500 nodes, 1000 jobs and 41 h 40 m of grid activity per
run (§IV).  That is fully supported (:meth:`ScenarioScale.paper`), but the
test suite and default benchmarks use a scaled-down grid.

Scaling preserves the *offered load shape*: node count and job count shrink
by the same factor while the submission interval grows by its inverse, so
the submission window, the per-node arrival rate, the queue backlog
dynamics and therefore the shapes of all time series stay comparable to the
paper's — only the statistics get noisier.

Beyond the paper's size, the ``large`` (10 000 nodes) and ``huge``
(100 000 nodes) presets scale *up*: same per-node arrival rate, 20× / 200×
the traffic.  They are feasible thanks to slab-backed grid state, bounded
per-agent caches and O(1) sampler probes — see ``docs/PERFORMANCE.md``.

Set the environment variable ``ARIA_BENCH_SCALE`` to ``tiny``, ``small``,
``medium``, ``paper``, ``large`` or ``huge`` to choose the benchmark scale
(default ``small``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["SCALES", "ScenarioScale", "bench_scale_from_env"]

#: The paper's node count; submission intervals in Table II refer to it.
REFERENCE_NODES = 500

#: Upper bound on ``duration / sample_interval``.  Each sampled series
#: costs one probe event per tick, so an interval that does not scale with
#: the duration would emit millions of probe events (and samples) on long
#: runs.  The paper's cadence gives 250 points; 10 000 leaves generous
#: headroom while keeping probe traffic negligible at any scale.
MAX_SAMPLES_PER_SERIES = 10_000


@dataclass(frozen=True)
class ScenarioScale:
    """Concrete grid size for one run."""

    nodes: int = 500
    jobs: int = 1000
    #: Total simulated time (paper: 41 h 40 m = 150 000 s).
    duration: float = 150_000.0
    #: Expanding scenarios add ``expanding_fraction * nodes`` new nodes
    #: (paper: 500 → 700, i.e. 0.4) ...
    expanding_fraction: float = 0.4
    #: ... between these two times (paper: 1 h 23 m → 4 h 10 m).
    expanding_start: float = 5_000.0
    expanding_end: float = 15_000.0
    #: Sampling cadence of the time-series probes (idle nodes, completed
    #: jobs).  600 s gives 250 points over the paper duration.
    sample_interval: float = 600.0

    def __post_init__(self) -> None:
        if self.nodes < 2 or self.jobs < 1:
            raise ConfigurationError(f"degenerate scale {self!r}")
        if not 0 <= self.expanding_fraction <= 1:
            raise ConfigurationError("expanding_fraction out of [0, 1]")
        if not 0 <= self.expanding_start < self.expanding_end <= self.duration:
            raise ConfigurationError("invalid expanding window")
        if self.sample_interval <= 0:
            raise ConfigurationError("sample_interval must be positive")
        if self.duration / self.sample_interval > MAX_SAMPLES_PER_SERIES:
            raise ConfigurationError(
                f"sample_interval {self.sample_interval!r} yields "
                f"{self.duration / self.sample_interval:.0f} samples over "
                f"duration {self.duration!r}; must not exceed "
                f"{MAX_SAMPLES_PER_SERIES} — scale the interval with the "
                f"duration"
            )

    @property
    def interval_factor(self) -> float:
        """Multiplier applied to paper-scale submission intervals."""
        return REFERENCE_NODES / self.nodes

    @property
    def expanding_extra_nodes(self) -> int:
        return max(1, round(self.nodes * self.expanding_fraction))

    # ------------------------------------------------------------------
    # Stock sizes
    # ------------------------------------------------------------------
    @classmethod
    def paper(cls) -> "ScenarioScale":
        """The paper's exact evaluation size (500 nodes, 1000 jobs)."""
        return cls()

    @classmethod
    def large(cls) -> "ScenarioScale":
        """20× the paper: 10 000 nodes, 20 000 jobs, same load shape."""
        return cls(nodes=10_000, jobs=20_000, sample_interval=600.0)

    @classmethod
    def huge(cls) -> "ScenarioScale":
        """200× the paper: 100 000 nodes, 200 000 jobs, same load shape."""
        return cls(nodes=100_000, jobs=200_000, sample_interval=600.0)

    @classmethod
    def medium(cls) -> "ScenarioScale":
        return cls(nodes=150, jobs=300, sample_interval=600.0)

    @classmethod
    def small(cls) -> "ScenarioScale":
        return cls(nodes=60, jobs=120, sample_interval=1200.0)

    @classmethod
    def tiny(cls) -> "ScenarioScale":
        """Fast enough for unit tests (< 1 s per run)."""
        return cls(
            nodes=16,
            jobs=30,
            duration=60_000.0,
            expanding_start=3_000.0,
            expanding_end=9_000.0,
            sample_interval=2_000.0,
        )


#: The one name -> preset table: ``--scale``, ``ARIA_BENCH_SCALE`` and
#: ``scripts/reproduce_paper.py`` all choose from it.
SCALES = {
    "huge": ScenarioScale.huge,
    "large": ScenarioScale.large,
    "paper": ScenarioScale.paper,
    "medium": ScenarioScale.medium,
    "small": ScenarioScale.small,
    "tiny": ScenarioScale.tiny,
}


def bench_scale_from_env(default: str = "small") -> ScenarioScale:
    """The benchmark scale selected by ``ARIA_BENCH_SCALE``."""
    name = os.environ.get("ARIA_BENCH_SCALE", default).strip().lower()
    factory = SCALES.get(name)
    if factory is None:
        raise ConfigurationError(
            f"ARIA_BENCH_SCALE={name!r}; expected one of {sorted(SCALES)}"
        )
    return factory()
