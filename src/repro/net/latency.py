"""One-way latency models for the simulated wide-area network.

The paper only states that its simulator reproduces "realistic round-trip
delays" (§IV-A) without giving a distribution.  We provide three models:

* :class:`ConstantLatency` — fixed delay, handy for unit tests;
* :class:`UniformLatency` — uniform in a range;
* :class:`PairwiseLogNormalLatency` — the default for experiments: every
  (src, dst) pair gets a base one-way delay drawn once from a log-normal
  distribution (median ≈ 25 ms one-way, i.e. ≈ 50 ms RTT — typical of
  geographically dispersed grid sites), plus a small per-message jitter.
  Base delays are symmetric (same for both directions of a pair).
* :class:`SpikeLatency` — a decorator over any base model that adds rare,
  heavy delay spikes (queueing storms, route flaps); used by the fault
  experiments and composable with all of the above.

Latency is orders of magnitude smaller than job runtimes (hours), so the
precise shape does not drive the paper's results; what matters is that
protocol phases take realistic, nonzero, heterogeneous time.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Tuple

from ..errors import ConfigurationError
from ..types import NodeId

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "PairwiseLogNormalLatency",
    "SpikeLatency",
]


class LatencyModel:
    """Interface: sample a one-way delay in seconds for a (src, dst) pair."""

    __slots__ = ()

    def sample(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        """One-way delay in seconds for a message ``src`` -> ``dst``."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float = 0.025) -> None:
        if delay < 0:
            raise ConfigurationError(f"negative latency {delay!r}")
        self.delay = delay

    def sample(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        """The fixed delay, regardless of the pair."""
        return self.delay


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]`` for every message."""

    __slots__ = ("low", "high")

    def __init__(self, low: float = 0.01, high: float = 0.05) -> None:
        if not 0 <= low <= high:
            raise ConfigurationError(f"invalid latency range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        """A fresh uniform draw per message."""
        return rng.uniform(self.low, self.high)


#: FIFO cap on :class:`PairwiseLogNormalLatency`'s per-pair base-delay
#: cache.  Far above what any grid up to the paper's 500 nodes can
#: populate (125k symmetric pairs), so eviction never occurs there and
#: seeded runs are unchanged; at 10^4-10^5 nodes the pair space is
#: quadratic and an unbounded cache would dominate peak memory.  An
#: evicted pair that communicates again simply draws a fresh base delay
#: — still deterministic, and statistically indistinguishable since pairs
#: are i.i.d.
_MAX_PAIRS = 1_000_000


class PairwiseLogNormalLatency(LatencyModel):
    """Log-normal per-pair base delay plus uniform per-message jitter.

    Parameters
    ----------
    median:
        Median one-way base delay in seconds (default 25 ms).
    sigma:
        Shape parameter of the log-normal (default 0.5, giving a long but
        not extreme tail; ~95 % of pairs fall within [9 ms, 66 ms]).
    jitter:
        Per-message jitter, uniform in ``[0, jitter]`` seconds.
    """

    __slots__ = ("mu", "sigma", "jitter", "_base")

    def __init__(
        self,
        median: float = 0.025,
        sigma: float = 0.5,
        jitter: float = 0.005,
    ) -> None:
        if median <= 0 or sigma < 0 or jitter < 0:
            raise ConfigurationError(
                f"invalid log-normal parameters median={median} sigma={sigma} "
                f"jitter={jitter}"
            )
        self.mu = math.log(median)
        self.sigma = sigma
        self.jitter = jitter
        self._base: Dict[Tuple[NodeId, NodeId], float] = {}

    def sample(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        """The pair's cached base delay plus per-message jitter."""
        key = (src, dst) if src <= dst else (dst, src)
        cache = self._base
        base = cache.get(key)
        if base is None:
            base = rng.lognormvariate(self.mu, self.sigma)
            if len(cache) >= _MAX_PAIRS:
                del cache[next(iter(cache))]
            cache[key] = base
        jitter = self.jitter
        if jitter:
            return base + rng.uniform(0.0, jitter)
        return base


class SpikeLatency(LatencyModel):
    """Adds rare, heavy delay spikes on top of any base latency model.

    With probability ``probability`` per message an exponentially
    distributed extra delay with mean ``mean`` seconds is added to the
    base sample — modelling transient queueing storms and route flaps
    whose delays dwarf the usual milliseconds and can reorder messages
    across seconds.  Decorating the transport's model (``transport.latency
    = SpikeLatency(transport.latency, ...)``) composes with every base
    distribution.
    """

    __slots__ = ("base", "probability", "mean")

    def __init__(
        self, base: LatencyModel, probability: float, mean: float
    ) -> None:
        if not 0.0 <= probability < 1.0:
            raise ConfigurationError(
                f"spike probability {probability} out of [0, 1)"
            )
        if mean <= 0:
            raise ConfigurationError(f"non-positive spike mean {mean!r}")
        self.base = base
        self.probability = probability
        self.mean = mean

    def sample(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        """Base delay, plus an exponential spike with the configured odds."""
        delay = self.base.sample(src, dst, rng)
        if rng.random() < self.probability:
            delay += rng.expovariate(1.0 / self.mean)
        return delay
