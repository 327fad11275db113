"""Unit tests for latency models."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net import ConstantLatency, PairwiseLogNormalLatency, UniformLatency
from repro.net import latency as latency_module


def test_constant_latency_returns_fixed_delay():
    model = ConstantLatency(0.1)
    rng = random.Random(0)
    assert model.sample(1, 2, rng) == 0.1
    assert model.sample(5, 9, rng) == 0.1


def test_constant_latency_rejects_negative():
    with pytest.raises(ConfigurationError):
        ConstantLatency(-0.1)


def test_uniform_latency_within_range():
    model = UniformLatency(0.01, 0.05)
    rng = random.Random(0)
    for _ in range(200):
        assert 0.01 <= model.sample(1, 2, rng) <= 0.05


def test_uniform_latency_rejects_bad_range():
    with pytest.raises(ConfigurationError):
        UniformLatency(0.05, 0.01)
    with pytest.raises(ConfigurationError):
        UniformLatency(-1.0, 0.01)


def test_lognormal_base_delay_is_stable_per_pair():
    model = PairwiseLogNormalLatency(jitter=0.0)
    rng = random.Random(0)
    first = model.sample(1, 2, rng)
    second = model.sample(1, 2, rng)
    assert first == second


def test_lognormal_base_delay_is_symmetric():
    model = PairwiseLogNormalLatency(jitter=0.0)
    rng = random.Random(0)
    assert model.sample(1, 2, rng) == model.sample(2, 1, rng)


def test_lognormal_pairs_differ():
    model = PairwiseLogNormalLatency(jitter=0.0)
    rng = random.Random(0)
    assert model.sample(1, 2, rng) != model.sample(3, 4, rng)


def test_lognormal_jitter_adds_bounded_noise():
    model = PairwiseLogNormalLatency(jitter=0.005)
    rng = random.Random(0)
    base_model = PairwiseLogNormalLatency(jitter=0.0)
    base_rng = random.Random(0)
    base = base_model.sample(1, 2, base_rng)
    for _ in range(100):
        delay = model.sample(1, 2, rng)
        assert base <= delay <= base + 0.005


def test_lognormal_median_is_roughly_respected():
    model = PairwiseLogNormalLatency(median=0.025, sigma=0.5, jitter=0.0)
    rng = random.Random(7)
    delays = sorted(model.sample(i, i + 1, rng) for i in range(0, 2000, 2))
    median = delays[len(delays) // 2]
    assert 0.02 < median < 0.032


def test_lognormal_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        PairwiseLogNormalLatency(median=0.0)
    with pytest.raises(ConfigurationError):
        PairwiseLogNormalLatency(sigma=-1.0)
    with pytest.raises(ConfigurationError):
        PairwiseLogNormalLatency(jitter=-0.1)


def test_pair_cache_evicts_the_oldest_pair_first(monkeypatch):
    # At the real cap (10^6 pairs) no run of this repo reaches the
    # front-delete FIFO; a cap of three does.
    monkeypatch.setattr(latency_module, "_MAX_PAIRS", 3)
    model = PairwiseLogNormalLatency(jitter=0.0)
    rng = random.Random(0)
    first = {
        tuple(sorted(pair)): model.sample(*pair, rng)
        for pair in ((0, 1), (2, 0), (0, 3))
    }
    assert list(model._base) == [(0, 1), (0, 2), (0, 3)]
    model.sample(4, 0, rng)
    assert list(model._base) == [(0, 2), (0, 3), (0, 4)]  # (0, 1) went first
    # A survivor keeps its base delay and its place in the queue.
    assert model.sample(0, 2, rng) == first[(0, 2)]
    assert list(model._base) == [(0, 2), (0, 3), (0, 4)]


def test_an_evicted_pair_redraws_deterministically(monkeypatch):
    monkeypatch.setattr(latency_module, "_MAX_PAIRS", 3)

    def evict_then_redraw(rng):
        model = PairwiseLogNormalLatency(jitter=0.0)
        old = model.sample(0, 1, rng)
        for dst in (2, 3, 4):
            model.sample(0, dst, rng)
        assert (0, 1) not in model._base
        state = rng.getstate()
        new = model.sample(1, 0, rng)
        rng.setstate(state)
        # The redraw is the next log-normal draw of the stream, and it
        # evicts the next-oldest pair in turn.
        assert new == rng.lognormvariate(model.mu, model.sigma)
        assert list(model._base) == [(0, 3), (0, 4), (0, 1)]
        return old, new

    old, new = evict_then_redraw(random.Random(7))
    assert evict_then_redraw(random.Random(7)) == (old, new)
    assert new != old  # a fresh draw, not the forgotten base delay
