"""Unit tests for selective-flooding helpers."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.overlay import FloodPolicy, SeenCache, choose_targets, ring

from ..helpers import TwoGenerations


def test_flood_policy_validation():
    FloodPolicy(max_hops=9, fanout=4)  # the paper's REQUEST policy
    with pytest.raises(ConfigurationError):
        FloodPolicy(max_hops=0, fanout=1)
    with pytest.raises(ConfigurationError):
        FloodPolicy(max_hops=1, fanout=0)


def test_choose_targets_returns_all_when_few_neighbors():
    g = ring(5)
    targets = choose_targets(g, 0, fanout=4, rng=random.Random(0))
    assert sorted(targets) == [1, 4]


def test_choose_targets_samples_without_replacement():
    g = ring(5)
    g.add_link(0, 2)
    g.add_link(0, 3)
    targets = choose_targets(g, 0, fanout=3, rng=random.Random(0))
    assert len(targets) == 3
    assert len(set(targets)) == 3
    assert all(t in (1, 2, 3, 4) for t in targets)


def test_choose_targets_excludes_arrival_hop():
    g = ring(5)
    for _ in range(20):
        targets = choose_targets(g, 0, fanout=2, rng=random.Random(0), exclude=4)
        assert 4 not in targets


def test_choose_targets_keeps_excluded_when_only_neighbor():
    g = ring(5)
    g.remove_link(0, 1)  # node 0 now only connects to 4
    targets = choose_targets(g, 0, fanout=2, rng=random.Random(0), exclude=4)
    assert targets == [4]


def test_seen_cache_detects_duplicates():
    cache = SeenCache()
    assert not cache.seen_before("a")
    assert cache.seen_before("a")
    assert "a" in cache


def test_seen_cache_capacity_validation():
    with pytest.raises(ConfigurationError):
        SeenCache(capacity=0)


@pytest.mark.parametrize("capacity", [1, 2, 3, 8, 64])
def test_seen_cache_remembers_an_id_among_its_last_capacity_ids(capacity):
    """Wherever an id lands in its generation, it outlives ``capacity - 1``
    later first-seen ids and is gone before ``2 * capacity``: every
    lifetime in between occurs for some position."""
    lifetimes = set()
    for position in range(capacity):
        cache = SeenCache(capacity=capacity)
        for filler in range(position):
            cache.seen_before(("filler", filler))
        cache.seen_before("x")
        later = 0
        while "x" in cache and later < 2 * capacity:
            later += 1
            assert not cache.seen_before(("later", later))
        lifetimes.add(later)
    assert lifetimes == set(range(capacity, 2 * capacity))


def test_seen_cache_hit_does_not_extend_an_ids_life():
    capacity = 4
    cache = SeenCache(capacity=capacity)
    assert not cache.seen_before("x")
    for later in range(2 * capacity - 1):
        assert cache.seen_before("x")  # a duplicate copy; no refresh
        cache.seen_before(later)
    assert "x" not in cache
    assert not cache.seen_before("x")  # forgotten, so first-seen again


@pytest.mark.parametrize("capacity", [2, 512])
def test_seen_cache_agrees_with_two_generations_over_100k_operations(
    capacity,
):
    """Every answer and every length against the block model in
    ``tests/helpers.py``, across tens of thousands of generation swaps;
    the window never holds ``2 * capacity`` ids, and does reach one less."""
    rng = random.Random(capacity)
    cache = SeenCache(capacity=capacity)
    reference = TwoGenerations(capacity)
    hits = longest = 0
    for step in range(100_000):
        # Uniform draws from a key space twice the window hit often and
        # keep asking for forgotten ids again; the slow drift keeps new
        # ids arriving.
        key = rng.randrange(2 * capacity) + step // 100
        expected = reference.seen_before(key)
        assert cache.seen_before(key) is expected, step
        assert len(cache) == len(reference) < 2 * capacity, step
        hits += expected
        longest = max(longest, len(cache))
        if step % 1000 == 0:
            for probe in range(step // 100, step // 100 + 2 * capacity):
                assert (probe in cache) == (probe in reference)
    assert longest == 2 * capacity - 1
    assert 0.5 < hits / 100_000 < 0.9
