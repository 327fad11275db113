"""Unit tests for selective-flooding helpers."""

import random
from collections import OrderedDict

import pytest

from repro.errors import ConfigurationError
from repro.overlay import FloodPolicy, SeenCache, choose_targets, ring


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


def test_seen_cache_evicts_oldest():
    cache = SeenCache(capacity=2)
    cache.seen_before("a")
    cache.seen_before("b")
    cache.seen_before("c")  # evicts "a"
    assert "a" not in cache
    assert "b" in cache
    assert len(cache) == 2


def test_seen_cache_refreshes_on_hit():
    cache = SeenCache(capacity=2)
    cache.seen_before("a")
    cache.seen_before("b")
    cache.seen_before("a")  # refresh "a" so "b" is now oldest
    cache.seen_before("c")
    assert "a" in cache
    assert "b" not in cache


def test_seen_cache_capacity_validation():
    with pytest.raises(ConfigurationError):
        SeenCache(capacity=0)


@pytest.mark.parametrize("capacity", [2, 512])
def test_seen_cache_stays_exact_lru_through_100k_operations_at_capacity(capacity):
    """The window is a plain dict that deletes and re-inserts on every hit
    and evicts from the front, so the dict compacts itself over and over;
    no compaction may lose or resurrect a key."""
    rng = random.Random(capacity)
    cache = SeenCache(capacity=capacity)
    reference = OrderedDict()
    hits = 0
    for step in range(100_000):
        # Uniform draws from a key space twice the window hit about half
        # the time and keep asking for evicted ids again; the slow drift
        # keeps new ids arriving.
        key = rng.randrange(2 * capacity) + step // 100
        expected = key in reference
        if expected:
            reference.move_to_end(key)
        else:
            reference[key] = None
            if len(reference) > capacity:
                reference.popitem(last=False)
        assert cache.seen_before(key) is expected, step
        hits += expected
        if step % 1000 == 0:
            assert list(cache._entries) == list(reference)
    assert list(cache._entries) == list(reference)
    assert len(cache) == capacity
    assert 0.4 < hits / 100_000 < 0.6
