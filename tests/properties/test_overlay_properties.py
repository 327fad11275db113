"""Property-based tests for the overlay substrate."""

import random
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay import (
    OverlayGraph,
    SeenCache,
    bfs_distances,
    build_blatant_overlay,
    choose_targets,
    hop_distance,
    is_connected,
    random_regular,
    ring,
    scale_free,
    small_world,
)

from ..helpers import TwoGenerations

sizes = st.integers(min_value=4, max_value=40)
seeds = st.integers(min_value=0, max_value=1000)


@st.composite
def random_graphs(draw):
    """A connected random graph built from a ring plus random chords."""
    size = draw(sizes)
    rng = random.Random(draw(seeds))
    graph = ring(size)
    for _ in range(draw(st.integers(min_value=0, max_value=2 * size))):
        a, b = rng.sample(range(size), 2)
        graph.add_link(a, b)
    return graph


@given(random_graphs())
def test_link_count_matches_adjacency(graph):
    assert graph.link_count == len(list(graph.links()))
    assert sum(graph.degree(n) for n in graph.nodes()) == 2 * graph.link_count


@given(random_graphs())
def test_neighbors_are_symmetric(graph):
    for a, b in graph.links():
        assert b in graph.neighbors(a)
        assert a in graph.neighbors(b)


@given(random_graphs(), seeds)
def test_remove_node_cleans_all_links(graph, seed):
    rng = random.Random(seed)
    victim = rng.choice(graph.nodes())
    degree = graph.degree(victim)
    links_before = graph.link_count
    graph.remove_node(victim)
    assert graph.link_count == links_before - degree
    for node in graph.nodes():
        assert victim not in graph.neighbors(node)


@given(random_graphs())
def test_bfs_satisfies_triangle_inequality_on_links(graph):
    source = graph.nodes()[0]
    distances = bfs_distances(graph, source)
    for a, b in graph.links():
        if a in distances and b in distances:
            assert abs(distances[a] - distances[b]) <= 1


@given(random_graphs(), seeds)
def test_hop_distance_is_symmetric(graph, seed):
    rng = random.Random(seed)
    a, b = rng.sample(graph.nodes(), 2)
    assert hop_distance(graph, a, b) == hop_distance(graph, b, a)


def reference_bfs(graph, source, max_depth=None):
    """The one-sided deque BFS the overlay searched with before its
    level-by-level and bidirectional searches, restated as the oracle."""
    dist = {source: 0}
    frontier = deque((source,))
    while frontier:
        node = frontier.popleft()
        next_depth = dist[node] + 1
        if max_depth is not None and next_depth > max_depth:
            continue
        for target in graph.neighbors(node):
            if target not in dist:
                dist[target] = next_depth
                frontier.append(target)
    return dist


@st.composite
def search_graphs(draw):
    """A converged BLATANT overlay, or a graph in parts: random trees with
    chords, single nodes among them, in a shuffled link order."""
    rng = random.Random(draw(seeds))
    if draw(st.booleans()):
        # Below 20 nodes the ring is already converged.  At 20 and 21 it
        # never converges: a non-backtracking 12-step walk ends 8 or 9
        # hops from its nest, never beyond the 9-hop target, so no ant
        # adds a link and the pairs 10 hops apart stay.
        return build_blatant_overlay(
            draw(st.integers(min_value=22, max_value=100)), rng
        )
    graph = OverlayGraph()
    links = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        first = len(graph)
        size = draw(st.integers(min_value=1, max_value=25))
        for node in range(first, first + size):
            graph.add_node(node)
            if node > first:
                links.append((node, rng.randrange(first, node)))
        if size > 1:
            for _ in range(draw(st.integers(min_value=0, max_value=size))):
                links.append(tuple(rng.sample(range(first, first + size), 2)))
    rng.shuffle(links)
    for a, b in links:
        graph.add_link(a, b)
    return graph


@given(search_graphs(), seeds)
def test_searches_agree_with_the_deque_reference(graph, seed):
    """Same distances, same bound, same key order — on every kind of
    graph the searches meet, whether or not the ends are connected."""
    rng = random.Random(seed)
    nodes = graph.nodes()
    for _ in range(4):
        a, b = rng.choice(nodes), rng.choice(nodes)
        for max_depth in (None, 0, 1, 3, 9):
            expected = reference_bfs(graph, a, max_depth)
            assert hop_distance(graph, a, b, max_depth) == expected.get(b)
            found = bfs_distances(graph, a, max_depth)
            assert list(found.items()) == list(expected.items())


@given(random_graphs(), seeds, st.integers(min_value=1, max_value=6))
def test_choose_targets_returns_distinct_neighbors(graph, seed, fanout):
    rng = random.Random(seed)
    node = rng.choice(graph.nodes())
    targets = choose_targets(graph, node, fanout, rng)
    assert len(targets) == min(fanout, graph.degree(node))
    assert len(set(targets)) == len(targets)
    neighbors = set(graph.neighbors(node))
    assert all(t in neighbors for t in targets)


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=16),
)
def test_seen_cache_agrees_with_reference_generations(keys, capacity):
    cache = SeenCache(capacity=capacity)
    reference = TwoGenerations(capacity)
    for key in keys:
        assert cache.seen_before(key) == reference.seen_before(key)
        assert len(cache) == len(reference) < 2 * capacity
    for key in range(31):
        assert (key in cache) == (key in reference)


@given(st.integers(min_value=10, max_value=40), seeds)
@settings(max_examples=20)
def test_random_regular_invariants(size, seed):
    # size >= 10: the pairing model needs headroom over the degree, else a
    # simple connected pairing may not exist within the retry budget.
    degree = 4
    if (size * degree) % 2:
        size += 1
    graph = random_regular(size, degree, random.Random(seed))
    assert all(graph.degree(n) == degree for n in graph.nodes())
    assert is_connected(graph)


@given(st.integers(min_value=8, max_value=40), seeds)
@settings(max_examples=20)
def test_small_world_preserves_link_count(size, seed):
    graph = small_world(size, 4, random.Random(seed))
    assert graph.link_count == size * 2
    assert is_connected(graph)


@given(st.integers(min_value=6, max_value=40), seeds)
@settings(max_examples=20)
def test_scale_free_connected_with_min_degree(size, seed):
    graph = scale_free(size, 2, random.Random(seed))
    assert is_connected(graph)
    assert all(graph.degree(n) >= 2 for n in graph.nodes())


@given(random_graphs())
def test_copy_equals_original(graph):
    clone = graph.copy()
    assert clone.nodes() == graph.nodes()
    assert sorted(clone.links()) == sorted(graph.links())
    assert clone.link_count == graph.link_count
