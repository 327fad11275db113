"""Unit tests for topology metrics."""

import random

import pytest

from repro.errors import TopologyError
from repro.overlay import (
    OverlayGraph,
    average_path_length,
    bfs_distances,
    estimated_diameter,
    hop_distance,
    is_connected,
    ring,
)


def path_graph(n):
    g = OverlayGraph()
    for i in range(n):
        g.add_node(i)
    for i in range(n - 1):
        g.add_link(i, i + 1)
    return g


def test_bfs_distances_on_path():
    g = path_graph(5)
    assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


def test_bfs_max_depth_limits_radius():
    g = path_graph(5)
    assert bfs_distances(g, 0, max_depth=2) == {0: 0, 1: 1, 2: 2}


def test_hop_distance():
    g = path_graph(5)
    assert hop_distance(g, 0, 4) == 4
    assert hop_distance(g, 2, 2) == 0
    assert hop_distance(g, 0, 4, max_depth=3) is None


def test_hop_distance_unreachable():
    g = path_graph(3)
    g.add_node(99)
    assert hop_distance(g, 0, 99) is None


def test_hop_distance_to_an_unknown_node_raises():
    """An unknown end is an error on either side, not an unreachable pair."""
    g = path_graph(3)
    for a, b in ((0, 99), (99, 0), (99, 99)):
        with pytest.raises(TopologyError):
            hop_distance(g, a, b)


def test_average_path_length_path3():
    # path 0-1-2: distances 1,2,1,1,2,1 over 6 ordered pairs => 4/3
    g = path_graph(3)
    assert abs(average_path_length(g) - 4 / 3) < 1e-12


def test_average_path_length_small_graphs():
    assert average_path_length(OverlayGraph()) == 0.0
    g = OverlayGraph()
    g.add_node(1)
    assert average_path_length(g) == 0.0


def test_average_path_length_sampling_close_to_exact():
    g = ring(100)
    exact = average_path_length(g)
    sampled = average_path_length(g, random.Random(3), sources=30)
    assert abs(exact - sampled) / exact < 0.15


def test_estimated_diameter_ring():
    g = ring(10)
    assert estimated_diameter(g) == 5


def test_estimated_diameter_trivial():
    g = OverlayGraph()
    assert estimated_diameter(g) == 0
    g.add_node(1)
    assert estimated_diameter(g) == 0


def test_is_connected():
    g = path_graph(4)
    assert is_connected(g)
    g.add_node(99)
    assert not is_connected(g)
    assert is_connected(OverlayGraph())


def test_bfs_visits_in_adjacency_order():
    """Key order of the result is the order nodes were first reached:
    level by level, each node's neighbours in link-insertion order."""
    g = OverlayGraph()
    for node in range(7):
        g.add_node(node)
    for a, b in ((0, 3), (0, 1), (0, 2), (1, 6), (3, 5), (3, 4), (2, 6), (5, 6)):
        g.add_link(a, b)
    assert list(bfs_distances(g, 0).items()) == [
        (0, 0), (3, 1), (1, 1), (2, 1), (5, 2), (4, 2), (6, 2)
    ]
    assert list(bfs_distances(g, 0, max_depth=1)) == [0, 3, 1, 2]
    assert list(bfs_distances(g, 0, max_depth=0)) == [0]
    # Re-adding a link moves it last, and the search follows.
    g.remove_link(0, 3)
    g.add_link(0, 3)
    assert list(bfs_distances(g, 0)) == [0, 1, 2, 3, 6, 5, 4]
    assert list(bfs_distances(g, 6, max_depth=2)) == [6, 1, 2, 5, 0, 3]
