"""Unit tests for the overlay graph."""

import pytest

from repro.errors import TopologyError
from repro.overlay import OverlayGraph


def triangle():
    g = OverlayGraph()
    for n in (1, 2, 3):
        g.add_node(n)
    g.add_link(1, 2)
    g.add_link(2, 3)
    g.add_link(3, 1)
    return g


def test_add_and_query_nodes():
    g = OverlayGraph()
    g.add_node(1)
    g.add_node(2)
    assert g.has_node(1)
    assert 2 in g
    assert not g.has_node(3)
    assert len(g) == 2
    assert g.nodes() == [1, 2]


def test_duplicate_node_raises():
    g = OverlayGraph()
    g.add_node(1)
    with pytest.raises(TopologyError):
        g.add_node(1)


def test_add_link_is_undirected():
    g = triangle()
    assert g.has_link(1, 2)
    assert g.has_link(2, 1)
    assert g.neighbors(1) == [2, 3]
    assert g.degree(1) == 2


def test_add_link_twice_returns_false():
    g = triangle()
    assert g.add_link(1, 2) is False
    assert g.link_count == 3


def test_self_link_raises():
    g = triangle()
    with pytest.raises(TopologyError):
        g.add_link(1, 1)


def test_link_to_unknown_node_raises():
    g = triangle()
    with pytest.raises(TopologyError):
        g.add_link(1, 99)
    with pytest.raises(TopologyError):
        g.add_link(99, 1)


def test_remove_link():
    g = triangle()
    g.remove_link(1, 2)
    assert not g.has_link(1, 2)
    assert not g.has_link(2, 1)
    assert g.link_count == 2


def test_remove_missing_link_raises():
    g = triangle()
    g.remove_link(1, 2)
    with pytest.raises(TopologyError):
        g.remove_link(1, 2)


def test_remove_node_removes_its_links():
    g = triangle()
    g.remove_node(2)
    assert not g.has_node(2)
    assert g.neighbors(1) == [3]
    assert g.link_count == 1


def test_remove_unknown_node_raises():
    with pytest.raises(TopologyError):
        OverlayGraph().remove_node(7)


def test_neighbors_of_unknown_node_raises():
    with pytest.raises(TopologyError):
        triangle().neighbors(42)
    with pytest.raises(TopologyError):
        triangle().degree(42)


def test_links_iterates_each_link_once():
    g = triangle()
    assert sorted(g.links()) == [(1, 2), (1, 3), (2, 3)]


def test_average_degree():
    g = triangle()
    assert g.average_degree() == 2.0
    assert OverlayGraph().average_degree() == 0.0


def test_copy_is_independent():
    g = triangle()
    clone = g.copy()
    clone.remove_link(1, 2)
    assert g.has_link(1, 2)
    assert not clone.has_link(1, 2)
    assert g.link_count == 3
    assert clone.link_count == 2


def test_has_link_on_unknown_node_is_false():
    assert not triangle().has_link(42, 1)


def test_readding_a_link_moves_it_last_on_both_ends():
    """The order ``PruningAnt`` leaves behind (it removes and re-adds a
    link around every check), which every recorded run depends on."""
    g = triangle()
    g.add_node(4)
    g.add_link(1, 4)
    g.add_link(2, 4)
    assert g.neighbors(1) == [2, 3, 4]
    assert g.neighbors(2) == [1, 3, 4]
    g.remove_link(1, 2)
    g.add_link(1, 2)
    assert g.neighbors(1) == [3, 4, 2]
    assert g.neighbors(2) == [3, 4, 1]
    assert g.neighbors(3) == [2, 1]  # bystanders keep their order
    assert g.link_count == 5


def test_neighbors_view_is_the_live_adjacency_and_neighbors_a_copy():
    g = triangle()
    g.add_node(4)
    view = g.neighbors_view(1)
    copy = g.neighbors(1)
    g.add_link(1, 4)
    assert list(view) == [2, 3, 4]  # a view taken earlier sees the link
    assert copy == [2, 3]
    copy.append(99)
    g.neighbors(1).clear()
    assert g.neighbors(1) == [2, 3, 4]
    assert g.degree(1) == 3
    g.remove_node(4)
    assert list(view) == [2, 3]
