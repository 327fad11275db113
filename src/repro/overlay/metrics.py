"""Topology metrics: path lengths, diameter, connectivity.

BLATANT-S maintains "an overlay network with bounded average path length and
minimal number of links" (§IV-A); these helpers measure exactly those
observables, both exactly (BFS from every node) and by source sampling for
large graphs.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from ..errors import TopologyError
from ..types import NodeId
from .graph import OverlayGraph

__all__ = [
    "bfs_distances",
    "hop_distance",
    "average_path_length",
    "estimated_diameter",
    "is_connected",
]


def bfs_distances(
    graph: OverlayGraph, source: NodeId, max_depth: Optional[int] = None
) -> Dict[NodeId, int]:
    """Hop distances from ``source`` to every reachable node (BFS).

    ``max_depth`` bounds the search radius; nodes farther away are omitted.
    The search runs level by level, each level's nodes in the order they
    were reached and each node's neighbours in adjacency order, so the
    returned dict's key order is the order nodes were first reached.
    """
    adj = graph._adj
    if source not in adj:
        raise TopologyError(f"node {source} not in overlay")
    limit = len(adj) if max_depth is None else max_depth
    dist = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and depth < limit:
        depth += 1
        reached = []
        for node in frontier:
            for target in adj[node]:
                if target not in dist:
                    dist[target] = depth
                    reached.append(target)
        frontier = reached
    return dist


def hop_distance(
    graph: OverlayGraph, a: NodeId, b: NodeId, max_depth: Optional[int] = None
) -> Optional[int]:
    """Hop distance between two nodes, or ``None`` if unreachable in bound.

    Searches from both ends, one level at a time, always growing the
    smaller frontier.  Before a level is grown the two visited sets (every
    node within its side's radius; the radii sum to ``r``) are disjoint,
    so the ends lie more than ``r`` hops apart, and the first link the new
    level finds into the other set closes a shortest path of ``r + 1``.
    Raises :class:`TopologyError` if either node is not in the overlay.
    """
    adj = graph._adj
    for node in (a, b):
        if node not in adj:
            raise TopologyError(f"node {node} not in overlay")
    if a == b:
        return 0
    limit = len(adj) if max_depth is None else max_depth
    near, far = {a}, {b}
    frontier, opposite = [a], [b]
    hops = 0
    while hops < limit:
        if len(frontier) > len(opposite):
            frontier, opposite, near, far = opposite, frontier, far, near
        hops += 1
        reached = []
        for node in frontier:
            for target in adj[node]:
                if target not in near:
                    if target in far:
                        return hops
                    near.add(target)
                    reached.append(target)
        if not reached:
            return None
        frontier = reached
    return None


def average_path_length(
    graph: OverlayGraph,
    rng: Optional[random.Random] = None,
    sources: Optional[int] = None,
) -> float:
    """Average shortest-path length over reachable pairs.

    With ``sources`` set, BFS runs only from that many sampled source nodes
    (an unbiased estimator for connected graphs); otherwise from every node.
    Returns 0.0 for graphs with fewer than two nodes.
    """
    nodes = graph.nodes()
    if len(nodes) < 2:
        return 0.0
    if sources is not None and sources < len(nodes):
        if rng is None:
            rng = random.Random(0)
        sample: Sequence[NodeId] = rng.sample(nodes, sources)
    else:
        sample = nodes
    total = 0
    pairs = 0
    for source in sample:
        for node, dist in bfs_distances(graph, source).items():
            if node != source:
                total += dist
                pairs += 1
    return total / pairs if pairs else 0.0


def estimated_diameter(
    graph: OverlayGraph,
    rng: Optional[random.Random] = None,
    sources: Optional[int] = None,
) -> int:
    """Largest eccentricity observed from (sampled) BFS sources."""
    nodes = graph.nodes()
    if len(nodes) < 2:
        return 0
    if sources is not None and sources < len(nodes):
        if rng is None:
            rng = random.Random(0)
        sample: Sequence[NodeId] = rng.sample(nodes, sources)
    else:
        sample = nodes
    diameter = 0
    for source in sample:
        distances = bfs_distances(graph, source)
        if distances:
            diameter = max(diameter, max(distances.values()))
    return diameter


def is_connected(graph: OverlayGraph) -> bool:
    """Whether every node is reachable from the first one."""
    nodes = graph.nodes()
    if len(nodes) <= 1:
        return True
    return len(bfs_distances(graph, nodes[0])) == len(nodes)
