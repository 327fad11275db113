"""Undirected overlay graph with deterministic iteration order.

The overlay is the logical peer-to-peer network connecting grid nodes
(§III-A: "all nodes are connected through some sort of peer-to-peer overlay
network").  The graph object holds the global adjacency; protocol code only
ever reads a node's own neighbour list, preserving the fully distributed
semantics of the paper.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..errors import TopologyError
from ..types import NodeId

__all__ = ["OverlayGraph"]


class OverlayGraph:
    """An undirected graph keyed by :class:`~repro.types.NodeId`.

    One neighbour list per node, in link-insertion order, is the only
    adjacency: a seeded simulation replays identically, and a mutation has
    nothing to invalidate.  Removing and re-adding a link moves it last on
    both ends — the order :class:`~repro.overlay.ants.PruningAnt` leaves
    behind, which every recorded run depends on.
    """

    __slots__ = ("_adj", "_link_count")

    def __init__(self) -> None:
        self._adj: Dict[NodeId, List[NodeId]] = {}
        self._link_count = 0

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        """Add an isolated node (it must not already exist)."""
        if node in self._adj:
            raise TopologyError(f"node {node} already in overlay")
        self._adj[node] = []

    def remove_node(self, node: NodeId) -> None:
        """Remove a node and all its links."""
        neighbors = self._adj.pop(node, None)
        if neighbors is None:
            raise TopologyError(f"node {node} not in overlay")
        for other in neighbors:
            self._adj[other].remove(node)
        self._link_count -= len(neighbors)

    def has_node(self, node: NodeId) -> bool:
        """Whether ``node`` is part of the overlay."""
        return node in self._adj

    def nodes(self) -> List[NodeId]:
        """All node ids, in insertion order."""
        return list(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._adj

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def _check_nodes(self, a: NodeId, b: NodeId) -> None:
        if a == b:
            raise TopologyError(f"self-link on node {a}")
        if a not in self._adj:
            raise TopologyError(f"node {a} not in overlay")
        if b not in self._adj:
            raise TopologyError(f"node {b} not in overlay")

    def add_link(self, a: NodeId, b: NodeId) -> bool:
        """Add an undirected link; returns ``False`` if it already existed."""
        self._check_nodes(a, b)
        if b in self._adj[a]:
            return False
        self._adj[a].append(b)
        self._adj[b].append(a)
        self._link_count += 1
        return True

    def remove_link(self, a: NodeId, b: NodeId) -> None:
        """Remove an existing undirected link."""
        self._check_nodes(a, b)
        if b not in self._adj[a]:
            raise TopologyError(f"no link {a}--{b}")
        self._adj[a].remove(b)
        self._adj[b].remove(a)
        self._link_count -= 1

    def has_link(self, a: NodeId, b: NodeId) -> bool:
        """Whether the undirected link ``a -- b`` exists."""
        adj = self._adj.get(a)
        return adj is not None and b in adj

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Neighbour ids of ``node``, in link-insertion order (fresh list)."""
        return list(self.neighbors_view(node))

    def neighbors_view(self, node: NodeId) -> List[NodeId]:
        """The live neighbour list of ``node`` itself — read-only by contract.

        Flood target selection reads it without a copy per message; later
        mutations of the graph show in it.
        """
        adj = self._adj.get(node)
        if adj is None:
            raise TopologyError(f"node {node} not in overlay")
        return adj

    def degree(self, node: NodeId) -> int:
        """Number of links incident to ``node``."""
        return len(self.neighbors_view(node))

    @property
    def link_count(self) -> int:
        """Number of undirected links."""
        return self._link_count

    def links(self) -> Iterable[Tuple[NodeId, NodeId]]:
        """Iterate undirected links once each, as ``(a, b)`` with a first seen."""
        seen: Set[Tuple[NodeId, NodeId]] = set()
        for a, adj in self._adj.items():
            for b in adj:
                key = (a, b) if a <= b else (b, a)
                if key not in seen:
                    seen.add(key)
                    yield key

    def average_degree(self) -> float:
        """Mean node degree (2 * links / nodes)."""
        if not self._adj:
            return 0.0
        return 2.0 * self._link_count / len(self._adj)

    def copy(self) -> "OverlayGraph":
        """Deep copy (used by pruning checks and what-if analyses)."""
        clone = OverlayGraph()
        clone._adj = {node: list(adj) for node, adj in self._adj.items()}
        clone._link_count = self._link_count
        return clone
