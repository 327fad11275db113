"""Bounded selective flooding over the overlay.

ARiA disseminates REQUEST and INFORM messages with "a low-overhead selective
flooding protocol" (§III-D): a message is forwarded for a bounded number of
hops, each node relaying it to a bounded number of random neighbours, and
duplicates are suppressed.  The paper's evaluation uses ≤9 hops / ≤4
neighbours for REQUEST and ≤8 hops / ≤2 neighbours for INFORM (§IV-E).

This module provides the policy object, the neighbour-selection helper and
the per-node duplicate cache; the protocol agents in :mod:`repro.core` wire
them to the transport.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set

from ..errors import ConfigurationError
from ..types import NodeId
from .graph import OverlayGraph

__all__ = ["FloodPolicy", "FloodReach", "choose_targets", "SeenCache"]


@dataclass(frozen=True)
class FloodPolicy:
    """Hop and fan-out bounds of a selective flood."""

    max_hops: int
    fanout: int

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise ConfigurationError(f"max_hops must be >= 1, got {self.max_hops}")
        if self.fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {self.fanout}")


def choose_targets(
    graph: OverlayGraph,
    node: NodeId,
    fanout: int,
    rng: random.Random,
    exclude: Optional[NodeId] = None,
) -> List[NodeId]:
    """Pick up to ``fanout`` random distinct neighbours of ``node``.

    ``exclude`` (typically the hop the message arrived from) is skipped
    when other neighbours exist, which avoids trivially bouncing messages
    back and forth.
    """
    # The adjacency is probed directly — one method call per relayed
    # message adds up — falling back to neighbors_view() on a miss, which
    # raises TopologyError for unknown nodes.  The live list is only read;
    # every return below is a fresh list.
    neighbors = graph._adj.get(node)
    if neighbors is None:
        neighbors = graph.neighbors_view(node)
    if exclude is not None and len(neighbors) > 1:
        neighbors = [n for n in neighbors if n != exclude]
    if len(neighbors) <= fanout:
        return list(neighbors)
    return rng.sample(neighbors, fanout)


class SeenCache:
    """Duplicate suppression over a node's most recent first-seen ids.

    Two generations of ids: a miss enters the new one, which becomes the
    old one (dropping the previous old one) once it holds ``capacity``
    ids.  A hit is ``key in new or key in old`` and does not extend the
    id's life, so an id is remembered while it is among the window's
    last ``capacity`` first-seen ids and forgotten before it is
    ``2 * capacity`` back; ``len()`` stays below ``2 * capacity``.  A
    duplicate reaches a node while its id is among the last few
    (``scripts/flood_census.py``), so a small window answers exactly
    what an unbounded one would.
    """

    __slots__ = ("_capacity", "_new", "_old")

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._new: Set[Hashable] = set()
        self._old: Set[Hashable] = set()

    def seen_before(self, key: Hashable) -> bool:
        """Record ``key``; return ``True`` if it is still remembered."""
        new = self._new
        if key in new or key in self._old:
            return True
        new.add(key)
        if len(new) >= self._capacity:
            self._old = new
            self._new = set()
        return False

    def __contains__(self, key: Hashable) -> bool:
        return key in self._new or key in self._old

    def __len__(self) -> int:
        return len(self._new) + len(self._old)


class FloodReach:
    """Reusable evaluator of the node set a selective flood reaches.

    Computes, level by level, which nodes receive a flood started at an
    initiator under a :class:`FloodPolicy` — the same dissemination shape
    the protocol agents produce (each node relays to ``fanout`` random
    neighbours excluding the hop it heard from, for at most ``max_hops``
    hops, duplicates suppressed).

    The evaluator is built for repeated calls (e.g. sweeping initiators to
    measure coverage): the visited set and the two frontier buffers are
    allocated once and reused across :meth:`reach` calls via a generation
    stamp, so a sweep over thousands of initiators does no per-call
    allocation beyond the result set.
    """

    __slots__ = ("_stamp", "_visited", "_frontier", "_next")

    def __init__(self) -> None:
        self._stamp = 0
        self._visited: Dict[NodeId, int] = {}
        self._frontier: List[tuple] = []
        self._next: List[tuple] = []

    def reach(
        self,
        graph: OverlayGraph,
        initiator: NodeId,
        policy: FloodPolicy,
        rng: random.Random,
    ) -> Set[NodeId]:
        """Nodes (including ``initiator``) reached by one flood.

        ``rng`` drives the per-hop neighbour sampling; seeding it
        identically replays the identical flood.
        """
        stamp = self._stamp = self._stamp + 1
        visited = self._visited
        frontier = self._frontier
        next_frontier = self._next
        frontier.clear()
        next_frontier.clear()

        visited[initiator] = stamp
        reached = {initiator}
        # The initiator's own send excludes nobody (it has no previous hop).
        frontier.append((initiator, None))
        for _ in range(policy.max_hops):
            if not frontier:
                break
            for node, came_from in frontier:
                for target in choose_targets(
                    graph, node, policy.fanout, rng, exclude=came_from
                ):
                    if visited.get(target) == stamp:
                        continue
                    visited[target] = stamp
                    reached.add(target)
                    next_frontier.append((target, node))
            frontier, next_frontier = next_frontier, frontier
            next_frontier.clear()
        self._frontier = frontier
        self._next = next_frontier
        return reached
