"""Static overlay topology builders.

The paper's future work calls for "experiments with different types of
peer-to-peer overlay networks in order to gain a better understanding of its
correlation to the meta-scheduling performance" (§VI).  These generators
provide that axis: ring, random-regular, Watts–Strogatz small-world and
Barabási–Albert scale-free topologies, all built on
:class:`~repro.overlay.graph.OverlayGraph` with a caller-supplied RNG so
experiments stay reproducible.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from ..errors import ConfigurationError, TopologyError
from ..types import NodeId
from .graph import OverlayGraph
from .metrics import is_connected

__all__ = [
    "ring",
    "chordal_ring",
    "random_regular",
    "small_world",
    "scale_free",
    "TOPOLOGY_BUILDERS",
]


def _empty(size: int) -> OverlayGraph:
    if size < 2:
        raise ConfigurationError(f"topology needs at least 2 nodes, got {size}")
    graph = OverlayGraph()
    for node in range(size):
        graph.add_node(NodeId(node))
    return graph


def ring(size: int, rng: random.Random = None) -> OverlayGraph:  # noqa: ARG001
    """A simple cycle: degree 2, average path length ≈ size/4."""
    graph = _empty(size)
    for node in range(size):
        graph.add_link(NodeId(node), NodeId((node + 1) % size))
    return graph


def chordal_ring(
    size: int, rng: random.Random, chords_per_node: int = 1
) -> OverlayGraph:
    """A ring plus ``chords_per_node`` random chords per node — O(size).

    The cycle guarantees connectivity; the random chords act as the
    shortcuts BLATANT-S's discovery ants would add, bringing the average
    path length down to O(log size) at average degree
    ``2 + 2 * chords_per_node`` (≈ 4 for the default, the degree the paper
    reports for its converged overlay).  Unlike :func:`random_regular` and
    :func:`small_world` this needs no connectivity checks or retries, so it
    stays linear and is the stand-in used for 10k–100k-node overlays where
    ant convergence is infeasible.
    """
    if chords_per_node < 1:
        raise ConfigurationError("chordal_ring needs chords_per_node >= 1")
    graph = _empty(size)
    for node in range(size):
        graph.add_link(NodeId(node), NodeId((node + 1) % size))
    for node in range(size):
        for _ in range(chords_per_node):
            peer = rng.randrange(size)
            if peer != node:
                graph.add_link(NodeId(node), NodeId(peer))
    return graph


def random_regular(size: int, degree: int, rng: random.Random) -> OverlayGraph:
    """A (near-)random regular graph via the pairing model with retries.

    Every node gets exactly ``degree`` links (``size * degree`` must be
    even).  Retries draw fresh pairings until a simple, connected graph
    appears.  For small, relatively dense graphs the per-attempt success
    probability of the pairing model drops to a few percent
    (≈ exp(-(d-1)/2 - (d²-1)/4)), hence the generous retry budget — each
    attempt is only O(size · degree) work.
    """
    if degree < 2:
        raise ConfigurationError("random_regular needs degree >= 2")
    if degree >= size:
        raise ConfigurationError(f"degree {degree} too large for {size} nodes")
    if (size * degree) % 2:
        raise ConfigurationError("size * degree must be even")
    for _ in range(5000):
        graph = _empty(size)
        stubs: List[int] = [node for node in range(size) for _ in range(degree)]
        rng.shuffle(stubs)
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b or graph.has_link(NodeId(a), NodeId(b)):
                ok = False
                break
            graph.add_link(NodeId(a), NodeId(b))
        if ok and is_connected(graph):
            return graph
    raise TopologyError(
        f"failed to build a connected {degree}-regular graph on {size} nodes"
    )


def small_world(
    size: int, degree: int, rng: random.Random, rewire_p: float = 0.1
) -> OverlayGraph:
    """Watts–Strogatz small-world graph (ring lattice + random rewiring)."""
    if degree % 2 or degree < 2:
        raise ConfigurationError("small_world needs an even degree >= 2")
    if degree >= size:
        raise ConfigurationError(f"degree {degree} too large for {size} nodes")
    if not 0 <= rewire_p <= 1:
        raise ConfigurationError(f"rewire probability {rewire_p} out of [0,1]")
    graph = _empty(size)
    half = degree // 2
    for node in range(size):
        for offset in range(1, half + 1):
            graph.add_link(NodeId(node), NodeId((node + offset) % size))
    # Rewire each lattice link with probability rewire_p.
    for a, b in list(graph.links()):
        if rng.random() >= rewire_p:
            continue
        candidates = [
            n
            for n in range(size)
            if n != a and not graph.has_link(NodeId(a), NodeId(n))
        ]
        if not candidates:
            continue
        new_b = rng.choice(candidates)
        graph.remove_link(a, b)
        graph.add_link(a, NodeId(new_b))
        if not is_connected(graph):  # undo a disconnecting rewire
            graph.remove_link(a, NodeId(new_b))
            graph.add_link(a, b)
    return graph


def scale_free(size: int, links_per_node: int, rng: random.Random) -> OverlayGraph:
    """Barabási–Albert preferential attachment graph."""
    if links_per_node < 1:
        raise ConfigurationError("scale_free needs links_per_node >= 1")
    if links_per_node >= size:
        raise ConfigurationError(
            f"links_per_node {links_per_node} too large for {size} nodes"
        )
    graph = _empty(size)
    # Seed clique of links_per_node + 1 nodes.
    seed = links_per_node + 1
    for a in range(seed):
        for b in range(a + 1, seed):
            graph.add_link(NodeId(a), NodeId(b))
    # Attachment pool: node ids repeated once per link endpoint.
    pool: List[int] = []
    for a, b in graph.links():
        pool.extend((a, b))
    for node in range(seed, size):
        targets: Dict[int, None] = {}
        while len(targets) < links_per_node:
            targets[rng.choice(pool)] = None
        for target in targets:
            graph.add_link(NodeId(node), NodeId(target))
            pool.extend((node, target))
    return graph


#: Registry used by the overlay-sensitivity ablation benchmark.
TOPOLOGY_BUILDERS: Dict[str, Callable[..., OverlayGraph]] = {
    "ring": lambda size, rng: ring(size, rng),
    "chordal_ring": lambda size, rng: chordal_ring(size, rng),
    "random_regular": lambda size, rng: random_regular(size, 4, rng),
    "small_world": lambda size, rng: small_world(size, 4, rng),
    "scale_free": lambda size, rng: scale_free(size, 2, rng),
}
