"""Peer-to-peer overlay substrate: graph, BLATANT-S maintenance, flooding."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ants": ("DiscoveryAnt", "PruningAnt", "random_walk"),
    ".blatant": ("BlatantConfig", "BlatantMaintainer", "build_blatant_overlay"),
    ".flooding": ("FloodPolicy", "FloodReach", "SeenCache", "choose_targets"),
    ".graph": ("OverlayGraph",),
    ".metrics": (
        "average_path_length", "bfs_distances", "estimated_diameter",
        "hop_distance", "is_connected",
    ),
    ".topologies": (
        "TOPOLOGY_BUILDERS", "random_regular", "ring", "scale_free",
        "small_world",
    ),
})
