"""Comparison meta-schedulers: centralized, multi-request, random."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("BaselineScheduler", "wire_node_metrics"),
    ".centralized": ("CentralizedMetaScheduler",),
    ".gossip": ("GossipAgent", "GossipConfig"),
    ".multirequest": ("MultiRequestScheduler",),
    ".randomassign": ("RandomAssignScheduler",),
    ".runner": ("BASELINE_NAMES", "BaselineRunResult"),
})
