"""Comparison meta-schedulers: centralized, multi-request, random."""

from .base import BaselineScheduler, wire_node_metrics
from .centralized import CentralizedMetaScheduler
from .gossip import GossipAgent, GossipConfig
from .multirequest import MultiRequestScheduler
from .randomassign import RandomAssignScheduler
from .runner import BASELINE_NAMES, BaselineRunResult

__all__ = [
    "BASELINE_NAMES",
    "BaselineRunResult",
    "BaselineScheduler",
    "CentralizedMetaScheduler",
    "GossipAgent",
    "GossipConfig",
    "MultiRequestScheduler",
    "RandomAssignScheduler",
    "wire_node_metrics",
]
