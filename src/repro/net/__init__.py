"""Networking: messages, latency models, the abstract :class:`Transport`
interface and its simulated implementation, traffic stats, fault
injection, and reliable delivery.

The live (asyncio, HTTP+JSON) implementation lives in
:mod:`repro.runtime`."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".faults": ("FaultInjector",),
    ".latency": (
        "ConstantLatency", "LatencyModel", "PairwiseLogNormalLatency",
        "SpikeLatency", "UniformLatency",
    ),
    ".message": ("Message", "wire_size"),
    ".reliability": ("Ack", "ReliabilityConfig", "ReliabilityLayer"),
    ".traffic": ("TrafficMonitor", "TrafficReport"),
    ".transport": ("SimTransport", "Transport"),
})
