"""Discrete-event simulation kernel.

This package is the substrate for every experiment in the reproduction: a
deterministic event-list simulator (:class:`Simulator`), cancellable events,
periodic callbacks, named random streams and time-series samplers.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".events": ("Event", "EventQueue"),
    ".kernel": ("Simulator",),
    ".rng": ("RandomStreams", "derive_seed"),
    ".sampler": ("PeriodicSampler", "TimeSeries"),
})
