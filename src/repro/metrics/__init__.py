"""Metrics: per-job records, grid-wide collection, run aggregation."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".collector": ("GridMetrics",),
    ".oracle": ("Oracle", "validate_run"),
    ".records": ("JobRecord",),
})
