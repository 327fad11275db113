"""Workload: job descriptors, random generation, submission schedules."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".generator": ("ERT_DISTRIBUTION", "BoundedNormal", "JobGenerator"),
    ".jobs": ("Job",),
    ".jsdl": ("parse_jsdl", "parse_jsdl_file"),
    ".submission": ("SubmissionProcess", "SubmissionSchedule"),
    ".traces": ("TraceEntry", "WorkloadTrace"),
})
