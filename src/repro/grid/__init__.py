"""Grid substrate: resource profiles, performance model, grid nodes."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".node": ("GridNode", "RunningJob"),
    ".performance": (
        "ACCURACY_25", "ACCURACY_BAD", "BASELINE_10", "PRECISE",
        "AccuracyModel", "scaled_ert",
    ),
    ".profiles": (
        "CAPACITY_CHOICES", "Architecture", "JobRequirements", "NodeProfile",
        "OperatingSystem",
    ),
    ".resources": (
        "ARCHITECTURE_DISTRIBUTION", "OS_DISTRIBUTION",
        "random_job_requirements", "random_node_profile",
        "random_performance_index", "weighted_choice",
    ),
})
