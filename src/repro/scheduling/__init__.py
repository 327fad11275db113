"""Local scheduling policies and the paper's ETTC / NAL cost functions."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": ("BATCH", "DEADLINE", "LocalScheduler", "QueuedJob"),
    ".batch": ("BatchScheduler", "FCFSScheduler", "LJFScheduler", "SJFScheduler"),
    ".costs": ("completion_times", "ettc", "nal"),
    ".edf": ("EDFScheduler",),
    ".priority": ("AgingPriorityScheduler", "PriorityScheduler"),
    ".registry": ("SCHEDULER_FACTORIES", "make_scheduler"),
    ".reservation": (
        "BackfillScheduler", "ReservationScheduler",
        "reservation_completion_times",
    ),
})
