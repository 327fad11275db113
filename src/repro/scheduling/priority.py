"""Priority local scheduling (a future-work extension of the paper, §VI).

Jobs carry an integer ``priority`` (larger = more urgent); execution order
is by priority, then arrival.  :class:`AgingPriorityScheduler` additionally
promotes long-waiting jobs so low-priority work cannot starve — aging is the
classic remedy and makes the policy a more realistic extension target.

Both are batch policies and interoperate with FCFS/SJF through the shared
ETTC cost.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigurationError
from .base import QueuedJob
from .batch import BatchScheduler

__all__ = ["PriorityScheduler", "AgingPriorityScheduler"]


class PriorityScheduler(BatchScheduler):
    """Strict priority order, arrival-ordered within one priority level."""

    name = "PRIORITY"

    def execution_order(self, entries: List[QueuedJob]) -> List[QueuedJob]:
        """Sort by descending priority, ties by arrival."""
        return sorted(
            entries, key=lambda e: (-e.job.priority, e.enqueue_time)
        )


class AgingPriorityScheduler(BatchScheduler):
    """Priority order with linear aging.

    A job's effective priority grows by one level per ``aging_interval``
    seconds spent waiting, evaluated against the latest enqueue times seen;
    the probe entry of cost computations (enqueue_time = +inf) ages zero.
    """

    name = "AGING"

    def __init__(self, aging_interval: float = 3600.0) -> None:
        super().__init__()
        if aging_interval <= 0:
            raise ConfigurationError(
                f"aging_interval must be positive, got {aging_interval!r}"
            )
        self.aging_interval = aging_interval

    def execution_order(self, entries: List[QueuedJob]) -> List[QueuedJob]:
        if not entries:
            return []
        # The newest (finite) enqueue time approximates "now": schedulers are
        # time-agnostic by design, and ordering only needs relative ages.
        finite = [e.enqueue_time for e in entries if e.enqueue_time != float("inf")]
        now = max(finite) if finite else 0.0

        def effective_priority(entry: QueuedJob) -> float:
            if entry.enqueue_time == float("inf"):
                return float(entry.job.priority)
            age = max(0.0, now - entry.enqueue_time)
            return entry.job.priority + age / self.aging_interval

        return sorted(
            entries, key=lambda e: (-effective_priority(e), e.enqueue_time)
        )
