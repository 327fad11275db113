"""INFORM candidate selection (§III-D).

"Nodes will typically generate INFORM messages for a set of jobs in their
queue according to a selection mechanism.  For batch schedulers jobs with
the largest waiting times are preferentially selected, whereas for deadline
schedulers jobs with the least lateness are chosen."

*Least lateness* uses the paper's Fig. 4 definition of lateness — the time
left from (expected) completion to the deadline — so the jobs most at risk
(smallest slack) are advertised first.

Selection runs every INFORM round on every backlogged node, so it must not
re-sort the whole waiting queue to pick 2 candidates:
``heapq.nsmallest(count, ...)`` is O(n log count) and — per its documented
contract — returns exactly ``sorted(...)[:count]``, so the picked
candidates (and therefore every downstream message) are identical to the
full sort.
"""

from __future__ import annotations

import heapq
from typing import List

from ..scheduling.base import DEADLINE, LocalScheduler, QueuedJob
from ..scheduling.costs import completion_times

__all__ = ["select_inform_candidates"]


def select_inform_candidates(
    scheduler: LocalScheduler,
    count: int,
    now: float,
    running_remaining: float,
) -> List[QueuedJob]:
    """Pick up to ``count`` waiting jobs to advertise for rescheduling."""
    waiting = scheduler.queued()
    if not waiting:
        return []
    if scheduler.kind == DEADLINE:
        order = scheduler.ordered_queue()
        etcs = completion_times(order, now, running_remaining)
        slack = {
            entry.job.job_id: entry.job.deadline - etc
            for entry, etc in zip(order, etcs)
        }
        return heapq.nsmallest(
            count, waiting, key=lambda e: (slack[e.job.job_id], e.enqueue_time)
        )
    # Batch: largest waiting time first (earliest enqueue first).
    return heapq.nsmallest(count, waiting, key=lambda e: e.enqueue_time)

