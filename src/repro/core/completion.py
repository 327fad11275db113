"""A bounded, age-aware log of locally completed jobs.

The protocol layer keeps a per-node record of every job it finished so
duplicate ASSIGNs (retransmitted, re-flooded, or resubmitted by a
confused tracker) are rejected instead of executed twice.  A plain set
grows monotonically for the lifetime of the node — harmless in bounded
experiments, a slow leak in long-running ones.

:class:`CompletionLog` caps that memory without weakening the dedup
guarantee where it matters: an entry is evicted only when the log is
over ``max_size`` **and** the entry is older than ``min_age``.  The
duplicate-ASSIGN hazard has a bounded horizon — a stale copy can only
arrive within the reliability layer's give-up horizon plus a couple of
fail-safe probe rounds (see ``docs/FAULTS.md``), both far below the
default hour.  Entries younger than that are never evicted, whatever
the size; entries older than it are provably outside every replay
window and safe to drop oldest-first.

The log also survives crash-restart (the protocol layer carries it
across :meth:`AriaAgent.restart`): it is the executor's durable journal,
the analogue of the tiny write-ahead completion record any real
scheduler persists, and it is what stops a restarted node from
re-executing a job whose Done got lost with the crash.  Inside one
process the Python heap is durable enough; across *real* process deaths
the log takes a :class:`~repro.core.journal.DurableJournal` as its
write-ahead backend — every completion reaches the disk before the log
(and so anyone asking it) remembers it, and binding replays what the
journal recovered at open.  The disk file is the only unbounded copy;
memory stays capped either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..types import JobId

__all__ = ["CompletionLog"]


class CompletionLog:
    """An insertion-ordered job-id set with size- and age-gated eviction."""

    __slots__ = ("max_size", "min_age", "_entries", "_journal")

    def __init__(self, max_size: int = 4096, min_age: float = 3600.0) -> None:
        if max_size < 1:
            raise ConfigurationError(f"max_size {max_size} must be >= 1")
        if min_age < 0:
            raise ConfigurationError(f"min_age {min_age} must be >= 0")
        self.max_size = max_size
        self.min_age = min_age
        #: job id -> completion time, oldest first (completion times are
        #: monotonic, so insertion order is age order).
        self._entries: Dict[JobId, float] = {}
        self._journal = None

    def bind(self, journal) -> List[Tuple[JobId, float, int]]:
        """Take ``journal`` as the write-ahead backend and replay what it
        recovered at open; returns those ``(job, finished_at,
        incarnation)`` entries."""
        self._journal = journal
        recovered = journal.completions
        for job_id, finished_at, _incarnation in recovered:
            self._remember(job_id, finished_at)
        return recovered

    def add(self, job_id: JobId, now: float, incarnation: int = 0) -> None:
        """Record a completion — on the journal first, when there is one —
        and evict what is both old and over-cap."""
        if self._journal is not None:
            self._journal.record_completion(job_id, now, incarnation)
        self._remember(job_id, now)

    def _remember(self, job_id: JobId, now: float) -> None:
        entries = self._entries
        entries[job_id] = now
        if len(entries) <= self.max_size:
            return
        horizon = now - self.min_age
        while len(entries) > self.max_size:
            oldest_job, completed_at = next(iter(entries.items()))
            if completed_at > horizon:
                break  # too young to be outside every replay window
            del entries[oldest_job]

    def __contains__(self, job_id: JobId) -> bool:
        return job_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def completed_at(self, job_id: JobId) -> Optional[float]:
        """The recorded completion time, or ``None`` if absent/evicted."""
        return self._entries.get(job_id)
