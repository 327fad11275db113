"""Unit tests for the bounded completion log (dedup-memory cap).

The log replaces the protocol's unbounded ``_completed`` set.  Eviction
must bound memory without re-enabling double execution: an entry may
only be dropped when the log is over its size cap *and* the entry is
older than every plausible duplicate-ASSIGN replay window.
"""

import pytest

from repro.core.completion import CompletionLog
from repro.core.journal import DurableJournal
from repro.errors import ConfigurationError


def test_validation():
    with pytest.raises(ConfigurationError):
        CompletionLog(max_size=0)
    with pytest.raises(ConfigurationError):
        CompletionLog(min_age=-1.0)


def test_membership_and_times():
    log = CompletionLog()
    log.add(1, 10.0)
    assert 1 in log
    assert 2 not in log
    assert len(log) == 1
    assert log.completed_at(1) == 10.0
    assert log.completed_at(2) is None


def test_over_cap_old_entries_are_evicted_oldest_first():
    log = CompletionLog(max_size=3, min_age=100.0)
    for job_id in range(3):
        log.add(job_id, float(job_id))
    log.add(99, 1000.0)  # far past every entry's replay window
    assert len(log) == 3
    assert 0 not in log  # the oldest went
    assert 1 in log and 2 in log and 99 in log


def test_young_entries_are_never_evicted_even_over_cap():
    # Entries inside the replay window are exactly the ones a stale
    # duplicate ASSIGN could still target: the cap must not outrank the
    # age guard, else eviction re-enables double execution.
    log = CompletionLog(max_size=2, min_age=100.0)
    log.add(1, 1000.0)
    log.add(2, 1001.0)
    log.add(3, 1002.0)  # over cap, but nothing is older than min_age
    assert len(log) == 3
    assert 1 in log and 2 in log and 3 in log
    # Once time passes the window, the cap reasserts itself.
    log.add(4, 1200.0)
    assert len(log) == 2
    assert 1 not in log and 2 not in log
    assert 3 in log and 4 in log


def test_eviction_stops_at_the_first_young_entry():
    log = CompletionLog(max_size=1, min_age=50.0)
    log.add(1, 0.0)
    log.add(2, 90.0)
    log.add(3, 100.0)
    # Entry 1 (age 100) is evictable; entry 2 (age 10) is not, so the
    # log stays over cap rather than dropping a replayable entry.
    assert 1 not in log
    assert 2 in log and 3 in log
    assert len(log) == 2


# ----------------------------------------------------------------------
# Journal backend: the disk file is the only unbounded copy
# ----------------------------------------------------------------------
def test_journal_backed_log_stays_bounded_and_recovers_everything(tmp_path):
    path = tmp_path / "node-0.jsonl"
    log = CompletionLog(max_size=64, min_age=0.0)
    with DurableJournal(path, fsync=False) as journal:
        journal.boot()
        assert log.bind(journal) == []
        for job_id in range(10_000):
            log.add(job_id, float(job_id), 0)
        assert len(log) <= 64
        assert 9_999 in log and 0 not in log
        assert journal.completions == []  # appends go to disk only
    reborn = CompletionLog(max_size=64, min_age=0.0)
    with DurableJournal(path, fsync=False) as journal:
        assert journal.boot() == 1
        recovered = reborn.bind(journal)
        assert [job_id for job_id, _t, _inc in recovered] == list(range(10_000))
        assert recovered[-1] == (9_999, 9_999.0, 0)
        assert len(reborn) <= 64 and 9_999 in reborn
        reborn.add(10_000, 10_000.0, 1)
    with DurableJournal(path, fsync=False) as journal:
        assert journal.completions[-1] == (10_000, 10_000.0, 1)


def test_a_failed_journal_write_leaves_the_job_out_of_the_log():
    # Write-ahead order: remembering before journaling would let a node
    # answer "done" for a completion that a crash then un-happens.
    class FullDisk:
        completions = []

        def record_completion(self, job_id, finished_at, incarnation):
            raise OSError("no space left on device")

    log = CompletionLog()
    log.bind(FullDisk())
    with pytest.raises(OSError):
        log.add(7, 1.0, 0)
    assert 7 not in log and len(log) == 0
