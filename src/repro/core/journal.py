"""Durable write-ahead journal: executor state that survives the process.

The in-memory :class:`~repro.core.completion.CompletionLog` is what
:meth:`AriaAgent.restart` calls "the executor's durable journal" — and
inside one process that is honest, because a simulated crash never
destroys the Python heap.  A *real* crash (SIGKILL, OOM, power) does.
:class:`DurableJournal` is the log's on-disk backend that keeps the
cross-incarnation no-double-execution invariant true across actual
process deaths: every completion is fsync'd to an append-only JSONL file
*before* it is announced to the grid, and every incarnation bump is
recorded the same way, so a restarted process resumes with the full
completion memory and an incarnation counter strictly past every one
that ever ran.

Write-ahead discipline and crash tolerance:

* records are one JSON object per line, flushed and ``fsync``'d per
  append — a record either fully reaches the disk or is a torn tail;
* a torn tail (trailing bytes without a newline — the signature of a
  kill mid-write) is dropped and truncated away on open, so the next
  append starts on a clean line.  A *newline-terminated* line that fails
  to parse cannot be produced by a torn write and raises
  :class:`~repro.errors.JournalError` (real corruption must not be
  silently eaten);
* the journal file is held under an exclusive advisory lock
  (``flock``) for the owner's lifetime: a second open of the same
  journal while the first incarnation is still alive raises instead of
  letting two incarnations of one node run concurrently.

Record kinds (unknown kinds are skipped for forward compatibility):

* ``{"k": "inc", "v": N}`` — this journal's node is now incarnation N;
* ``{"k": "done", "job": J, "t": T, "inc": N}`` — job J finished at
  protocol time T under incarnation N.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from ..errors import JournalError

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["DurableJournal"]


class DurableJournal:
    """Append-only fsync'd JSONL journal for one node.

    Opening loads (and repairs) the existing file; :meth:`boot` then
    resolves which incarnation the owning process runs as.  ``fsync``
    can be disabled for tests that hammer the journal; ``lock=False``
    skips the duplicate-incarnation guard (e.g. read-only inspection of
    a dead node's journal).
    """

    __slots__ = (
        "path",
        "fsync",
        "incarnation",
        "completions",
        "torn_bytes",
        "_handle",
    )

    def __init__(
        self, path, *, fsync: bool = True, lock: bool = True
    ) -> None:
        self.path = os.fspath(path)
        self.fsync = fsync
        #: Last recorded incarnation (``None`` for a fresh journal).
        self.incarnation: Optional[int] = None
        #: ``(job_id, finished_at, incarnation)`` entries recovered at
        #: open.  Appends go to disk only — the bounded in-memory copy is
        #: the :class:`~repro.core.completion.CompletionLog` in front.
        self.completions: List[Tuple[int, float, int]] = []
        #: Bytes of torn tail dropped on open (0 = clean shutdown).
        self.torn_bytes = 0
        self._handle = open(self.path, "a+b")
        if lock and fcntl is not None:
            try:
                fcntl.flock(
                    self._handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB
                )
            except OSError:
                self._handle.close()
                self._handle = None
                raise JournalError(
                    f"journal {self.path} is locked — another incarnation "
                    "of this node is still alive"
                ) from None
        try:
            self._load()
        except JournalError:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _load(self) -> None:
        handle = self._handle
        handle.seek(0)
        data = handle.read()
        # Everything up to the last newline is complete; trailing bytes
        # without one are a torn write (a record's newline is its final
        # byte, so a partial append can never look newline-terminated).
        good_end = data.rfind(b"\n") + 1
        self.torn_bytes = len(data) - good_end
        for number, line in enumerate(data[:good_end].splitlines(), 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise JournalError(
                    f"journal {self.path} is corrupt at line {number}"
                ) from None
            kind = record.get("k")
            if kind == "inc":
                self.incarnation = int(record["v"])
            elif kind == "done":
                self.completions.append(
                    (record["job"], float(record["t"]), int(record["inc"]))
                )
        if self.torn_bytes:
            handle.truncate(good_end)
        handle.seek(0, os.SEEK_END)

    def boot(self) -> int:
        """Resolve and durably record the owner's incarnation.

        A fresh journal boots as incarnation 0.  Any reopen of a journal
        that already recorded an incarnation is, by definition, a
        restart after a death (a clean exit is never respawned under the
        same journal), so the counter bumps past *every* incarnation
        that ever ran — including ones whose bump record itself was the
        torn tail.
        """
        if self.incarnation is None:
            value = 0
        else:
            value = self.incarnation + 1
        self.record_incarnation(value)
        return value

    # ------------------------------------------------------------------
    # Appends (write-ahead: callers journal first, announce after)
    # ------------------------------------------------------------------
    def record_incarnation(self, value: int) -> None:
        """Durably record that this node is now incarnation ``value``."""
        self._append({"k": "inc", "v": int(value)})
        self.incarnation = int(value)

    def record_completion(
        self, job_id: int, finished_at: float, incarnation: int
    ) -> None:
        """Durably record one finished job before announcing it."""
        self._append(
            {
                "k": "done",
                "job": job_id,
                "t": float(finished_at),
                "inc": int(incarnation),
            }
        )

    def _append(self, record: dict) -> None:
        handle = self._handle
        if handle is None:
            raise JournalError(f"journal {self.path} is closed")
        line = json.dumps(record, separators=(",", ":")) + "\n"
        handle.write(line.encode("utf-8"))
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the file (releasing the lock); idempotent."""
        handle = self._handle
        if handle is not None:
            self._handle = None
            handle.close()

    def __enter__(self) -> "DurableJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
