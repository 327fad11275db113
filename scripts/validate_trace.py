"""Validate a recorded JSONL trace against the published event schema.

Thin wrapper over :mod:`repro.obs.validate` (the importable core), kept
so existing CI invocations and docs keep working::

    PYTHONPATH=src python scripts/validate_trace.py run.jsonl
    PYTHONPATH=src python scripts/validate_trace.py run.jsonl --max-problems 5

A rotated soak trace validates as one stream (every segment is read).
Exits nonzero if any event fails validation (or the file is empty).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.obs.validate import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
