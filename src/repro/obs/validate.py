"""Validate recorded JSONL traces against the published event schema.

Every event of a trace file must pass
:func:`~repro.obs.trace.validate_event` — known event name, ``t``/``ev``
present, every required field for that event, no fields outside the
schema.  The CI trace-smoke job runs this over a freshly traced faulted
run, which is what makes :data:`~repro.obs.trace.EVENTS` a contract
rather than documentation.

This module is the importable core behind ``scripts/validate_trace.py``
(the script is a thin wrapper): :func:`validate_trace_file` returns the
problems and per-event counts for programmatic use, :func:`main` is the
CLI entry point.  A rotated trace's backup segments are read in front of
the active file, so a whole soak trace validates as one stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from .trace import read_trace, validate_event

__all__ = ["main", "validate_trace_file"]


def validate_trace_file(path: str) -> Tuple[List[str], Dict[str, int]]:
    """Validate one trace (every segment of it) against the schema.

    Returns ``(problems, counts)``: every schema violation as a
    ``path:line: message`` string (a torn tail a killed writer left
    counts as one), and the number of events seen per event name
    (``"<missing>"`` for records without an ``ev`` field).
    """
    events, torn_lines = read_trace(path)
    problems: List[str] = []
    if torn_lines:
        problems.append(f"{path}: {torn_lines} torn line(s) dropped")
    counts: Dict[str, int] = {}
    for line_number, event in enumerate(events, start=1):
        for problem in validate_event(event):
            problems.append(f"{path}:{line_number}: {problem}")
        name = event.get("ev", "<missing>")
        counts[name] = counts.get(name, 0) + 1
    return problems, counts


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code (nonzero = dirty)."""
    parser = argparse.ArgumentParser(
        description="Validate a recorded JSONL trace against the event schema"
    )
    parser.add_argument("path", help="JSONL trace file to validate")
    parser.add_argument(
        "--max-problems",
        type=int,
        default=20,
        help="stop printing after this many problems (still counts all)",
    )
    args = parser.parse_args(argv)

    problems, counts = validate_trace_file(args.path)
    total = sum(counts.values())
    if not total:
        print(f"{args.path}: no events", file=sys.stderr)
        return 1
    for problem in problems[: args.max_problems]:
        print(problem, file=sys.stderr)
    width = max(len(name) for name in counts)
    for name in sorted(counts):
        print(f"  {name:<{width}}  {counts[name]}")
    print(f"{args.path}: {total} events, {len(problems)} problem(s)")
    return 1 if problems else 0
