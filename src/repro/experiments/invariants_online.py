"""Streaming protocol invariants: catch violations *during* a run.

:mod:`repro.experiments.invariants` inspects the final grid state after a
run ends — fine for a 30-second simulation, useless for a soak run that
is supposed to stay up for hours: a double execution in minute two
should stop the run in minute two, not pass silently until teardown.

:class:`OnlineInvariantChecker` is a trace-bus *sink wrapper*: it sits
between the :class:`~repro.obs.Tracer` and the real sink, inspects every
event as it is emitted, forwards it unchanged, and accumulates
human-readable violation strings the moment an invariant breaks.  All
state is bounded (completion memory is an LRU of ``max_tracked_jobs``
entries; everything else is proportional to *currently unresolved* jobs
and nodes), so the checker can ride along a multi-hour soak without
growing.

The checks, all incremental:

* **Double execution** — a second ``job.finished`` for a job id that
  already finished (cross-node and cross-incarnation alike).
* **Stale-incarnation delivery** — a ``msg.delivered`` whose destination
  is currently crashed (between its ``node.crashed`` and
  ``node.restarted`` events).  Needs transport-level tracing; degrades
  to a no-op below that level.
* **Orphan-adoption convergence** — a ``job.orphaned`` that is neither
  adopted nor otherwise resolved within ``orphan_grace`` protocol
  seconds.
* **Tracking quiescence** — a fail-safe ``probe.sent`` for a job that
  finished more than ``settle`` protocol seconds earlier (leaked
  tracking state resubmits finished jobs eventually).

Each distinct violation is reported once; ``on_violation`` (when given)
fires on every *new* violation so a soak harness can abort the run
immediately.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..types import JobId, NodeId

__all__ = ["OnlineInvariantChecker"]


class OnlineInvariantChecker:
    """Trace-sink wrapper that checks invariants event by event.

    ``sink`` is the downstream sink every event is forwarded to
    (``None`` discards them — checker-only mode, e.g. in tests).  Pass
    the checker *as* the tracer's sink::

        sink = obs.make_sink()
        checker = OnlineInvariantChecker(sink)
        tracer = Tracer(obs, sink=checker)

    ``settle`` and ``orphan_grace`` are protocol seconds (matching the
    post-run checker's ``settle`` semantics); ``max_tracked_jobs``
    bounds the finished-job memory; ``on_violation`` is called with each
    new violation string as it is found.
    """

    def __init__(
        self,
        sink=None,
        *,
        settle: float = 1800.0,
        orphan_grace: float = 2400.0,
        max_tracked_jobs: int = 4096,
        on_violation: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.sink = sink
        self.settle = settle
        self.orphan_grace = orphan_grace
        self.max_tracked_jobs = max_tracked_jobs
        self.on_violation = on_violation
        #: Violation strings, in discovery order (empty = clean so far).
        self.violations: List[str] = []
        #: Events inspected (forwarded or not).
        self.checked = 0
        self._now = 0.0
        #: Finished jobs, oldest first and bounded: job -> (node, finish time).
        self._finished: Dict[JobId, Tuple[NodeId, float]] = {}
        #: Unresolved orphans: job -> orphaning time.
        self._orphans: Dict[JobId, float] = {}
        #: Nodes currently crashed (between node.crashed and
        #: node.restarted).
        self._down: Set[NodeId] = set()
        #: Dedup keys of violations already reported.
        self._flagged: Set[Tuple[str, object]] = set()

    # ------------------------------------------------------------------
    # Sink protocol
    # ------------------------------------------------------------------
    def append(self, event: Dict[str, Any]) -> None:
        """Inspect one trace event, then forward it downstream."""
        self._check(event)
        if self.sink is not None:
            self.sink.append(event)

    def close(self) -> None:
        """Run the final orphan sweep and close the downstream sink."""
        self._sweep_orphans(self._now)
        if self.sink is not None:
            self.sink.close()

    # ------------------------------------------------------------------
    # Incremental checks
    # ------------------------------------------------------------------
    def _violate(self, key: Tuple[str, object], text: str) -> None:
        if key in self._flagged:
            return
        self._flagged.add(key)
        self.violations.append(text)
        if self.on_violation is not None:
            self.on_violation(text)

    def _check(self, event: Dict[str, Any]) -> None:
        self.checked += 1
        name = event["ev"]
        t = event.get("t", self._now)
        if t > self._now:
            self._now = t

        if name == "job.finished":
            job = event["job"]
            prior = self._finished.get(job)
            if prior is not None:
                prior_node, prior_t = prior
                self._violate(
                    ("double_execution", job),
                    f"job {job} finished twice: node {prior_node} at "
                    f"t={prior_t:.0f}, then node {event['node']} at "
                    f"t={t:.0f} — double execution",
                )
            else:
                self._finished[job] = (event["node"], t)
                if len(self._finished) > self.max_tracked_jobs:
                    del self._finished[next(iter(self._finished))]
            self._orphans.pop(job, None)
        elif name in (
            "job.adopted",
            "job.lost",
            "job.unschedulable",
            "job.resubmitted",
        ):
            self._orphans.pop(event["job"], None)
        elif name == "job.orphaned":
            self._orphans.setdefault(event["job"], t)
        elif name == "node.crashed":
            self._down.add(event["node"])
        elif name == "node.restarted":
            self._down.discard(event["node"])
        elif name == "msg.delivered":
            dst = event["dst"]
            if dst in self._down:
                self._violate(
                    ("stale_delivery", dst),
                    f"message {event.get('type')} delivered to node {dst} "
                    f"at t={t:.0f} while it is crashed — stale-incarnation "
                    f"delivery",
                )
        elif name == "probe.sent":
            job = event["job"]
            finished = self._finished.get(job)
            if finished is not None and t - finished[1] > self.settle:
                self._violate(
                    ("quiescence", job),
                    f"probe for job {job} sent at t={t:.0f}, "
                    f"{t - finished[1]:.0f}s after it finished — tracking "
                    f"state leaked",
                )

        # Orphans are swept lazily against the event-time watermark, so
        # the sweep costs nothing while no orphan exists.
        if self._orphans:
            self._sweep_orphans(self._now)

    def _sweep_orphans(self, now: float) -> None:
        for job, since in list(self._orphans.items()):
            if now - since > self.orphan_grace:
                del self._orphans[job]
                self._violate(
                    ("orphan", job),
                    f"job {job} orphaned at t={since:.0f} and still not "
                    f"adopted or resolved {now - since:.0f}s later — "
                    f"orphan adoption failed to converge",
                )
