"""Picklable per-run summaries — the hand-off point of the experiment API.

A :class:`RunSummary` carries everything the figures, sweeps, comparisons
and reports consume from one simulated run — metric scalars, the traffic
report, the sampled time series, and the validation verdict — as plain
data: no live agents, simulator, or per-job records.  That makes it

* **picklable**, so the parallel batch engine can ship results across
  process boundaries (:mod:`repro.experiments.engine`);
* **JSON round-trippable** (:meth:`RunSummary.to_dict` /
  :meth:`RunSummary.from_dict`), so the on-disk result cache and archived
  experiment outputs use the same representation.

``RunResult.summary()`` and ``BaselineRunResult.summary()`` produce one;
two runs are equivalent exactly when their ``to_dict()`` payloads are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["RunSummary"]

#: ``(time, value)`` sample points, matching :data:`repro.sim.TimeSeries`.
TimeSeries = List[Tuple[float, float]]


@dataclass
class RunSummary:
    """Plain-data summary of one simulated run.

    Scalar metrics mirror the aggregated views of
    :class:`~repro.metrics.collector.GridMetrics`; the traffic fields
    mirror :class:`~repro.net.traffic.TrafficReport`; the series are the
    run's sampled probes.  ``violations`` is the run's invariant verdict
    (:mod:`repro.metrics.oracle`) captured when the summary was built
    (empty = clean).
    """

    #: ``"scenario"`` | ``"baseline"`` — what kind of run produced this.
    kind: str
    #: Scenario name (including ``+churn`` / ``+crash`` decorations) or
    #: baseline name.
    name: str
    seed: int
    #: ``dataclasses.asdict`` of the :class:`ScenarioScale` used.
    scale: Dict[str, Any]
    completed_jobs: int
    unschedulable_jobs: int
    #: Jobs neither completed nor unschedulable at the horizon (lost to a
    #: crash or still in flight).
    incomplete_jobs: int
    duplicate_executions: int
    #: Total fail-safe resubmissions across all job records.
    resubmissions: int
    reschedules: int
    inform_broadcasts: int
    missed_deadlines: int
    average_completion_time: Optional[float]
    average_waiting_time: Optional[float]
    average_execution_time: Optional[float]
    average_lateness: Optional[float]
    average_missed_time: Optional[float]
    #: Jain's fairness index of per-node busy time (``None`` if no work).
    load_fairness: Optional[float]
    traffic_bytes: Dict[str, int]
    traffic_counts: Dict[str, int]
    bandwidth_bps: float
    completed_series: TimeSeries = field(default_factory=list)
    idle_series: TimeSeries = field(default_factory=list)
    node_count_series: TimeSeries = field(default_factory=list)
    submission_window: Tuple[float, float] = (0.0, 0.0)
    final_node_count: int = 0
    executed_events: int = 0
    #: The oracle's violation list captured at summary time.
    violations: List[str] = field(default_factory=list)
    #: Run-kind-specific scalars (e.g. ``revoked_copies`` for the
    #: multirequest baseline).
    extras: Dict[str, float] = field(default_factory=dict)
    #: Metrics-registry snapshot (``repro.obs.MetricsRegistry.snapshot``),
    #: populated only when the run was given a ``TraceConfig`` with
    #: ``telemetry=True``; empty otherwise (and omitted from
    #: :meth:`to_dict` so untraced summaries stay byte-identical).
    telemetry: Dict[str, float] = field(default_factory=dict)
    #: Merged fleet time series from the live telemetry collector
    #: (``{name: [(t, value), ...]}``), populated only by live runs that
    #: scraped their own ``/metrics`` pages; empty otherwise (and omitted
    #: from :meth:`to_dict` so simulated summaries stay byte-identical).
    fleet: Dict[str, TimeSeries] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_metrics(
        cls,
        *,
        kind: str,
        name: str,
        seed: int,
        scale: Dict[str, Any],
        metrics,
        traffic,
        completed_series: TimeSeries = (),
        idle_series: TimeSeries = (),
        node_count_series: TimeSeries = (),
        submission_window: Tuple[float, float] = (0.0, 0.0),
        final_node_count: int = 0,
        executed_events: int = 0,
        extras: Optional[Dict[str, float]] = None,
        telemetry: Optional[Dict[str, float]] = None,
        fleet: Optional[Dict[str, TimeSeries]] = None,
    ) -> "RunSummary":
        """Extract the scalar views from live ``metrics`` / ``traffic``.

        ``metrics`` is a :class:`~repro.metrics.collector.GridMetrics`;
        ``traffic`` a :class:`~repro.net.traffic.TrafficReport`.
        """
        records = metrics.records.values()
        return cls(
            kind=kind,
            name=name,
            seed=seed,
            scale=dict(scale),
            completed_jobs=metrics.completed_jobs,
            unschedulable_jobs=metrics.unschedulable_count(),
            incomplete_jobs=sum(
                1 for r in records if not r.completed and not r.unschedulable
            ),
            duplicate_executions=metrics.duplicate_executions,
            resubmissions=sum(r.resubmissions for r in records),
            reschedules=metrics.reschedules,
            inform_broadcasts=metrics.inform_broadcasts,
            missed_deadlines=metrics.missed_deadline_count(),
            average_completion_time=metrics.average_completion_time(),
            average_waiting_time=metrics.average_waiting_time(),
            average_execution_time=metrics.average_execution_time(),
            average_lateness=metrics.average_lateness(),
            average_missed_time=metrics.average_missed_time(),
            load_fairness=metrics.load_fairness(final_node_count),
            traffic_bytes=dict(traffic.bytes_by_type),
            traffic_counts=dict(traffic.count_by_type),
            bandwidth_bps=traffic.bandwidth_bps,
            completed_series=[tuple(p) for p in completed_series],
            idle_series=[tuple(p) for p in idle_series],
            node_count_series=[tuple(p) for p in node_count_series],
            submission_window=tuple(submission_window),
            final_node_count=final_node_count,
            executed_events=executed_events,
            violations=list(metrics.oracle.violations),
            extras=dict(extras or {}),
            telemetry=dict(telemetry or {}),
            fleet={
                name: [tuple(p) for p in series]
                for name, series in (fleet or {}).items()
            },
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (the cache's storage format).

        Bit-identical payloads ⇔ equivalent runs, which is what the
        parallel-vs-serial determinism guarantee is stated over.
        """
        import dataclasses

        payload = dataclasses.asdict(self)
        payload["completed_series"] = [list(p) for p in self.completed_series]
        payload["idle_series"] = [list(p) for p in self.idle_series]
        payload["node_count_series"] = [
            list(p) for p in self.node_count_series
        ]
        payload["submission_window"] = list(self.submission_window)
        if not self.telemetry:
            # Untraced runs never carry telemetry; omitting the empty dict
            # keeps their payloads byte-identical to earlier versions.
            del payload["telemetry"]
        if not self.fleet:
            # Same contract for the live-only fleet series.
            del payload["fleet"]
        else:
            payload["fleet"] = {
                name: [list(p) for p in series]
                for name, series in self.fleet.items()
            }
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunSummary":
        """Rebuild a summary from :meth:`to_dict`-style data."""
        data = dict(payload)
        for key in ("completed_series", "idle_series", "node_count_series"):
            data[key] = [tuple(point) for point in data.get(key, [])]
        data["submission_window"] = tuple(
            data.get("submission_window", (0.0, 0.0))
        )
        data.setdefault("telemetry", {})
        data["fleet"] = {
            name: [tuple(point) for point in series]
            for name, series in data.get("fleet", {}).items()
        }
        return cls(**data)

    def save(self, path) -> None:
        """Write the summary as JSON to ``path``."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path) -> "RunSummary":
        """Read a summary previously written by :meth:`save`."""
        import json
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text()))
