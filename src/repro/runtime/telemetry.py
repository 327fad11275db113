"""Fleet telemetry collector: scrape per-node ``/metrics``, merge, watch.

One live overlay exposes N Prometheus pages — one per node endpoint
(:data:`~repro.runtime.transport.METRICS_PATH`).  The
:class:`TelemetryCollector` is the in-repo scraper that turns them into
*fleet* time series: on an interval it GETs every directory entry's
``/metrics``, parses each page (:func:`~repro.obs.exposition.parse_prometheus`),
and merges the per-node samples into ``fleet.*``
:class:`~repro.obs.metrics.BoundedSeries` on the run registry — completed
jobs, aggregate queue depth, tracked jobs, idle nodes, deadline misses,
network loss and how many nodes answered at all.

The merge rules mirror what the samples mean:

* per-node gauges (``aria_node_queue_depth{node="..."}`` and friends)
  are **summed** across the nodes that answered — they are disjoint
  per-node state;
* run-level counters (``aria_jobs_completed``, ``aria_net_lost``,
  ``aria_jobs_missed_deadlines``) are **maxed within a registry group
  and summed across groups** — every node of a single-process overlay
  serves the same shared registry (one group, plain max), while a
  process-isolated fleet has one registry per worker process, so the
  collector takes the max within each worker's nodes and sums the
  worker maxima (``group_of`` maps a node id to its group key; the
  default ``None`` keeps the old single-group behaviour);
* a node whose scrape fails (connection refused, timeout, unparseable
  page) contributes an ``up=False`` :class:`NodeSample` and bumps the
  ``fleet.scrape_failures`` counter — a *crashed node is a data point*,
  never a collector crash.

The scraping is a thin async wrapper (:meth:`TelemetryCollector.scrape`
/ :meth:`run`) around a synchronous core (:meth:`observe`) so the merge
logic is unit-testable without sockets.  :func:`render_dashboard` turns
the collector's state into the ``repro top`` terminal view: sparkline
fleet curves plus a per-node liveness table.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs.exposition import parse_prometheus
from ..obs.metrics import MetricsRegistry
from ..types import NodeId
from .http import http_request
from .transport import METRICS_PATH

__all__ = ["NodeSample", "TelemetryCollector", "render_dashboard", "sparkline"]

#: ``aria_node_*`` gauges summed across answering nodes per round.
_SUMMED = {
    "queue_depth": "fleet.queue_depth",
    "tracked_jobs": "fleet.tracked_jobs",
    "idle": "fleet.idle_nodes",
}

#: Run-level samples maxed across answering nodes per round.
_MAXED = {
    "aria_jobs_completed": "fleet.completed_jobs",
    "aria_jobs_missed_deadlines": "fleet.missed_deadlines",
    "aria_net_lost": "fleet.net_lost",
}


class NodeSample:
    """One node's scrape result: parsed samples, or a recorded failure."""

    __slots__ = ("node_id", "up", "samples", "error")

    def __init__(
        self,
        node_id: NodeId,
        up: bool,
        samples: Optional[Dict[str, float]] = None,
        error: str = "",
    ) -> None:
        self.node_id = node_id
        self.up = up
        self.samples = samples if samples is not None else {}
        self.error = error

    def own(self, gauge: str) -> Optional[float]:
        """This node's ``aria_node_<gauge>{node="<id>"}`` sample."""
        return self.samples.get(
            f'aria_node_{gauge}{{node="{self.node_id}"}}'
        )


class TelemetryCollector:
    """Scrape a fleet's ``/metrics`` pages into merged time series.

    ``targets`` is a callable returning the current ``{node_id: (host,
    port)}`` directory (live transports grow and shrink mid-run, so the
    collector re-reads it every round).  ``now`` supplies the series
    timestamps in protocol seconds.  Merged series land on ``registry``
    under ``fleet.*`` keys, bounded like every other series.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        targets: Callable[[], Dict[NodeId, Tuple[str, int]]],
        now: Callable[[], float],
        timeout: float = 2.0,
        max_points: int = 2048,
        group_of: Optional[Callable[[NodeId], Any]] = None,
    ) -> None:
        self.registry = registry
        self._targets = targets
        self._now = now
        self._timeout = timeout
        #: Node → metrics-registry group.  Nodes sharing a registry (one
        #: worker process) must be maxed together, distinct registries
        #: summed — ``None`` treats the whole fleet as one registry.
        self._group_of = group_of
        self._series = {
            name: registry.series(name, max_points=max_points)
            for name in (
                "fleet.nodes_up",
                "fleet.completed_jobs",
                "fleet.queue_depth",
                "fleet.tracked_jobs",
                "fleet.idle_nodes",
                "fleet.missed_deadlines",
                "fleet.net_lost",
            )
        }
        self._scrape_failures = registry.counter("fleet.scrape_failures")
        #: The most recent round's samples, newest first in display order.
        self.last_samples: List[NodeSample] = []
        self.rounds = 0

    # ------------------------------------------------------------------
    # Synchronous merge core (unit-testable without sockets)
    # ------------------------------------------------------------------
    def observe(self, t: float, samples: List[NodeSample]) -> None:
        """Merge one round of per-node samples into the fleet series."""
        merged: Dict[str, float] = {name: 0.0 for name in self._series}
        # Run-level counters: max within each registry group, then sum
        # the group maxima (see the module docstring's merge rules).
        counter_groups: Dict[str, Dict[Any, float]] = {
            series: {} for series in _MAXED.values()
        }
        for sample in samples:
            if not sample.up:
                self._scrape_failures.inc()
                continue
            merged["fleet.nodes_up"] += 1.0
            for gauge, series in _SUMMED.items():
                value = sample.own(gauge)
                if value is not None:
                    merged[series] += value
            group = (
                self._group_of(sample.node_id)
                if self._group_of is not None
                else None
            )
            for key, series in _MAXED.items():
                value = sample.samples.get(key)
                if value is not None:
                    groups = counter_groups[series]
                    if value > groups.get(group, 0.0):
                        groups[group] = value
        for series, groups in counter_groups.items():
            merged[series] = sum(groups.values())
        for name, series in self._series.items():
            series.record(t, merged[name])
        self.last_samples = sorted(samples, key=lambda s: s.node_id)
        self.rounds += 1

    def series_points(self) -> Dict[str, List[Tuple[float, float]]]:
        """The merged fleet series as ``{name: [(t, value), ...]}``."""
        return {
            name: list(series.points)
            for name, series in self._series.items()
        }

    @property
    def scrape_failures(self) -> int:
        """Scrape attempts that produced no parseable page."""
        return self._scrape_failures.value

    # ------------------------------------------------------------------
    # Async scrape wrapper
    # ------------------------------------------------------------------
    async def _scrape_node(
        self, node_id: NodeId, host: str, port: int
    ) -> NodeSample:
        try:
            status, body = await http_request(
                host, port, "GET", METRICS_PATH, timeout=self._timeout
            )
            if status != 200:
                return NodeSample(node_id, False, error=f"HTTP {status}")
            return NodeSample(
                node_id, True, parse_prometheus(body.decode("utf-8"))
            )
        except (ConnectionError, OSError, ValueError, asyncio.TimeoutError) as exc:
            return NodeSample(
                node_id, False, error=f"{exc.__class__.__name__}: {exc}"
            )

    async def scrape(self) -> List[NodeSample]:
        """Scrape every current target once and merge the round."""
        targets = dict(self._targets())
        samples = await asyncio.gather(
            *(
                self._scrape_node(node_id, host, port)
                for node_id, (host, port) in targets.items()
            )
        )
        samples = list(samples)
        self.observe(self._now(), samples)
        return samples

    async def run(
        self,
        interval: float,
        on_round: Optional[Callable[["TelemetryCollector"], Any]] = None,
    ) -> None:
        """Scrape forever on ``interval`` wall seconds (cancel to stop)."""
        while True:
            await self.scrape()
            if on_round is not None:
                on_round(self)
            await asyncio.sleep(interval)


#: Eight-level bar glyphs for terminal sparklines.
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: List[float], width: int = 32) -> str:
    """Render ``values`` (downsampled to ``width``) as a unicode sparkline."""
    if not values:
        return ""
    if len(values) > width:
        # Uniform downsample: last value of each of `width` chunks.
        step = len(values) / width
        values = [
            values[min(len(values) - 1, int((i + 1) * step) - 1)]
            for i in range(width)
        ]
    low = min(values)
    span = max(values) - low
    if span <= 0:
        return _SPARK[0] * len(values)
    return "".join(
        _SPARK[int((value - low) / span * (len(_SPARK) - 1))]
        for value in values
    )


def render_dashboard(
    collector: TelemetryCollector,
    title: str = "ARiA fleet",
    width: int = 32,
) -> str:
    """The ``repro top`` view: fleet sparklines + per-node table."""
    points = collector.series_points()

    def latest(name: str) -> float:
        series = points.get(name) or []
        return series[-1][1] if series else 0.0

    now = points["fleet.nodes_up"][-1][0] if points["fleet.nodes_up"] else 0.0
    lines = [
        f"{title} — t={now:.1f}s protocol  round {collector.rounds}  "
        f"nodes up {latest('fleet.nodes_up'):.0f}/"
        f"{len(collector.last_samples)}  "
        f"scrape failures {collector.scrape_failures}",
        "",
    ]
    curves = (
        ("completed", "fleet.completed_jobs"),
        ("queue", "fleet.queue_depth"),
        ("tracked", "fleet.tracked_jobs"),
        ("idle", "fleet.idle_nodes"),
        ("missed", "fleet.missed_deadlines"),
        ("net lost", "fleet.net_lost"),
    )
    for label, name in curves:
        values = [value for _, value in points.get(name, [])]
        lines.append(
            f"  {label:<10} {sparkline(values, width):<{width}} "
            f"{latest(name):g}"
        )
    lines.append("")
    lines.append("  node   up  queue  tracked  idle  incarnation")
    for sample in collector.last_samples:
        if not sample.up:
            lines.append(
                f"  {sample.node_id:>4}  down  ({sample.error})"
            )
            continue

        def cell(gauge: str) -> str:
            value = sample.own(gauge)
            return f"{value:g}" if value is not None else "-"

        lines.append(
            f"  {sample.node_id:>4}    up  {cell('queue_depth'):>5}  "
            f"{cell('tracked_jobs'):>7}  {cell('idle'):>4}  "
            f"{cell('incarnation'):>11}"
        )
    return "\n".join(lines) + "\n"
