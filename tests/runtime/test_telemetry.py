"""TelemetryCollector merge rules, sparklines and the dashboard view."""

from repro.obs import MetricsRegistry
from repro.runtime import (
    NodeSample,
    TelemetryCollector,
    render_dashboard,
    sparkline,
)


def _collector(registry=None):
    return TelemetryCollector(
        registry if registry is not None else MetricsRegistry(),
        targets=lambda: {},
        now=lambda: 0.0,
    )


def _node(node_id, queue=0.0, tracked=0.0, idle=0.0, completed=0.0, lost=0.0):
    return NodeSample(
        node_id,
        True,
        {
            f'aria_node_queue_depth{{node="{node_id}"}}': queue,
            f'aria_node_tracked_jobs{{node="{node_id}"}}': tracked,
            f'aria_node_idle{{node="{node_id}"}}': idle,
            "aria_jobs_completed": completed,
            "aria_net_lost": lost,
        },
    )


def test_per_node_gauges_are_summed_and_counters_maxed():
    collector = _collector()
    collector.observe(
        1.0,
        [
            _node(0, queue=2, tracked=3, idle=0, completed=5, lost=1),
            _node(1, queue=1, tracked=4, idle=1, completed=7, lost=0),
        ],
    )
    points = collector.series_points()
    assert points["fleet.nodes_up"] == [(1.0, 2.0)]
    assert points["fleet.queue_depth"] == [(1.0, 3.0)]
    assert points["fleet.tracked_jobs"] == [(1.0, 7.0)]
    assert points["fleet.idle_nodes"] == [(1.0, 1.0)]
    # Run-level counters take the max across answering nodes, not the sum.
    assert points["fleet.completed_jobs"] == [(1.0, 7.0)]
    assert points["fleet.net_lost"] == [(1.0, 1.0)]


def test_a_failed_scrape_is_a_data_point_not_a_crash():
    collector = _collector()
    down = NodeSample(1, False, error="ConnectionError: refused")
    collector.observe(1.0, [_node(0, queue=2, completed=3), down])
    collector.observe(2.0, [_node(0, queue=1, completed=4), down])
    assert collector.scrape_failures == 2
    points = collector.series_points()
    # The series keep flowing with the answering nodes' data.
    assert points["fleet.nodes_up"] == [(1.0, 1.0), (2.0, 1.0)]
    assert points["fleet.completed_jobs"] == [(1.0, 3.0), (2.0, 4.0)]


def test_last_samples_sorted_by_node_for_stable_display():
    collector = _collector()
    collector.observe(1.0, [_node(2), NodeSample(0, False), _node(1)])
    assert [s.node_id for s in collector.last_samples] == [0, 1, 2]


def test_fleet_series_land_on_the_run_registry():
    registry = MetricsRegistry()
    collector = _collector(registry)
    collector.observe(1.0, [_node(0, queue=4)])
    assert "fleet.queue_depth" in registry
    assert registry.snapshot()["fleet.queue_depth.count"] == 1.0


def test_sparkline_scales_and_downsamples():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"  # flat series, no span
    line = sparkline([0.0, 1.0, 2.0, 3.0])
    assert len(line) == 4
    assert line[0] == "▁" and line[-1] == "█"
    assert len(sparkline([float(i) for i in range(100)], width=8)) == 8


def test_dashboard_renders_curves_and_the_down_node_row():
    collector = _collector()
    collector.observe(
        1.0,
        [
            _node(0, queue=2, tracked=1, idle=0, completed=3),
            NodeSample(1, False, error="TimeoutError: scrape"),
        ],
    )
    view = render_dashboard(collector, title="test fleet")
    assert "test fleet" in view
    assert "nodes up 1/2" in view
    assert "scrape failures 1" in view
    assert "completed" in view and "queue" in view
    assert "down  (TimeoutError: scrape)" in view
