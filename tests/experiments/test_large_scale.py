"""Smoke tests for the large-grid build path (> 2000 nodes).

Grids above ``_LARGE_GRID_NODES`` assemble differently: a chordal-ring
overlay instead of the O(nodes^2) BLATANT convergence, a bounded REQUEST
flood, slab-backed aggregate state behind the samplers, and
memory-bounded time series.  The fast tier exercises all of that with a
scaled-down job count on a just-above-threshold grid; the full 10k-node
``large`` preset run is opt-in via ``ARIA_RUN_LARGE=1`` (it takes
minutes; the benchmark's ``sim_large_smoke`` workload, see
``bench/README.md``, measures this path at 2 500 nodes).
"""

import os

import pytest

from repro.core import AriaConfig
from repro.experiments import ScenarioScale, build_grid, run
from repro.experiments.assembly import (
    _LARGE_GRID_NODES,
    _LARGE_GRID_REQUEST_HOPS,
)
from repro.experiments.catalog import get_scenario
from repro.sim.sampler import DEFAULT_MAX_SAMPLES


def _smoke_scale(jobs: int = 60) -> ScenarioScale:
    return ScenarioScale(
        nodes=_LARGE_GRID_NODES + 200, jobs=jobs, sample_interval=600.0
    )


def _scenario(name: str):
    return get_scenario(name)


def test_large_grid_build_adapts_config_and_overlay():
    setup = build_grid(_scenario("iMixed"), _smoke_scale(), seed=0)
    config = setup.agents[0].config
    # One dedup window size at every scale.
    assert config.seen_cache_capacity == AriaConfig().seen_cache_capacity
    assert config.request_flood.max_hops == _LARGE_GRID_REQUEST_HOPS
    # Chordal ring: every node present, average degree ~4 like BLATANT.
    assert len(setup.graph) == setup.scale.nodes
    assert 3.5 <= setup.graph.average_degree() <= 4.5
    # Slab state mirrors the full membership.
    assert setup.grid_state is not None
    assert setup.grid_state.live_count == setup.scale.nodes
    assert setup.grid_state.idle_live_count == setup.scale.nodes


def test_large_grid_overrides_still_win():
    setup = build_grid(
        _scenario("iMixed"),
        _smoke_scale(),
        seed=0,
        config_overrides={"seen_cache_capacity": 99},
    )
    assert setup.agents[0].config.seen_cache_capacity == 99


def test_large_grid_smoke_run_is_clean_and_bounded():
    result = run("iMixed", _smoke_scale(), seed=0)
    summary = result.summary()
    assert summary.violations == []
    assert result.metrics.completed_jobs > 0
    # Sampled series stay bounded no matter how long or fine the run.
    for series in (
        result.idle_series,
        result.completed_series,
        result.node_count_series,
    ):
        assert len(series) <= DEFAULT_MAX_SAMPLES
    # The completion-time series decimates instead of growing per event.
    completion = result.metrics.completion_series
    assert completion.count == result.metrics.completed_jobs
    assert len(completion.points) <= completion.max_points


@pytest.mark.skipif(
    not os.environ.get("ARIA_RUN_LARGE"),
    reason="full 10k-node run takes minutes; set ARIA_RUN_LARGE=1",
)
def test_large_preset_full_run():
    result = run("iMixed", ScenarioScale.large(), seed=0)
    summary = result.summary()
    assert summary.violations == []
    assert result.metrics.completed_jobs > 19_000
    assert len(result.idle_series) <= DEFAULT_MAX_SAMPLES
