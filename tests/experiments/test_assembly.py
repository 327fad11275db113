"""The sim, live and ``--procs`` drivers assemble the same grid.

Everything a driver does to turn ``(scenario, nodes, seed)`` into agents
goes through :mod:`repro.experiments.assembly`, so "they ran the same
grid" is checked here on pure functions and socket-free assemblies — no
driver is booted.
"""

import asyncio
import dataclasses

import pytest

from repro.experiments import ScenarioScale, build_grid, get_scenario
from repro.experiments.assembly import (
    assemble,
    build_overlay,
    derive_config,
    draw_node,
)
from repro.net import SimTransport
from repro.runtime import (
    LiveRunConfig,
    LiveTransport,
    ProcRunConfig,
    WallClock,
)
from repro.sim import Simulator
from repro.sim.rng import RandomStreams

TRIPLES = [("iMixed", 16, 0), ("Deadline", 24, 7)]


def _table(nodes):
    return {
        node.node_id: (
            node.profile,
            node.performance_index,
            node.scheduler.name,
        )
        for node in nodes
    }


def _worker_slice(scenario, scale, seed, own):
    """What one ``--procs`` worker assembles (on simulator seams)."""
    sim = Simulator(seed=seed)
    graph = build_overlay(scenario.overlay, scale.nodes, seed)
    return assemble(scenario, scale, sim, SimTransport(sim), graph, own=own)


@pytest.mark.parametrize("name, nodes, seed", TRIPLES)
def test_drivers_assemble_the_same_grid(name, nodes, seed):
    scenario = get_scenario(name)
    scale = dataclasses.replace(ScenarioScale.tiny(), nodes=nodes)
    reference = _table(build_grid(scenario, scale, seed).nodes)
    assert len(reference) == nodes
    node_ids = list(build_overlay(scenario.overlay, nodes, seed).nodes())

    # run_live's assembly, on its own clock and transport (no endpoints).
    loop = asyncio.new_event_loop()
    try:
        clock = WallClock(loop, seed=seed, time_scale=300.0)
        live = assemble(
            scenario,
            scale,
            clock,
            LiveTransport(clock, loop=loop),
            build_overlay(scenario.overlay, nodes, seed),
            LiveRunConfig(nodes=nodes, seed=seed).config_overrides(),
        )
        clock.stop()
    finally:
        loop.close()
    assert _table(live.nodes) == reference

    # Two --procs workers, each keeping its own slice of the fleet.
    slices = [set(node_ids[0::2]), set(node_ids[1::2])]
    union = {}
    for own in slices:
        worker = _worker_slice(scenario, scale, seed, own)
        assert {node.node_id for node in worker.nodes} == own
        union.update(_table(worker.nodes))
    assert union == reference

    # The --procs coordinator's view of the fleet it submits to.
    streams = RandomStreams(seed)
    assert {
        node_id: tuple(draw_node(streams, scenario.policies))
        for node_id in node_ids
    } == reference


def test_own_slice_draws_the_nodes_it_skips():
    scenario = get_scenario("iMixed")
    scale = ScenarioScale.tiny()
    full = _worker_slice(scenario, scale, 3, None)
    last = full.nodes[-1].node_id
    alone = _worker_slice(scenario, scale, 3, {last})
    # The last node's draw is only right if every skipped one was made.
    assert _table(alone.nodes) == {last: _table(full.nodes)[last]}
    # ... and a later join continues the streams where the fleet ended.
    joined = [setup.add_node(scale.nodes).node for setup in (full, alone)]
    assert _table(joined[:1]) == _table(joined[1:])


def test_derived_config_is_equal_across_drivers():
    scenario = get_scenario("iMixed")
    live = LiveRunConfig(nodes=16, failsafe=True)
    procs = ProcRunConfig(nodes=16)  # failsafe on by default
    assert live.config_overrides() == procs.config_overrides()
    sim = build_grid(
        scenario, ScenarioScale.tiny(), 0, live.config_overrides()
    )
    assert sim.agents[0].config == derive_config(
        scenario, 16, procs.config_overrides()
    )
    # The large-grid trims apply to every driver alike; overrides win.
    # The dedup window is not one of them: one size serves every scale.
    large = derive_config(scenario, 2_500, {"accept_wait": 60.0})
    small = sim.agents[0].config
    assert large.request_flood.max_hops < small.request_flood.max_hops
    assert large.seen_cache_capacity == small.seen_cache_capacity
    assert large.accept_wait == 60.0
