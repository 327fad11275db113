"""Integration: a full paper scenario on a live localhost overlay.

The expensive fixture boots 8 real HTTP node servers, discovers them via
their agent cards, runs the iMixed workload under wall-clock timers and
returns the standard :class:`~repro.experiments.runner.RunResult` — the
assertions then hold it to the same bar as a simulated run: every job
completes, the invariant checker is clean, and the summary pipeline
(validation, extras, serialization) works unchanged.
"""

import asyncio
import json

import pytest

from repro.runtime import LiveRunConfig, LiveTransport, WallClock, run_live
from repro.runtime.http import http_post_json
from repro.runtime.transport import AGENT_CARD_PATH, PROTOCOL_VERSION

CONFIG = LiveRunConfig(
    nodes=8,
    jobs=8,
    seed=3,
    time_scale=600.0,
    duration=6_000.0,
    ert_mean=600.0,
)


@pytest.fixture(scope="module")
def live_run():
    return run_live(CONFIG)


def test_live_overlay_completes_the_workload(live_run):
    metrics = live_run.metrics
    assert metrics.completed_jobs + metrics.unschedulable_count() == CONFIG.jobs
    assert metrics.completed_jobs >= 1


def test_live_overlay_violates_no_invariants(live_run):
    assert live_run.extra_violations == []
    assert live_run.summary().violations == []


def test_live_overlay_summary_is_populated(live_run):
    summary = live_run.summary()
    assert summary.kind == "scenario"
    assert summary.completed_jobs == live_run.metrics.completed_jobs
    assert summary.traffic_bytes["Request"] > 0
    assert summary.final_node_count == CONFIG.nodes
    # Round-trips like any simulated summary.
    assert json.dumps(summary.to_dict())


def test_live_overlay_exercises_the_protocol(live_run):
    types = set(live_run.traffic.count_by_type)
    assert {"Request", "Accept", "Assign", "Inform"} <= types
    # The reliability layer really ran: ASSIGNs were acked over HTTP.
    assert live_run.network["reliable_delivered"] >= 1
    assert live_run.network["reliable_acks"] >= 1
    assert live_run.network["dropped_stale"] == 0


def test_live_overlay_ran_on_wall_time(live_run):
    # Real timers fired; the run records them like simulator events.
    assert live_run.executed_events > 0


def test_config_rejects_impossible_wall_windows():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        LiveRunConfig(accept_wait=5.0, time_scale=10_000.0)
    with pytest.raises(ConfigurationError):
        LiveRunConfig(nodes=1)
    with pytest.raises(ConfigurationError):
        LiveRunConfig(duration=10.0, submission_start=60.0)


@pytest.mark.parametrize("procs", [False, True])
def test_config_rejects_expanding_scenarios(procs):
    # Nothing on the wire schedules the expansion's joins, so the run
    # would silently stay static; --chaos joins are the live way to grow.
    from repro.errors import ConfigurationError
    from repro.runtime import ProcRunConfig

    config = ProcRunConfig if procs else LiveRunConfig
    with pytest.raises(ConfigurationError, match="--chaos joins"):
        config(scenario_name="iExpanding")


def test_agent_cards_drive_discovery():
    """Discovery learns ids from the cards on the wire, not from state."""

    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, seed=0)
        transport = LiveTransport(clock, loop=loop)
        try:
            host, port = await transport.add_endpoint(7)
            card = transport.agent_card(7)
            assert card["protocol"] == PROTOCOL_VERSION
            assert card["node_id"] == 7
            assert card["url"] == f"http://{host}:{port}"
            assert card["endpoints"]["message"] == "/message"
            assert AGENT_CARD_PATH == "/.well-known/agent.json"
            # A card lists only routes the node serves: POST /submit is a
            # 404 until a submit handler is attached (--procs workers do,
            # serve / soak nodes never).
            assert "submit" not in card["endpoints"]
            assert await http_post_json(host, port, "/submit", {}) == 404
            transport.set_submit_handler(7, lambda job: None)
            assert transport.agent_card(7)["endpoints"]["submit"] == "/submit"

            directory = await transport.discover([(host, port)])
            assert directory == {7: (host, port)}
        finally:
            clock.stop()
            await transport.close()

    asyncio.run(main())
