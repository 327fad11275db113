"""Hardening tests for the live transport's failure edges.

Discovery with dead or lying seeds, malformed inbound POSTs, the
``/healthz`` route, and the running-event-loop requirement — the places
a live overlay differs from the simulator precisely because real sockets
can misbehave.
"""

import asyncio
import json
import socket

import pytest

from repro.core.messages import Probe
from repro.errors import ConfigurationError
from repro.net.reliability import ReliabilityLayer
from repro.runtime import HEALTH_PATH, LiveTransport, WallClock
from repro.runtime.codec import encode_envelope
from repro.runtime.http import http_get_json, http_post_json, http_request
from repro.runtime.transport import MESSAGE_PATH


def free_port():
    """A port that was just free — connecting to it gets refused."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def live(test_body):
    """Run ``test_body(clock, transport)`` inside a fresh event loop."""

    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, seed=0)
        transport = LiveTransport(clock, loop=loop, send_timeout=2.0)
        try:
            await test_body(clock, transport)
        finally:
            clock.stop()
            await transport.drain()
            await transport.close()

    asyncio.run(main())


# ----------------------------------------------------------------------
# Discovery fault tolerance
# ----------------------------------------------------------------------
def test_discovery_skips_dead_seeds_and_reports_them():
    async def body(clock, transport):
        host, port = await transport.add_endpoint(1)
        dead = free_port()
        directory = await transport.discover(
            [(host, port), ("127.0.0.1", dead)]
        )
        assert directory == {1: (host, port)}
        assert len(transport.last_discovery_failures) == 1
        failed_host, failed_port, reason = (
            transport.last_discovery_failures[0]
        )
        assert (failed_host, failed_port) == ("127.0.0.1", dead)
        assert reason  # the exception is reported, not swallowed

    live(body)


def test_discovery_raises_when_every_seed_is_dead():
    async def body(clock, transport):
        with pytest.raises(ConfigurationError, match="all 2 seed"):
            await transport.discover(
                [("127.0.0.1", free_port()), ("127.0.0.1", free_port())]
            )

    live(body)


def test_discovery_rejects_duplicate_node_id_claims():
    # Two *different* live peers claiming one node id in a single round
    # is split-brain/impersonation, not restart — it must raise.
    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, seed=0)
        first = LiveTransport(clock, loop=loop)
        second = LiveTransport(clock, loop=loop)
        try:
            addr_a = await first.add_endpoint(7)
            addr_b = await second.add_endpoint(7)
            with pytest.raises(ConfigurationError, match="claimed by two"):
                await first.discover([addr_a, addr_b])
        finally:
            clock.stop()
            await first.close()
            await second.close()

    asyncio.run(main())


def test_rediscovery_after_restart_reclaims_the_node_id():
    # One node coming back on a new port re-claims its id across rounds:
    # that is a restart, and it must *update* the directory, not raise.
    async def body(clock, transport):
        host, port = await transport.add_endpoint(7)
        await transport.discover([(host, port)])
        await transport.remove_endpoint(7)
        new_host, new_port = await transport.add_endpoint(7)
        directory = await transport.discover([(new_host, new_port)])
        assert directory[7] == (new_host, new_port)

    live(body)


# ----------------------------------------------------------------------
# Inbox rejection: malformed datagrams answer 400, not 500
# ----------------------------------------------------------------------
def test_non_json_post_body_is_rejected_and_counted():
    async def body(clock, transport):
        host, port = await transport.add_endpoint(1)
        transport.register(1, lambda src, msg: None)
        status, payload = await http_request(
            host, port, "POST", MESSAGE_PATH, body=b"not json at all"
        )
        assert status == 400
        assert json.loads(payload) == {"ok": False}
        assert transport.rejected == 1
        assert transport.network_counters()["rejected"] == 1

    live(body)


def test_unknown_envelope_kind_is_rejected_and_counted():
    async def body(clock, transport):
        host, port = await transport.add_endpoint(1)
        transport.register(1, lambda src, msg: None)
        bogus = {"kind": "teleport", "src": 0, "dst": 1}
        status = await http_post_json(host, port, MESSAGE_PATH, bogus)
        assert status == 400
        assert transport.rejected == 1

    live(body)


def test_truncated_envelope_is_rejected_and_counted():
    async def body(clock, transport):
        host, port = await transport.add_endpoint(1)
        transport.register(1, lambda src, msg: None)
        # Valid JSON, but not an envelope: required fields are missing.
        status = await http_post_json(
            host, port, MESSAGE_PATH, {"kind": "send"}
        )
        assert status == 400
        assert transport.rejected == 1

    live(body)


def test_envelope_whose_kind_and_msg_id_disagree_is_rejected_and_counted():
    async def body(clock, transport):
        layer = ReliabilityLayer(transport)
        host, port = await transport.add_endpoint(1)
        delivered = []
        transport.register(1, lambda src, msg: delivered.append(msg))
        good = encode_envelope("send", 0, 1, Probe(job_id=1, initiator=0))
        for kind, msg_id in (("tagged", None), ("ack", None), ("send", 7)):
            bogus = dict(good, kind=kind)
            if msg_id is not None:
                bogus["msg_id"] = msg_id
            status = await http_post_json(host, port, MESSAGE_PATH, bogus)
            assert status == 400
        assert transport.rejected == 3
        # Nothing reached the delivery door: no handler call, no ack.
        assert delivered == [] and layer.acks_sent == 0
        assert await http_post_json(host, port, MESSAGE_PATH, good) == 200
        assert len(delivered) == 1

    live(body)


# ----------------------------------------------------------------------
# /healthz
# ----------------------------------------------------------------------
def test_healthz_serves_base_fields_without_a_provider():
    async def body(clock, transport):
        host, port = await transport.add_endpoint(3)
        health = await http_get_json(host, port, HEALTH_PATH)
        assert health["node_id"] == 3
        assert health["inbox_registered"] is False
        assert "time" in health

    live(body)


def test_healthz_merges_the_registered_provider():
    async def body(clock, transport):
        host, port = await transport.add_endpoint(3)
        transport.register(3, lambda src, msg: None)
        transport.set_health_provider(
            3, lambda: {"queue_depth": 4, "incarnation": 2}
        )
        health = await http_get_json(host, port, HEALTH_PATH)
        assert health["inbox_registered"] is True
        assert health["queue_depth"] == 4
        assert health["incarnation"] == 2

    live(body)


def test_health_provider_dies_with_its_endpoint():
    async def body(clock, transport):
        await transport.add_endpoint(3)
        transport.set_health_provider(3, lambda: {"queue_depth": 1})
        await transport.remove_endpoint(3)
        host, port = await transport.add_endpoint(3)
        health = await http_get_json(host, port, HEALTH_PATH)
        assert "queue_depth" not in health

    live(body)


# ----------------------------------------------------------------------
# Event-loop requirement (no get_event_loop fallback)
# ----------------------------------------------------------------------
def test_live_transport_requires_a_running_loop():
    loop = asyncio.new_event_loop()
    try:
        clock = loop.run_until_complete(_make_clock(loop))
        with pytest.raises(ConfigurationError, match="running event loop"):
            LiveTransport(clock)  # constructed outside any running loop
    finally:
        clock.stop()
        loop.close()


async def _make_clock(loop):
    """Build a WallClock inside ``loop`` so only the transport is naked."""
    return WallClock(loop, seed=0)


def test_wall_clock_requires_a_running_loop():
    with pytest.raises(ConfigurationError, match="running event loop"):
        WallClock()
