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
from repro.errors import ConfigurationError, ProtocolError
from repro.net.reliability import Ack, ReliabilityLayer
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


# ----------------------------------------------------------------------
# Connections: kept alive per peer, and what crash / leave / restart do
# to them
# ----------------------------------------------------------------------
def request_bytes(method, path, body=b"", extra=""):
    return (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    ).encode("ascii") + body


async def read_response(reader):
    """``(status, headers, body)`` of one response on a raw socket (a
    server that never answers fails the test instead of hanging it)."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 5.0)
    head = head.decode("latin-1")
    lines = head.split("\r\n")
    headers = dict(
        (name.strip().lower(), value.strip())
        for name, _, value in (line.partition(":") for line in lines[1:] if line)
    )
    body = await reader.readexactly(int(headers["content-length"]))
    return int(lines[0].split(" ")[1]), headers, body


async def settle(transport, delivered, count):
    """Wait until ``count`` deliveries happened (or nothing is in flight)."""
    for _ in range(200):
        await transport.drain()
        if len(delivered) >= count:
            return
        await asyncio.sleep(0.01)


def idle_connections(transport, address):
    return len(transport._pool._idle.get(address, ()))


async def hang_up(writers):
    """Close a raw test peer's connections and wait for their sockets."""
    for writer in writers:
        writer.close()
    for writer in writers:
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def test_a_connection_accepted_while_closing_is_served_nothing():
    from functools import partial

    from repro.runtime.http import HttpServer, _Served

    async def main():
        server = HttpServer(lambda method, path, body: (200, "OK", b"{}"))
        await server.start()
        server._server.close()  # close() has begun: the listener is shut
        # A connection the listener had already taken in arrives now.
        accepted, peer = socket.socketpair()
        await asyncio.get_running_loop().connect_accepted_socket(
            partial(_Served, server), accepted
        )
        reader, writer = await asyncio.open_connection(sock=peer)
        try:
            # Hung up on before a byte was asked for or answered.
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
        finally:
            await hang_up([writer])
            await server.close()
        assert server._accepted == set()

    asyncio.run(main())


def test_one_connection_serves_many_requests_until_asked_to_close():
    async def body(clock, transport):
        host, port = await transport.add_endpoint(3)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for _ in range(2):
                writer.write(request_bytes("GET", HEALTH_PATH))
                status, headers, payload = await read_response(reader)
                assert status == 200 and json.loads(payload)["node_id"] == 3
                assert headers.get("connection") != "close"
            writer.write(
                request_bytes("GET", HEALTH_PATH, extra="Connection: close\r\n")
            )
            status, headers, _ = await read_response(reader)
            assert status == 200 and headers["connection"] == "close"
            assert await reader.read() == b""  # and the server hung up
        finally:
            writer.close()
            await writer.wait_closed()

    live(body)


@pytest.mark.parametrize(
    "head",
    [
        b"POST /message HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /message HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
        b"POST /message HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        b"POST /message HTTP/1.1\r\nX-Pad: " + b"x" * 20_000 + b"\r\n\r\n",
        b"nonsense\r\n\r\n",
        # "\xb2" is "²" in latin-1: isdigit() takes it, int() refuses it.
        b"POST /message HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n",
    ],
    ids=[
        "negative", "non-numeric", "oversized-body", "oversized-head", "no-start",
        "non-ascii-digit",
    ],
)
def test_bad_framing_is_answered_400_and_the_connection_closed(head):
    async def body(clock, transport):
        host, port = await transport.add_endpoint(1)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(head)
            status, headers, _ = await read_response(reader)
            assert status == 400 and headers["connection"] == "close"
            assert await reader.read() == b""
        finally:
            writer.close()
            await writer.wait_closed()

    live(body)


def test_a_rejected_envelope_keeps_its_connection():
    # A handler-level 400 is a bad datagram on a well-framed stream: the
    # next request on the same connection is served.
    async def body(clock, transport):
        host, port = await transport.add_endpoint(1)
        delivered = []
        transport.register(1, lambda src, msg: delivered.append(msg))
        good = json.dumps(
            encode_envelope("send", 0, 1, Probe(job_id=1, initiator=0))
        ).encode("utf-8")
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(request_bytes("POST", MESSAGE_PATH, b'{"kind":"teleport"}'))
            status, headers, _ = await read_response(reader)
            assert status == 400 and headers.get("connection") != "close"
            writer.write(request_bytes("POST", MESSAGE_PATH, good))
            status, _, _ = await read_response(reader)
            assert status == 200 and len(delivered) == 1
        finally:
            writer.close()
            await writer.wait_closed()
        assert transport.rejected == 1

    live(body)


@pytest.mark.parametrize(
    "head",
    [
        b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 99999999\r\n\r\n",
        b"HTTP/1.1 fine OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
        b"HTTP/1.1 200 OK\r\nContent-Length: \xb9\r\n\r\n",
        b"HTTP/1.1 \xb2 OK\r\nContent-Length: 0\r\n\r\n",
    ],
    ids=[
        "negative", "oversized", "status", "truncated",
        "non-ascii-length", "non-ascii-status",
    ],
)
def test_a_malformed_response_is_a_connection_error(head):
    # A peer's response is outside input too: same limits as a request.
    async def main():
        async def lying(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(head)
            writer.close()

        server = await asyncio.start_server(lying, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            with pytest.raises(ConnectionError):
                await http_request(host, port, "GET", "/")
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(main())


async def rude_peer():
    """A listener that hears a request out and hangs up without a word
    (a clean FIN: the client reads EOF, not a reset)."""

    async def hang_up(reader, writer):
        await reader.readuntil(b"\r\n\r\n")
        writer.close()

    server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[:2]


def test_a_peer_closing_mid_exchange_raises_a_connection_error():
    # asyncio streams report it as IncompleteReadError, an EOFError that
    # no caller's ``except (ConnectionError, OSError, TimeoutError)`` sees.
    async def main():
        server, (host, port) = await rude_peer()
        try:
            with pytest.raises(ConnectionError):
                await http_request(host, port, "GET", HEALTH_PATH)
            with pytest.raises(ConnectionError):
                await http_get_json(host, port, HEALTH_PATH, retries=0)
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(main())


def test_a_send_to_a_peer_that_hangs_up_is_lost_and_traced():
    from repro.obs import TraceConfig, Tracer

    async def body(clock, transport):
        failures = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: failures.append(context)
        )
        tracer = transport._trace = Tracer(
            TraceConfig(level="transport", sink="memory")
        )
        server, address = await rude_peer()
        transport._directory[9] = address
        try:
            before = asyncio.all_tasks()
            transport.send(1, 9, Probe(job_id=1, initiator=1))
            (task,) = asyncio.all_tasks() - before  # it opens the connection
            await transport.drain()
        finally:
            server.close()
            await server.wait_closed()
        assert task.exception() is None
        assert transport.lost == 1
        (lost,) = [e for e in tracer.events if e["ev"] == "msg.lost"]
        assert (lost["src"], lost["dst"], lost["reason"]) == (1, 9, "unreachable")
        assert failures == []

    live(body)


def test_a_crashed_endpoint_receives_nothing_over_a_kept_connection():
    async def body(clock, transport):
        await transport.add_endpoint(1)
        delivered = []
        transport.register(1, lambda src, msg: delivered.append(msg))
        await transport.discover()
        transport.send(0, 1, Probe(job_id=1, initiator=0))
        await settle(transport, delivered, 1)
        assert len(delivered) == 1
        assert idle_connections(transport, transport._directory[1]) == 1
        # Crash: the handler stays registered, only the server goes — a
        # server that kept its accepted sockets would still deliver.
        await transport.remove_endpoint(1)
        transport.send(0, 1, Probe(job_id=2, initiator=0))
        await settle(transport, delivered, 2)
        assert len(delivered) == 1
        assert transport.lost == 1

    live(body)


def test_a_departed_endpoint_leaves_no_pooled_connection():
    async def body(clock, transport):
        address = await transport.add_endpoint(1)
        delivered = []
        transport.register(1, lambda src, msg: delivered.append(msg))
        await transport.discover()
        transport.send(0, 1, Probe(job_id=1, initiator=0))
        await settle(transport, delivered, 1)
        assert idle_connections(transport, address) == 1
        await transport.remove_endpoint(1, forget=True)
        assert address not in transport._pool._idle
        transport.send(0, 1, Probe(job_id=2, initiator=0))
        await transport.drain()
        assert len(delivered) == 1 and transport.lost == 0
        assert transport.network_counters()["dropped_detached"] == 1

    live(body)


def test_restart_on_a_new_port_is_reached_after_rediscovery():
    async def body(clock, transport):
        old = await transport.add_endpoint(1)
        delivered = []
        transport.register(1, lambda src, msg: delivered.append(msg))
        await transport.discover()
        transport.send(0, 1, Probe(job_id=1, initiator=0))
        await settle(transport, delivered, 1)
        await transport.remove_endpoint(1)
        new = await transport.add_endpoint(1)
        assert new != old
        assert idle_connections(transport, old) == 1  # dead, not yet known
        await transport.discover([new])
        assert old not in transport._pool._idle
        transport.send(0, 1, Probe(job_id=2, initiator=0))
        await settle(transport, delivered, 2)
        assert len(delivered) == 2 and transport.lost == 0
        assert idle_connections(transport, new) == 1

    live(body)


def test_restart_on_the_same_port_is_reached_without_rediscovery():
    async def body(clock, transport):
        address = await transport.add_endpoint(1, port=free_port())
        delivered = []
        transport.register(1, lambda src, msg: delivered.append(msg))
        await transport.discover()
        transport.send(0, 1, Probe(job_id=1, initiator=0))
        await settle(transport, delivered, 1)
        await transport.remove_endpoint(1)
        assert await transport.add_endpoint(1, port=address[1]) == address
        # The pooled connection died with the old server; the send
        # notices and goes out, once, on a new one.
        transport.send(0, 1, Probe(job_id=2, initiator=0))
        await settle(transport, delivered, 2)
        assert len(delivered) == 2 and transport.lost == 0
        assert transport.network_counters()["connections_opened"] == 2

    live(body)


def test_a_reused_connection_that_fails_unanswered_is_retried_exactly_once():
    # The peer closes a kept connection on its second request without a
    # response byte, before the client could see the hang-up coming.
    from repro.runtime.http import ConnectionPool

    async def main():
        seen = []

        async def serve(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            seen.append("answered")
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            await reader.readuntil(b"\r\n\r\n")
            seen.append("hung up")
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        opened = []
        pool = ConnectionPool(on_open=lambda: opened.append(1))
        try:
            assert await pool.request(host, port, "GET", "/") == (200, b"ok")
            assert await pool.request(host, port, "GET", "/") == (200, b"ok")
            assert seen == ["answered", "hung up", "answered"]
            assert len(opened) == 2
            # Once, not until it works: a *new* connection's failure is final.
            server.close()
            await server.wait_closed()
            with pytest.raises(OSError):
                await pool.request(host, port, "GET", "/")
            assert seen == ["answered", "hung up", "answered", "hung up"]
        finally:
            await pool.close()
            server.close()

    asyncio.run(main())


def test_a_reused_connection_answered_malformed_is_not_retried():
    # The peer did speak: the request reached it, so sending it again
    # could deliver it twice.
    from repro.runtime.http import ConnectionPool

    async def main():
        seen = []

        async def serve(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            seen.append("answered")
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
            await reader.readuntil(b"\r\n\r\n")
            seen.append("cut short")
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort")
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        opened = []
        pool = ConnectionPool(on_open=lambda: opened.append(1))
        try:
            assert await pool.request(host, port, "GET", "/") == (200, b"ok")
            with pytest.raises(ConnectionError):
                await pool.request(host, port, "GET", "/")
            assert seen == ["answered", "cut short"] and len(opened) == 1
        finally:
            await pool.close()
            server.close()
            await server.wait_closed()

    asyncio.run(main())


def test_a_burst_to_one_peer_is_delivered_and_leaves_at_most_the_cap_idle():
    from repro.runtime.http import _MAX_IDLE_PER_PEER

    async def body(clock, transport):
        address = await transport.add_endpoint(1)
        delivered = []
        transport.register(1, lambda src, msg: delivered.append(msg.job_id))
        await transport.discover()
        for job_id in range(64):
            transport.send(0, 1, Probe(job_id=job_id, initiator=0))
        await settle(transport, delivered, 64)
        assert sorted(delivered) == list(range(64)) and transport.lost == 0
        assert 1 <= idle_connections(transport, address) <= _MAX_IDLE_PER_PEER
        opened = transport.network_counters()["connections_opened"]
        assert opened == transport.registry.snapshot()["net.connections_opened"]
        # The next burst reuses what the first left behind.
        for job_id in range(64, 64 + _MAX_IDLE_PER_PEER):
            transport.send(0, 1, Probe(job_id=job_id, initiator=0))
        await settle(transport, delivered, 64 + _MAX_IDLE_PER_PEER)
        assert transport.network_counters()["connections_opened"] == opened

    live(body)


def test_both_ends_of_a_connection_read_in_bounded_chunks():
    from repro.runtime.http import _READ_SIZE

    async def body(clock, transport):
        address = await transport.add_endpoint(1)
        delivered = []
        transport.register(1, lambda src, msg: delivered.append(msg))
        await transport.discover()
        transport.send(0, 1, Probe(job_id=1, initiator=0))
        await settle(transport, delivered, 1)
        (pooled,) = transport._pool._idle[address]
        (accepted,) = transport._servers[1]._accepted
        # Not asyncio's 256 KiB: see _READ_SIZE for what that costs.
        assert pooled.transport.max_size == accepted.transport.max_size == _READ_SIZE

    live(body)


def test_a_server_stops_reading_while_its_responses_back_up():
    # The transport calls pause_writing() above its write buffer's
    # high-water mark: the connection hears no more requests until
    # resume_writing(), the back-pressure a stream's drain() applied.
    async def body(clock, transport):
        host, port = await transport.add_endpoint(1)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(request_bytes("GET", HEALTH_PATH))
            await read_response(reader)
            (accepted,) = transport._servers[1]._accepted
            accepted.pause_writing()
            assert not accepted.transport.is_reading()
            accepted.resume_writing()
            assert accepted.transport.is_reading()
        finally:
            await hang_up([writer])

    live(body)


def test_close_leaves_no_connection_behind():
    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, seed=0)
        transport = LiveTransport(clock, loop=loop, send_timeout=2.0)
        delivered = []
        for node_id in (1, 2):
            await transport.add_endpoint(node_id)
            transport.register(node_id, lambda src, msg: delivered.append(msg))
        await transport.discover()
        transport.send(1, 2, Probe(job_id=1, initiator=1))
        transport.send(2, 1, Probe(job_id=2, initiator=2))
        await settle(transport, delivered, 2)
        servers = list(transport._servers.values())
        assert sum(len(server._accepted) for server in servers) == 2
        clock.stop()
        await transport.close()
        assert transport._pool._idle == {}
        assert all(server._accepted == set() for server in servers)

    asyncio.run(main())


# ----------------------------------------------------------------------
# Framing in callbacks, and exchanges settled by them
# ----------------------------------------------------------------------
def response_bytes(body, extra=""):
    return (
        f"HTTP/1.1 200 OK\r\nContent-Length: {len(body)}\r\n{extra}\r\n"
    ).encode("ascii") + body


async def dribble(writer, data):
    """Write ``data`` one byte at a time, each in a segment of its own."""
    for index in range(len(data)):
        writer.write(data[index:index + 1])
        await writer.drain()
        await asyncio.sleep(0.001)


def test_a_request_written_byte_by_byte_is_framed():
    async def body(clock, transport):
        host, port = await transport.add_endpoint(1)
        delivered = []
        transport.register(1, lambda src, msg: delivered.append(msg.job_id))
        envelope = json.dumps(
            encode_envelope("send", 0, 1, Probe(job_id=7, initiator=0))
        ).encode("utf-8")
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await dribble(writer, request_bytes("POST", MESSAGE_PATH, envelope))
            status, _, payload = await read_response(reader)
        finally:
            writer.close()
            await writer.wait_closed()
        assert (status, payload, delivered) == (200, b'{"ok":true}', [7])

    live(body)


def test_a_response_written_byte_by_byte_is_framed():
    async def main():
        connections = []

        async def slow(reader, writer):
            connections.append(writer)
            await reader.readuntil(b"\r\n\r\n")
            await dribble(writer, response_bytes(b'{"n":1}'))

        server = await asyncio.start_server(slow, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        try:
            assert await http_get_json(host, port, "/") == {"n": 1}
        finally:
            server.close()
            await hang_up(connections)
            await server.wait_closed()

    asyncio.run(main())


def test_pipelined_requests_are_answered_in_order_on_one_connection():
    from repro.runtime.transport import AGENT_CARD_PATH

    async def body(clock, transport):
        host, port = await transport.add_endpoint(3)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                request_bytes("GET", HEALTH_PATH)
                + request_bytes("GET", AGENT_CARD_PATH)
            )
            _, _, health = await read_response(reader)
            _, _, card = await read_response(reader)
        finally:
            writer.close()
            await writer.wait_closed()
        assert "inbox_registered" in json.loads(health)
        assert json.loads(card)["protocol"] == "aria/1"
        assert len(transport._servers[3]._accepted) == 1

    live(body)


@pytest.mark.parametrize("excess", [0, 1], ids=["at-the-limit", "one-over"])
def test_a_head_is_accepted_up_to_the_limit(excess):
    from repro.runtime.http import _MAX_HEADER_BYTES

    async def body(clock, transport):
        host, port = await transport.add_endpoint(3)
        bare = request_bytes("GET", HEALTH_PATH, extra="X-Pad: \r\n")
        pad = _MAX_HEADER_BYTES - len(bare) + excess
        head = request_bytes("GET", HEALTH_PATH, extra=f"X-Pad: {'x' * pad}\r\n")
        assert len(head) == _MAX_HEADER_BYTES + excess
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(head)
            status, headers, _ = await read_response(reader)
            if excess:
                assert status == 400 and headers["connection"] == "close"
                assert await reader.read() == b""
            else:
                assert status == 200 and headers.get("connection") != "close"
        finally:
            writer.close()
            await writer.wait_closed()

    live(body)


def test_a_body_at_the_limit_is_accepted():
    from repro.runtime.http import _MAX_BODY_BYTES, HttpServer

    async def main():
        server = HttpServer(lambda method, path, body: (200, "OK", b"%d" % len(body)))
        await server.start()
        try:
            answer = await http_request(
                server.host, server.port, "POST", "/", body=b"x" * _MAX_BODY_BYTES
            )
        finally:
            await server.close()
        assert answer == (200, b"%d" % _MAX_BODY_BYTES)

    asyncio.run(main())


@pytest.mark.parametrize("pause", [0.0, 0.05], ids=["behind-it", "while-idle"])
def test_bytes_after_a_response_retire_its_connection(pause):
    # A peer answers the first request twice, in the same write or after
    # a pause: the stray answer must never be read as the next one's.
    from repro.runtime.http import ConnectionPool

    async def main():
        connections = []

        async def twice(reader, writer):
            connections.append(writer)
            try:
                while True:
                    await reader.readuntil(b"\r\n\r\n")
                    if len(connections) > 1:
                        writer.write(response_bytes(b"fresh"))
                        continue
                    writer.write(response_bytes(b"first"))
                    await asyncio.sleep(pause)
                    writer.write(response_bytes(b"stale"))
            except (asyncio.IncompleteReadError, ConnectionError):
                writer.close()

        server = await asyncio.start_server(twice, "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        opened = []
        pool = ConnectionPool(on_open=lambda: opened.append(1))
        try:
            assert await pool.request(host, port, "GET", "/") == (200, b"first")
            await asyncio.sleep(2 * pause)
            assert await pool.request(host, port, "GET", "/") == (200, b"fresh")
            assert len(opened) == 2
        finally:
            await pool.close()
            server.close()
            await hang_up(connections)
            await server.wait_closed()

    asyncio.run(main())


def test_a_timed_out_exchange_is_lost_once_and_its_late_answer_unread():
    async def main():
        connections = []

        async def slow_second(reader, writer):
            # Answers at once, except the second request on a connection,
            # which it answers after 0.3 s with that request's path.
            connections.append(writer)
            try:
                for count in range(1_000):
                    head = await reader.readuntil(b"\r\n\r\n")
                    await reader.readexactly(
                        int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                    )
                    if count == 1:
                        await asyncio.sleep(0.3)
                    writer.write(response_bytes(head.split(b" ")[1]))
            except (asyncio.IncompleteReadError, ConnectionError):
                writer.close()

        loop = asyncio.get_running_loop()
        clock = WallClock(loop, seed=0)
        transport = LiveTransport(clock, loop=loop, send_timeout=0.1)
        server = await asyncio.start_server(slow_second, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()[:2]
        transport._directory[9] = address
        try:
            transport.send(1, 9, Probe(job_id=1, initiator=1))
            await transport.drain()
            assert idle_connections(transport, address) == 1
            transport.send(1, 9, Probe(job_id=2, initiator=1))  # reuses it
            await transport.drain()
            assert transport.lost == 1
            assert idle_connections(transport, address) == 0
            await asyncio.sleep(0.4)  # its answer has been written by now
            answer = await transport._pool.request(*address, "GET", "/fresh")
            assert answer == (200, b"/fresh")
            assert transport.lost == 1
            assert transport.network_counters()["connections_opened"] == 2
        finally:
            clock.stop()
            await transport.drain()
            await transport.close()
            server.close()
            await hang_up(connections)
            await server.wait_closed()

    asyncio.run(main())


def test_sends_over_a_warm_pool_take_no_task_and_one_exchange_each():
    async def body(clock, transport):
        for node_id in (1, 2):
            await transport.add_endpoint(node_id)
        delivered = []
        transport.register(2, lambda src, msg: delivered.append(msg.job_id))
        await transport.discover()
        transport.send(1, 2, Probe(job_id=0, initiator=1))  # opens one
        await settle(transport, delivered, 1)
        opened = transport.network_counters()["connections_opened"]
        seen = count_exchanges(transport, 2)
        tasks = asyncio.all_tasks()
        for job_id in range(1, 21):
            transport.send(1, 2, Probe(job_id=job_id, initiator=1))
            assert asyncio.all_tasks() == tasks  # written inside send
            await settle(transport, delivered, job_id + 1)
        assert delivered == list(range(21))
        assert seen == [("POST", MESSAGE_PATH)] * 20
        assert transport.network_counters()["connections_opened"] == opened

    live(body)


def test_drain_waits_for_exchanges_settled_by_callbacks():
    from repro.net import ConstantLatency

    async def body(clock, transport):
        layer = ReliabilityLayer(transport)
        for node_id in (1, 2):
            await transport.add_endpoint(node_id)
            transport.register(node_id, lambda src, msg: None)
        await transport.discover()
        # A delayed copy, its exchange, then its ack's own delay: one
        # drain() covers all three.
        transport.latency = ConstantLatency(0.05)
        layer.send(1, 2, Probe(job_id=1, initiator=1))
        assert transport._in_flight == 1 and layer._pending
        await transport.drain()
        assert transport._in_flight == 0
        assert layer.delivered == 1 and not layer._pending
        assert idle_connections(transport, transport._directory[2]) == 1

    live(body)


# ----------------------------------------------------------------------
# The ack rides the response of the exchange that delivered its message
# ----------------------------------------------------------------------
def count_exchanges(transport, node_id):
    """Wrap ``node_id``'s server handler; returns the list of requests
    it answers from now on."""
    server = transport._servers[node_id]
    inner = server._handler
    seen = []

    def counting(method, path, body):
        seen.append((method, path))
        return inner(method, path, body)

    server._handler = counting
    return seen


async def settle_reliable(transport, layer):
    for _ in range(200):
        await transport.drain()
        if not layer._pending:
            return
        await asyncio.sleep(0.01)


def test_n_reliable_sends_are_n_exchanges_and_no_ack_post():
    async def body(clock, transport):
        layer = ReliabilityLayer(transport)
        delivered = []
        for node_id in (1, 2):
            await transport.add_endpoint(node_id)
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: delivered.append(msg.job_id))
        await transport.discover()
        at_receiver = count_exchanges(transport, 2)
        at_sender = count_exchanges(transport, 1)
        for job_id in range(12):
            layer.send(1, 2, Probe(job_id=job_id, initiator=1))
        await settle_reliable(transport, layer)
        assert sorted(delivered) == list(range(12))
        assert layer.delivered == 12 and layer.retransmissions == 0
        assert at_receiver == [("POST", MESSAGE_PATH)] * 12
        assert at_sender == []  # nothing comes back but the responses
        # The ack is still a counted 64-byte message; only its carrier moved.
        assert transport.monitor.count_by_type == {"Probe": 12, "Ack": 12}

    live(body)


def test_a_posted_ack_envelope_is_rejected_and_counted():
    async def body(clock, transport):
        layer = ReliabilityLayer(transport)
        host, port = await transport.add_endpoint(1)
        transport.register(1, lambda src, msg: None)
        ack = encode_envelope("tagged", 2, 1, Probe(job_id=5, initiator=2), msg_id=5)
        ack["kind"] = "ack"
        assert await http_post_json(host, port, MESSAGE_PATH, ack) == 400
        assert transport.rejected == 1
        assert layer.delivered == 0 and layer.acks_sent == 0

    live(body)


def test_send_ack_outside_an_exchange_raises():
    async def body(clock, transport):
        with pytest.raises(ProtocolError, match="outside its exchange"):
            transport.send_ack(2, 1, Ack(msg_id=3), 3)
        assert transport.monitor.count_by_type == {}  # raised before accounting

    live(body)


@pytest.mark.parametrize(
    "reply",
    [
        b"not json",
        b'{"ok":false}',
        b'[["7",null,0.0,null]]',
        b'[[0,"0",0.0,null]]',
        b'[[0,null,-1.0,null]]',
        b'[[0,null,0.0,"t1"]]',
    ],
    ids=["non-json", "object", "msg_id", "stamp", "delay", "trace"],
)
def test_a_malformed_ack_reply_settles_nothing_and_is_retransmitted(reply):
    from repro.net.reliability import ReliabilityConfig

    async def main(clock, transport):
        layer = ReliabilityLayer(
            transport,
            ReliabilityConfig(
                ack_timeout=0.05, max_timeout=0.05, max_retries=1, jitter=0.0
            ),
        )
        answered = []

        async def lying(reader, writer):
            # A peer that takes every message and answers with ``reply``.
            try:
                while True:
                    await reader.readuntil(b"\r\n\r\n")
                    await reader.readexactly(len(encoded))
                    answered.append(1)
                    writer.write(
                        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n"
                        % len(reply)
                        + reply
                    )
            except (asyncio.IncompleteReadError, ConnectionError):
                writer.close()  # the client closed its pooled connection

        message = Probe(job_id=0, initiator=1)
        encoded = json.dumps(
            encode_envelope("tagged", 1, 9, message, msg_id=0),
            separators=(",", ":"),
        ).encode("utf-8")
        server = await asyncio.start_server(lying, "127.0.0.1", 0)
        transport._directory[9] = server.sockets[0].getsockname()[:2]
        try:
            layer.send(1, 9, message)
            for _ in range(100):
                await transport.drain()
                if layer.gave_up:
                    break
                await asyncio.sleep(0.01)
        finally:
            server.close()
            await transport.close()
            await server.wait_closed()
        assert len(answered) == 2  # the message and its one retransmission
        assert transport.rejected == 2  # once per malformed body
        assert layer.retransmissions == 1 and layer.gave_up == 1
        assert layer.delivered == 0

    live(main)


def test_a_traced_ack_pairs_its_send_and_recv():
    from repro.obs import TraceConfig, Tracer

    async def body(clock, transport):
        tracer = transport._trace = Tracer(
            TraceConfig(level="transport", sink="memory")
        )
        layer = ReliabilityLayer(transport)
        for node_id in (1, 2):
            await transport.add_endpoint(node_id)
            transport.register(node_id, lambda src, msg: None)
        await transport.discover()
        layer.send(1, 2, Probe(job_id=4, initiator=1))
        await settle_reliable(transport, layer)
        assert layer.delivered == 1

        def one(event, kind):
            (found,) = [
                e for e in tracer.events
                if e["ev"] == event and e["type"] == kind
            ]
            return found

        probe, ack_sent, ack_recv = (
            one("net.send", "Probe"), one("net.send", "Ack"), one("net.recv", "Ack")
        )
        assert (ack_sent["src"], ack_sent["dst"]) == (2, 1)
        assert (ack_recv["src"], ack_recv["dst"]) == (2, 1)
        assert (ack_recv["trace"], ack_recv["hop"]) == (
            ack_sent["trace"], ack_sent["hop"]
        )
        # The ack continues the message's causal chain, one hop on.
        assert (ack_sent["trace"], ack_sent["hop"]) == (
            probe["trace"], probe["hop"] + 1
        )

    live(body)
