"""Live HTTP+JSON implementation of the :class:`~repro.net.Transport` API.

Each registered node gets its own asyncio HTTP server (an *endpoint*)
that serves three routes:

* ``GET /.well-known/agent.json`` — the node's **agent card**: identity,
  protocol version and inbox route.  Discovery is card-driven: the
  transport learns which node id lives at which address only by fetching
  cards over HTTP, never by peeking at in-process state, so the
  directory is built the way real peers would build it.
* ``POST /message`` — the node's inbox.  The body is one envelope
  (:mod:`repro.runtime.codec`) carrying a protocol message plus its
  delivery kind, reliability tag and incarnation stamp; the server
  decodes it and hands it to the same :meth:`~repro.net.Transport._deliver`
  the simulated transport schedules, so drop, staleness and dedup
  semantics are shared code; a ``tagged`` envelope's ack is the response
  (:meth:`LiveTransport.send_ack`).
  A body that fails to parse or decode — non-JSON, a truncated envelope,
  an unknown ``kind``, a ``kind`` that disagrees with ``msg_id`` — is
  answered with HTTP 400 and counted in the ``rejected`` counter instead
  of poisoning the connection.
* ``GET /healthz`` — a liveness snapshot for operators and the soak
  harness: node id, protocol time, whether an inbox handler is attached,
  plus whatever the node's registered health provider reports (queue
  depth, incarnation, last-probe age — see
  :meth:`~repro.core.protocol.AriaAgent.health_snapshot`).

Send-side, every non-local message funnels through the shared
:meth:`~repro.net.Transport._account` choke point (traffic accounting +
loss draw); if a :class:`~repro.net.faults.FaultInjector` is attached it
is consulted next — exactly where :class:`~repro.net.SimTransport`
consults it — so loss bursts, duplication and partitions shape the real
wire with the same model and the same RNG stream as the simulator.  Each
surviving copy is then POSTed without a task of its own: when an
injected latency model is configured (``transport.latency``, protocol
seconds) a timer fires after the scaled wall delay first, which is how
``FaultPlan`` delay spikes reach real sockets.  The sending handler never
blocks on the network, mirroring the simulator's fire-and-forget sends.

The POST travels over a kept-alive connection from the transport's
:class:`~repro.runtime.http.ConnectionPool`: written inside ``send`` on
an idle one to the destination (only opening one, counted in
``net.connections_opened``, takes a task) and settled from its
``data_received`` callback, so concurrent sends to one peer each have a
socket to themselves and the overlay's repeated traffic between the same
neighbours pays for a TCP handshake once, not per message.  A
destination that cannot be reached, or does not answer, before
``send_timeout`` (connecting included) counts as ``lost``, exactly like
a datagram into a dead link — which is also how a live *crashed* node
manifests: its endpoint is torn down (:meth:`remove_endpoint`), which
closes the connections it had accepted, while its directory entry goes
stale, so traffic in flight dies with its connection and later sends on
connection refused.  A pooled connection that its peer closed while it
idled is noticed when next used and replaced, once, by a new one — so a
node restarted on the same port is reached by the very next send — and
pooled connections to an address that left the directory (a graceful
leave, a restart discovered on another port) are closed then and there.
Delivery to a node whose *handler* is unregistered (departed) still
reaches its server and is dropped there with the usual
``dropped_detached`` / ``dropped_unknown`` accounting.

Retries and acks for control-plane messages come from the standard
:class:`~repro.net.ReliabilityLayer` attached on top — its timers run in
protocol seconds on the :class:`~repro.runtime.WallClock`, giving real
timeouts and exponential backoff over the real network.
"""

from __future__ import annotations

import asyncio
import errno
import json
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..clock import Clock
from ..errors import ConfigurationError, ProtocolError, ReproError
from ..net.latency import LatencyModel
from ..net.message import Message
from ..net.reliability import Ack
from ..net.transport import Transport
from ..obs.exposition import CONTENT_TYPE, render_prometheus
from ..obs.metrics import MetricsRegistry
from ..net.traffic import TrafficMonitor
from ..types import NodeId
from .codec import _decode_acks, decode_envelope, decode_job, encode_envelope
from .http import ConnectionPool, HttpServer, Outcome, http_get_json

__all__ = [
    "LiveTransport",
    "AGENT_CARD_PATH",
    "MESSAGE_PATH",
    "HEALTH_PATH",
    "METRICS_PATH",
    "SUBMIT_PATH",
]

AGENT_CARD_PATH = "/.well-known/agent.json"
MESSAGE_PATH = "/message"
HEALTH_PATH = "/healthz"
METRICS_PATH = "/metrics"
SUBMIT_PATH = "/submit"

#: Wall seconds between the two binding attempts on a pinned port that
#: answered ``EADDRINUSE`` — long enough for a dying previous owner to
#: release the socket, short enough not to stall a supervisor restart.
_REBIND_DELAY = 0.2

#: Agent-card protocol tag; bump on wire-format changes.
PROTOCOL_VERSION = "aria/1"

#: The ``POST /message`` response that carries no ack.
_OK = b'{"ok":true}'


class LiveTransport(Transport):
    """HTTP+JSON transport between per-node asyncio servers."""

    __slots__ = (
        "_loop",
        "_send_timeout",
        "_servers",
        "_directory",
        "_in_flight",
        "_quiet",
        "_latency",
        "_latency_rng",
        "_time_scale",
        "_rejected",
        "_connections_opened",
        "_pool",
        "_health",
        "_submit",
        "_metrics_provider",
        "_reply",
        "last_discovery_failures",
    )

    def __init__(
        self,
        clock: Clock,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        monitor: Optional[TrafficMonitor] = None,
        loss_probability: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        send_timeout: float = 5.0,
    ) -> None:
        super().__init__(
            clock,
            monitor=monitor,
            loss_probability=loss_probability,
            registry=registry,
        )
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                raise ConfigurationError(
                    "LiveTransport must be constructed inside a running "
                    "event loop (or be handed one explicitly)"
                ) from None
        self._loop = loop
        #: Wall-clock seconds before an unanswered POST counts as lost.
        self._send_timeout = send_timeout
        self._servers: Dict[NodeId, HttpServer] = {}
        #: Discovered node id -> (host, port), populated from agent cards.
        self._directory: Dict[NodeId, Tuple[str, int]] = {}
        #: Copies and ack entries not yet settled (``_quiet``: see drain).
        self._in_flight = 0
        self._quiet: Optional[asyncio.Future] = None
        #: Optional injected-delay model in *protocol* seconds (``None``
        #: means only what localhost TCP provides).
        self._latency: Optional[LatencyModel] = None
        self._latency_rng = clock.streams.get("net.latency")
        #: Protocol seconds per wall second, for scaling injected delays.
        self._time_scale = float(getattr(clock, "time_scale", 1.0))
        self._rejected = self.registry.counter("net.rejected")
        self._connections_opened = self.registry.counter(
            "net.connections_opened"
        )
        #: Kept-alive outbound connections, idle ones per destination
        #: address; closed by :meth:`close`.
        self._pool = ConnectionPool(on_open=self._connections_opened.inc)
        #: Per-node health providers backing the ``/healthz`` route.
        self._health: Dict[NodeId, Callable[[], Dict[str, Any]]] = {}
        #: Per-node submission handlers backing the ``POST /submit``
        #: route (the process-isolated runtime's job entry point).
        self._submit: Dict[NodeId, Callable[[Any], None]] = {}
        #: Optional run-level extra samples merged into every node's
        #: ``/metrics`` page (see :meth:`set_metrics_provider`).
        self._metrics_provider: Optional[
            Callable[[], Dict[str, float]]
        ] = None
        #: The acks of the ``POST /message`` exchange being answered
        #: (``None`` outside one); see :meth:`send_ack`.
        self._reply: Optional[List[list]] = None
        #: ``(host, port, reason)`` for seeds the last :meth:`discover`
        #: round could not fetch a card from (after one retry).
        self.last_discovery_failures: List[Tuple[str, int, str]] = []

    # ------------------------------------------------------------------
    # Injected latency
    # ------------------------------------------------------------------
    @property
    def latency(self) -> Optional[LatencyModel]:
        """Injected-delay model in protocol seconds; assignable, e.g. to
        wrap it in a :class:`~repro.net.latency.SpikeLatency` decorator.
        ``None`` (the default) injects nothing — messages travel at raw
        localhost TCP speed."""
        return self._latency

    @latency.setter
    def latency(self, model: Optional[LatencyModel]) -> None:
        self._latency = model

    # ------------------------------------------------------------------
    # Endpoints and discovery
    # ------------------------------------------------------------------
    async def add_endpoint(
        self, node_id: NodeId, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Start ``node_id``'s HTTP server; returns its bound address.

        Ephemeral binding (``port=0``, the default) can never collide.
        A *pinned* port can — parallel CI jobs, or a supervisor restart
        racing the dying previous incarnation's socket — so it is
        retried once after a short grace, then falls back to an
        ephemeral port rather than failing the node: live discovery
        re-reads the bound address from the agent card either way.
        """
        if node_id in self._servers:
            raise ConfigurationError(f"node {node_id} already has an endpoint")
        server = HttpServer(self._make_handler(node_id))
        if port:
            try:
                await server.start(host=host, port=port)
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE:
                    raise
                await asyncio.sleep(_REBIND_DELAY)
                try:
                    await server.start(host=host, port=port)
                except OSError as retry_exc:
                    if retry_exc.errno != errno.EADDRINUSE:
                        raise
                    await server.start(host=host, port=0)
        else:
            await server.start(host=host, port=port)
        self._servers[node_id] = server
        return server.host, server.port

    async def remove_endpoint(
        self, node_id: NodeId, forget: bool = False
    ) -> None:
        """Tear down ``node_id``'s HTTP server (its health provider and
        every connection it had accepted go with it).

        With ``forget=False`` (a *crash*) the directory entry stays, so
        peers keep POSTing into a dead address and see ``lost`` — the
        live analogue of datagrams into a crashed host.  With
        ``forget=True`` (a clean *departure*) the entry is removed,
        pooled connections to it are closed, and subsequent sends drop
        as detached/unknown instead.
        """
        server = self._servers.pop(node_id, None)
        self._health.pop(node_id, None)
        self._submit.pop(node_id, None)
        if server is not None:
            await server.close()
        if forget:
            address = self._directory.pop(node_id, None)
            if address is not None:
                await self._pool.drop(*address)

    def agent_card(self, node_id: NodeId) -> Dict[str, Any]:
        """The agent card served at :data:`AGENT_CARD_PATH`.

        When incarnation stamping is active the card also advertises the
        node's current incarnation: it is how a *remote* process learns
        that a reborn peer moved on — re-discovery max-merges the card
        value into the local table, and until that happens sends keep
        stamping the dead incarnation and are correctly dropped stale.
        ``endpoints.submit`` is listed only while a submit handler is
        attached — without one the route answers 404.
        """
        server = self._servers[node_id]
        endpoints = {
            "message": MESSAGE_PATH,
            "health": HEALTH_PATH,
            "metrics": METRICS_PATH,
        }
        if node_id in self._submit:
            endpoints["submit"] = SUBMIT_PATH
        card: Dict[str, Any] = {
            "name": f"aria-node-{node_id}",
            "node_id": node_id,
            "protocol": PROTOCOL_VERSION,
            "transport": "http+json",
            "url": f"http://{server.host}:{server.port}",
            "endpoints": endpoints,
        }
        incarnations = self._incarnations
        if incarnations is not None:
            card["incarnation"] = incarnations.get(node_id, 0)
        return card

    def set_submit_handler(
        self, node_id: NodeId, handler: Callable[[Any], None]
    ) -> None:
        """Attach the callable ``POST /submit`` hands decoded jobs to
        (typically :meth:`~repro.core.protocol.AriaAgent.submit`)."""
        self._submit[node_id] = handler

    def set_health_provider(
        self, node_id: NodeId, provider: Callable[[], Dict[str, Any]]
    ) -> None:
        """Attach a callable whose dict is merged into ``node_id``'s
        ``/healthz`` response (queue depth, incarnation, probe age...)."""
        self._health[node_id] = provider

    def set_metrics_provider(
        self, provider: Callable[[], Dict[str, float]]
    ) -> None:
        """Attach a callable whose flat ``{key: value}`` dict is merged
        into every node's ``/metrics`` page as extra gauges (run-level
        samples like deadline misses and traffic-by-type counts that are
        not registry metrics)."""
        self._metrics_provider = provider

    def _metrics_page(self, node_id: NodeId) -> str:
        """The Prometheus exposition served at :data:`METRICS_PATH`.

        One page = the shared run registry (protocol counters, transport
        drops, reliability tallies, hop latencies) + this node's health
        snapshot rendered as ``aria_node_*{node="..."}`` gauges + any
        run-level provider samples.
        """
        node = str(node_id)
        extra: Dict[str, float] = {}
        snapshot = self._health_snapshot(node_id)
        for key, value in snapshot.items():
            if isinstance(value, (bool, int, float)):
                extra[f"node_{key}{{node={node}}}"] = float(value)
        if "queue_depth" in snapshot:
            # Derived idleness: nothing running and nothing queued.
            idle = (
                snapshot.get("running_job") is None
                and not snapshot.get("queue_depth")
            )
            extra[f"node_idle{{node={node}}}"] = float(idle)
        monitor = self.monitor
        for name, count in monitor.count_by_type.items():
            extra[f"traffic_messages{{type={name}}}"] = float(count)
        for name, total in monitor.bytes_by_type.items():
            extra[f"traffic_bytes{{type={name}}}"] = float(total)
        provider = self._metrics_provider
        if provider is not None:
            extra.update(provider())
        return render_prometheus(self.registry, extra=extra)

    def _health_snapshot(self, node_id: NodeId) -> Dict[str, Any]:
        snapshot: Dict[str, Any] = {
            "node_id": node_id,
            "protocol": PROTOCOL_VERSION,
            "time": self.clock.now,
            "inbox_registered": node_id in self._handlers,
        }
        provider = self._health.get(node_id)
        if provider is not None:
            snapshot.update(provider())
        return snapshot

    async def discover(self, addresses=None) -> Dict[NodeId, Tuple[str, int]]:
        """Build the node directory by fetching agent cards over HTTP.

        ``addresses`` is an iterable of ``(host, port)`` seeds; by
        default every locally hosted endpoint is probed (the localhost
        overlay's bootstrap list).  Each card's declared ``node_id``
        keys the directory — the transport trusts the wire, not its own
        process state, so the discovery path is exercised end to end.

        Discovery is seed-fault-tolerant: a seed whose card cannot be
        fetched (after one fresh retry on top of the HTTP layer's own
        backoff) is skipped and reported in
        :attr:`last_discovery_failures` rather than failing the round;
        only a round in which *every* seed fails raises.  Two live seeds
        claiming the same ``node_id`` in one round is a configuration
        error (an impersonation / split-brain symptom) and raises instead
        of silently overwriting the directory — while a single seed
        re-claiming an id across rounds stays legal, which is how a
        restarted node re-enters the directory.
        """
        if addresses is None:
            addresses = [
                (server.host, server.port)
                for server in self._servers.values()
            ]
        addresses = list(addresses)

        async def fetch(host: str, port: int):
            for attempt in (0, 1):
                try:
                    return await http_get_json(host, port, AGENT_CARD_PATH)
                except (
                    ConfigurationError,
                    ConnectionError,
                    OSError,
                    ValueError,
                    asyncio.TimeoutError,
                ) as exc:
                    if attempt:
                        return exc

        cards = await asyncio.gather(
            *(fetch(host, port) for host, port in addresses)
        )
        failures: List[Tuple[str, int, str]] = []
        claimed: Dict[NodeId, Tuple[str, int]] = {}
        for (host, port), card in zip(addresses, cards):
            if isinstance(card, Exception):
                failures.append(
                    (host, port, f"{card.__class__.__name__}: {card}")
                )
                continue
            if card.get("protocol") != PROTOCOL_VERSION:
                raise ConfigurationError(
                    f"peer at {host}:{port} speaks "
                    f"{card.get('protocol')!r}, not {PROTOCOL_VERSION!r}"
                )
            node_id = card["node_id"]
            prior = claimed.get(node_id)
            if prior is not None and prior != (host, port):
                raise ConfigurationError(
                    f"node id {node_id} claimed by two peers in one round: "
                    f"{prior[0]}:{prior[1]} and {host}:{port}"
                )
            claimed[node_id] = (host, port)
            incarnation = card.get("incarnation")
            if incarnation is not None and self._incarnations is not None:
                # A reborn peer's card advertises its recovered
                # incarnation; merging it (forward-only) is how senders
                # in *other processes* stop stamping the dead one.
                self.set_incarnation(node_id, incarnation)
        self.last_discovery_failures = failures
        if failures and not claimed:
            host, port, reason = failures[0]
            raise ConfigurationError(
                f"discovery failed for all {len(failures)} seed(s); "
                f"first: {host}:{port} ({reason})"
            )
        before = set(self._directory.values())
        self._directory.update(claimed)
        for address in before.difference(self._directory.values()):
            # Its node answers elsewhere now: nothing will be sent here.
            await self._pool.drop(*address)
        return dict(self._directory)

    async def drain(self) -> None:
        """Wait until every outbound copy has settled: its injected
        delay, its exchange (connecting included) and its acks' delays."""
        while self._in_flight:
            if self._quiet is None:
                self._quiet = self._loop.create_future()
            # Shielded: a cancelled drain leaves the others waiting.
            await asyncio.shield(self._quiet)

    async def close(self) -> None:
        """Close the pooled connections and shut down every endpoint
        server (after :meth:`drain`)."""
        await self._pool.close()
        for server in self._servers.values():
            await server.close()
        self._servers.clear()
        self._health.clear()
        self._submit.clear()

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def _make_handler(self, node_id: NodeId):
        def handle(method: str, path: str, body: bytes):
            if method == "GET" and path == AGENT_CARD_PATH:
                card = json.dumps(self.agent_card(node_id)).encode("utf-8")
                return 200, "OK", card
            if method == "GET" and path == HEALTH_PATH:
                health = json.dumps(self._health_snapshot(node_id))
                return 200, "OK", health.encode("utf-8")
            if method == "GET" and path == METRICS_PATH:
                page = self._metrics_page(node_id).encode("utf-8")
                return 200, "OK", page, CONTENT_TYPE
            if method == "POST" and path == MESSAGE_PATH:
                try:
                    envelope = decode_envelope(json.loads(body.decode("utf-8")))
                except (ValueError, KeyError, TypeError, ConfigurationError):
                    # Non-JSON body, truncated envelope, unknown message
                    # type or envelope kind: a malformed datagram, not a
                    # server bug — reject it and count it.
                    self._rejected.inc()
                    return 400, "Bad Request", b'{"ok":false}'
                src, dst, message = (
                    envelope["src"], envelope["dst"], envelope["message"]
                )
                args = (src, dst, message, envelope["msg_id"], envelope["stamp"])
                # The handler is synchronous: nothing else adds to this reply.
                reply = self._reply = [] if envelope["kind"] == "tagged" else None
                try:
                    self._dispatch(
                        envelope["trace"], src, dst, message, self._deliver, args
                    )
                finally:
                    self._reply = None
                if reply:
                    return 200, "OK", json.dumps(reply).encode("utf-8")
                return 200, "OK", _OK
            if method == "POST" and path == SUBMIT_PATH:
                handler = self._submit.get(node_id)
                if handler is None:
                    return 404, "Not Found", b'{"ok":false}'
                try:
                    job = decode_job(json.loads(body.decode("utf-8"))["job"])
                except (ValueError, KeyError, TypeError, ConfigurationError):
                    self._rejected.inc()
                    return 400, "Bad Request", b'{"ok":false}'
                try:
                    handler(job)
                except ReproError:
                    # Refused (failed / departed / leaving node, or a
                    # duplicate submission of a job some node already
                    # took): the submitter picks another entry point.
                    return 409, "Conflict", b'{"ok":false}'
                return 200, "OK", _OK
            return 404, "Not Found", b""

        return handle

    def _dispatch(
        self,
        trace: Optional[Dict[str, Any]],
        src: NodeId,
        dst: NodeId,
        message: Message,
        callback: Callable,
        args: tuple,
    ) -> None:
        """Run one arrival's delivery callback — ``_deliver`` for an
        envelope, ``_deliver_ack`` for an ack — through
        :meth:`~repro.net.Transport._traced_dispatch` when it carries a
        ``trace`` stamp and tracing is on here too, so the receiving
        process emits the paired ``net.recv`` event and runs it under the
        sender's causal context.
        """
        if trace is None or self._trace is None:
            callback(*args)
        else:
            self._traced_dispatch(
                (trace["id"], trace["hop"]),
                trace["sent_at"],
                src,
                dst,
                message,
                callback,
                args,
            )

    # ------------------------------------------------------------------
    # Send side (the Transport interface)
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        stamp = self.incarnation_stamp(dst)
        if src == dst:
            # Local loopback: free, lossless, delivered on the next loop
            # iteration so handlers never re-enter each other.
            self._loop.call_soon(self._deliver, src, dst, message, None, stamp)
            return
        self._post_envelope("send", src, dst, message, None, stamp)

    def send_tagged(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        msg_id: int,
        stamp: Optional[int] = None,
    ) -> None:
        self._post_envelope("tagged", src, dst, message, msg_id, stamp)

    def send_ack(self, src: NodeId, dst: NodeId, message: Message, msg_id: int) -> None:
        """Add the ack for ``msg_id`` to the reply of the exchange that
        delivered it: accounted, traced, judged and delayed like any
        message, each surviving copy is a ``[msg_id, stamp, delay,
        trace]`` entry the sender settles from the response (an exchange
        that fails after delivery loses it, like a lost ack).  Outside a
        ``POST /message`` exchange there is nothing to answer: it raises.
        """
        reply = self._reply
        if reply is None:
            raise ProtocolError(f"ack for {msg_id} outside its exchange")
        stamp = self.incarnation_stamp(dst)
        copies, trace = self._judged(src, dst, message)
        for _ in range(copies):
            reply.append([msg_id, stamp, self._delay(src, dst), trace])

    def _judged(
        self, src: NodeId, dst: NodeId, message: Message
    ) -> Tuple[int, Optional[Dict[str, Any]]]:
        """Accounting and loss draw, the causal context ``_account`` just
        stamped (as the wire field, ``None`` when transport tracing is
        off) and the fault verdict: ``(surviving copies, trace)``."""
        if not self._account(src, dst, message):
            return 0, None
        trace = None
        if self._trace is not None:
            tid, hop, sent_at = self._last_send_ctx
            trace = {"id": tid, "hop": hop, "sent_at": sent_at}
        copies = 1 if self.faults is None else self._judge(src, dst, message)
        return copies, trace

    def _delay(self, src: NodeId, dst: NodeId) -> float:
        """One copy's injected delay in wall seconds (latency models
        speak protocol seconds)."""
        latency = self._latency
        if latency is None:
            return 0.0
        return latency.sample(src, dst, self._latency_rng) / self._time_scale

    def _post_envelope(
        self,
        kind: str,
        src: NodeId,
        dst: NodeId,
        message: Message,
        msg_id: Optional[int],
        stamp: Optional[int],
    ) -> None:
        """The wire path of every non-local message: the judgment, then
        per surviving copy an injected delay (a timer) and a pooled POST."""
        copies, trace = self._judged(src, dst, message)
        if not copies:
            return
        address = self._directory.get(dst)
        if address is None:
            # Never discovered: the live analogue of an unknown/detached
            # destination, with the same drop accounting.
            self._drop(dst, message)
            return
        envelope = encode_envelope(
            kind, src, dst, message, msg_id=msg_id, stamp=stamp, trace=trace
        )
        # Serialised once, however many copies the fault verdict asked for.
        body = json.dumps(envelope, separators=(",", ":")).encode("utf-8")
        host, port = address
        for _ in range(copies):
            self._launch(
                self._delay(src, dst), self._pool.exchange, host, port, "POST",
                MESSAGE_PATH, body, self._send_timeout,
                partial(self._settle, src, dst, message),
            )

    def _launch(self, delay: float, callback: Callable, *args: Any) -> None:
        """Count a copy or ack entry in flight; start it after ``delay``."""
        self._in_flight += 1
        if delay > 0.0:
            self._loop.call_later(delay, callback, *args)
        else:
            callback(*args)

    def _settle(
        self, src: NodeId, dst: NodeId, message: Message, outcome: Outcome
    ) -> None:
        """One copy's exchange is over: count it lost, or settle the
        acks its response carries, each after its own injected delay."""
        try:
            if isinstance(outcome, BaseException):
                # Unreachable endpoint: a datagram into a dead link.
                self._lost.inc()
                if self._trace is not None:
                    self._emit_msg(
                        "msg.lost", message, src=src, dst=dst, reason="unreachable"
                    )
                return
            status, payload = outcome
            if payload == _OK or status != 200:
                return  # no ack, or a peer that refused the message
            try:
                acks = _decode_acks(json.loads(payload))
            except (ValueError, ConfigurationError):
                self._rejected.inc()  # settles nothing: the sender retransmits
                return
            for entry in acks:
                self._launch(entry[2], self._settle_ack, src, dst, entry)
        finally:
            self._landed()

    def _settle_ack(self, src: NodeId, dst: NodeId, entry: tuple) -> None:
        """Settle one ack entry of the response to ``src``'s send to ``dst``."""
        try:
            msg_id, stamp, _delay, trace = entry
            args = (src, msg_id, stamp)
            self._dispatch(trace, dst, src, Ack(msg_id), self._deliver_ack, args)
        finally:
            self._landed()

    def _landed(self) -> None:
        """One copy or ack entry settled; the last one wakes :meth:`drain`."""
        self._in_flight -= 1
        if not self._in_flight and self._quiet is not None:
            self._quiet.set_result(None)
            self._quiet = None

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def rejected(self) -> int:
        """Inbound POSTs answered 400 (malformed body / unknown kind)."""
        return self._rejected.value

    def network_counters(self) -> Dict[str, int]:
        """Base counters plus the live-only ``rejected`` and
        ``connections_opened`` counts."""
        counters = super().network_counters()
        counters["rejected"] = self._rejected.value
        counters["connections_opened"] = self._connections_opened.value
        return counters
