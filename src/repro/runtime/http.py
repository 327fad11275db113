"""Minimal HTTP/1.1 on asyncio Protocols — zero dependencies.

Just enough protocol for the live runtime's exchanges: GETs of a node's
agent card, health and metrics pages, and POSTs of message envelopes.
Both ends speak the intersection honestly: start line + headers +
``Content-Length``-delimited bodies, cut from the bytes by one
:class:`_Framer` with the same size limits in either direction.  No
chunked encoding, no TLS.

Connections are persistent (HTTP/1.1 keep-alive) unless the client asks
for ``Connection: close``:

* :class:`HttpServer` answers requests on a connection until the client
  closes it, says ``Connection: close`` (the one-shot helpers) or breaks
  the framing (400, then closed), each inside the ``data_received``
  callback that completed it.  It accepts any HTTP/1.1 client — ``curl``
  against a node's agent card works.
* :class:`ConnectionPool` is the message path's client: ARiA floods the
  same few overlay neighbours over and over, so a transport keeps up to
  :data:`_MAX_IDLE_PER_PEER` idle connections per destination and does
  one exchange at a time on each.  On an idle connection the request is
  written inside :meth:`ConnectionPool.exchange` and its outcome
  reported from ``data_received``; only opening a connection takes a
  task.
* :func:`http_request` and its JSON wrappers stay one-shot — open, one
  exchange with ``Connection: close``, close — for the card GETs,
  ``/healthz`` probes, ``/metrics`` scrapes and ``/submit`` POSTs that
  happen about once a second from processes that own no pool.

A peer that goes away mid-exchange surfaces as a
:class:`ConnectionError`, so a caller's ``except (ConnectionError,
OSError, asyncio.TimeoutError)`` is complete.
"""

from __future__ import annotations

import asyncio
import json
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..errors import ConfigurationError

__all__ = [
    "HttpServer",
    "ConnectionPool",
    "http_request",
    "http_get_json",
    "http_post_json",
]

#: ``handler(method, path, body) -> (status, reason, body)`` or
#: ``(status, reason, body, content_type)`` — the 3-tuple form defaults
#: to ``application/json``; routes serving another format (the
#: Prometheus ``/metrics`` page) return the 4-tuple.
Handler = Callable[[str, str, bytes], Tuple]

#: How an exchange ended: ``(status, body)``, or the exception.
Outcome = Union[Tuple[int, bytes], BaseException]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024

_CLOSE = "Connection: close\r\n"
_BAD_REQUEST = (400, "Bad Request", b"")

#: Idle connections a pool keeps per destination; one checked in beyond
#: that is closed.  A sender needs as many as it has exchanges with one
#: peer in flight at once: the measured peak is 4 on ``live_wire_plain``,
#: ``live_wire_acked`` and an 8-node ``repro serve``, with sends written
#: inside ``send`` as with a task per send; a fifth, 3 times in 12 000
#: messages, costs one connection (docs/PERFORMANCE.md, "The live wire
#: without a task per message").
_MAX_IDLE_PER_PEER = 4

#: Bytes a connection asks its socket for per read.  asyncio asks for
#: 256 KiB and shrinks the buffer to what arrived (a few hundred bytes
#: here); where earlier allocations left glibc's heap top, the freed tail
#: is trimmed back to the kernel and faulted in again on every read —
#: four page faults per message, a fifth of the wire's throughput, on or
#: off with the length of a path (docs/PERFORMANCE.md, "The ack rides
#: the response").  A 64 KiB read — the streams' own buffer limit — did
#: not, in any of the 64 layouts measured.
_READ_SIZE = 64 * 1024


class _BadMessage(ConnectionError):
    """A message that began to arrive and was malformed, oversized or
    cut short: the peer did speak, and the stream is no longer framed."""


class _Framer:
    """Cuts one direction of a connection into messages.

    :meth:`feed` it bytes as they arrive; :meth:`next` returns the next
    whole message as ``(start, close, body)`` — the start line's three
    tokens, whether the sender asked for ``Connection: close``, the body
    — or ``None`` until one is complete.  A head over
    :data:`_MAX_HEADER_BYTES` (blank line included), a start line of
    other than three tokens or a ``Content-Length`` that is not ASCII
    digits up to :data:`_MAX_BODY_BYTES` raises :class:`_BadMessage`.
    """

    __slots__ = ("_buffer", "_head")

    def __init__(self) -> None:
        self._buffer = b""
        #: ``(start, close, length)`` of a message whose body is arriving.
        self._head: Optional[Tuple[List[str], bool, int]] = None

    @property
    def pending(self) -> bool:
        """Whether bytes of a message not yet returned are held."""
        return bool(self._buffer) or self._head is not None

    def feed(self, data: bytes) -> None:
        self._buffer = self._buffer + data if self._buffer else data

    def next(self) -> Optional[Tuple[List[str], bool, bytes]]:
        buffer = self._buffer
        head = self._head
        if head is None:
            end = buffer.find(b"\r\n\r\n", 0, _MAX_HEADER_BYTES)
            if end < 0:
                if len(buffer) >= _MAX_HEADER_BYTES:
                    raise _BadMessage("oversized message head")
                return None
            lines = buffer[:end].decode("latin-1").split("\r\n")
            buffer = buffer[end + 4:]
            start = lines[0].split(" ", 2)
            if len(start) != 3:
                raise _BadMessage(f"malformed start line {lines[0]!r}")
            length = "0"
            close = False
            for line in lines[1:]:
                name, _, value = line.partition(":")
                name = name.strip().lower()
                if name == "content-length":
                    length = value.strip()
                elif name == "connection":
                    close = value.strip().lower() == "close"
            # ASCII digits only: no sign, no "²" (isdigit(), but not int()).
            digits = length.isascii() and length.isdigit()
            if not digits or int(length) > _MAX_BODY_BYTES:
                raise _BadMessage(f"unacceptable Content-Length {length!r}")
            head = start, close, int(length)
        start, close, length = head
        if len(buffer) < length:
            self._buffer, self._head = buffer, head
            return None
        self._buffer, self._head = buffer[length:], None
        return start, close, buffer[:length]


class _Connection(asyncio.Protocol):
    """One end of a TCP connection: bounded reads, a framer for what
    arrives, and :attr:`closed`, resolved once the socket is released."""

    __slots__ = ("transport", "closed", "_framer")

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        transport.max_size = _READ_SIZE  # not asyncio's 256 KiB: see above
        self.transport = transport
        self.closed = asyncio.get_running_loop().create_future()
        self._framer = _Framer()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closed.set_result(None)


class _Served(_Connection):
    """A connection an :class:`HttpServer` accepted."""

    __slots__ = ("_owner",)

    def __init__(self, owner: "HttpServer") -> None:
        self._owner = owner

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        owner = self._owner
        owner._accepted.add(self)
        # A connection accepted while close() ran is served nothing.
        if owner._server is None or not owner._server.is_serving():
            transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._owner._accepted.discard(self)
        super().connection_lost(exc)

    def data_received(self, data: bytes) -> None:
        framer = self._framer
        framer.feed(data)
        while not self.transport.is_closing():
            try:
                request = framer.next()
            except _BadMessage:
                # Where the next request starts is unknowable.
                self._respond(_BAD_REQUEST, False)
                return
            if request is None:
                return
            (method, path, _version), close, body = request
            try:
                result = self._owner._handler(method, path, body)
            except Exception:
                result = _BAD_REQUEST
            self._respond(result, not close)

    def eof_received(self) -> None:  # returns None: the server closes too
        if self._framer.pending:  # the client hung up mid-request
            self._respond(_BAD_REQUEST, False)

    def pause_writing(self) -> None:  # what awaiting drain() used to do
        self.transport.pause_reading()  # until the client catches up

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def _respond(self, result: Tuple, keep: bool) -> None:
        content_type = "application/json"
        if len(result) == 4:
            status, reason, payload, content_type = result
        else:
            status, reason, payload = result
        self.transport.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"{'' if keep else _CLOSE}"
                "\r\n"
            ).encode("ascii")
            + payload
        )
        if not keep:
            self.transport.close()


class HttpServer:
    """One node's HTTP endpoint: serves its agent card and inbox."""

    def __init__(self, handler: Handler) -> None:
        self._handler = handler
        self._server: Optional[asyncio.AbstractServer] = None
        #: The connections accepted and not yet closed.
        self._accepted: Set[_Served] = set()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        self._server = await asyncio.get_running_loop().create_server(
            partial(_Served, self), host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def close(self) -> None:
        """Stop listening, close every accepted connection and wait for
        the sockets to shut down.

        ``asyncio.Server.close()`` alone leaves accepted connections
        open (and from Python 3.12 ``wait_closed()`` waits for them): a
        peer holding a kept-alive connection would go on reaching a
        server that was torn down to play a crashed node.
        """
        if self._server is not None:
            self._server.close()
            accepted = tuple(self._accepted)
            for connection in accepted:
                connection.transport.close()  # all at once, as a crash would
            for connection in accepted:
                await connection.closed
            await self._server.wait_closed()
            self._server = None


class _Client(_Connection):
    """A connection this process opened: one exchange at a time."""

    __slots__ = ("_settle",)

    def __init__(self) -> None:
        #: Told how the exchange in progress ended; ``None`` while idle.
        self._settle: Optional[Callable[[Outcome], None]] = None

    def send(self, request: bytes, settle: Callable[[Outcome], None]) -> None:
        """Write ``request``; ``settle`` hears how it ended, once, later.  A
        response saying ``Connection: close``, or with bytes behind it,
        first closes the connection."""
        self._settle = settle
        self.transport.write(request)

    def abandon(self) -> None:
        """Close the connection; an exchange on it is settled no more."""
        self._settle = None
        self.transport.close()

    def data_received(self, data: bytes) -> None:
        settle = self._settle
        if settle is None:
            # Bytes nobody asked for: no later answer here can be trusted.
            self.transport.close()
            return
        framer = self._framer
        framer.feed(data)
        try:
            response = framer.next()
            if response is None:
                return
            (_version, status, _reason), close, payload = response
            if not status.isascii() or not status.isdigit():
                raise _BadMessage(f"malformed status {status!r}")
        except _BadMessage as error:
            self.abandon()
            settle(error)
            return
        self._settle = None
        if close or framer.pending:
            self.transport.close()
        settle((int(status), payload))

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        settle, self._settle = self._settle, None
        if settle is not None and self._framer.pending:
            settle(_BadMessage("peer closed mid-message"))
        elif settle is not None:
            settle(ConnectionResetError("peer closed before responding"))


async def _connect(host: str, port: int) -> _Client:
    """Open a connection; raises ``OSError`` when nobody listens."""
    loop = asyncio.get_running_loop()
    return (await loop.create_connection(_Client, host, port))[1]


def _encode_request(
    host: str, port: int, method: str, path: str, body: bytes, keep_alive: bool
) -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{'' if keep_alive else _CLOSE}"
        "\r\n"
    ).encode("ascii") + body


def _resolve(future: asyncio.Future, outcome: Outcome) -> None:
    """Hand ``outcome`` to ``future``, unless its awaiter gave up on it."""
    if not future.done():
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)


class _Exchange:
    """One request through a pool, under one deadline for connecting and
    answering; ``done`` is told how it ended."""

    __slots__ = ("pool", "address", "request", "done", "deadline",
                 "connection", "reused", "opening")

    def __init__(self, pool, address, request, done, timeout) -> None:
        self.pool, self.address, self.request = pool, address, request
        self.done = done
        self.deadline = asyncio.get_running_loop().call_later(timeout, self.expire)
        self.connection: Optional[_Client] = None
        self.opening: Optional[asyncio.Task] = None

    def use(self, connection: _Client, reused: bool) -> None:
        self.connection, self.reused = connection, reused
        connection.send(self.request, self.settle)

    def open(self) -> None:
        # The deadline holds the exchange, and so this task.
        loop = asyncio.get_running_loop()
        self.opening = loop.create_task(self._connect_and_use())

    async def _connect_and_use(self) -> None:
        try:
            connection = await _connect(*self.address)
        except OSError as error:
            self.finish(error)
            return
        self.pool._on_open()
        self.use(connection, False)

    def settle(self, outcome: Outcome) -> None:
        if isinstance(outcome, BaseException):
            if self.reused and not isinstance(outcome, _BadMessage):
                # Failed before a byte of the response: the connection was
                # stale after all, so once more, on a new one.
                self.open()
                return
        else:
            # Back among the idle ones if it can serve another and there is
            # room (``idle`` is ``None`` if the address was dropped meanwhile).
            idle = self.pool._idle.get(self.address)
            reusable = not self.connection.transport.is_closing()
            if reusable and idle is not None and len(idle) < _MAX_IDLE_PER_PEER:
                idle.append(self.connection)
            else:
                self.connection.abandon()
        self.finish(outcome)

    def finish(self, outcome: Outcome) -> None:
        self.deadline.cancel()
        self.done(outcome)

    def expire(self) -> None:
        # Whatever it waits on is abandoned, so a late response is never
        # read as a later exchange's answer.
        if self.opening is not None:
            self.opening.cancel()
        if self.connection is not None:
            self.connection.abandon()
        self.done(asyncio.TimeoutError())


class ConnectionPool:
    """Kept-alive client connections, idle ones keyed by destination.

    An exchange takes a connection out of the pool for exactly one
    request, so however many run concurrently no two share a socket.
    ``on_open`` is called once per connection opened — sends divided by
    opens is the reuse share the pool exists for.
    """

    __slots__ = ("_idle", "_on_open")

    def __init__(self, on_open: Callable[[], None]) -> None:
        self._idle: Dict[Tuple[str, int], List[_Client]] = {}
        self._on_open = on_open

    def exchange(
        self, host: str, port: int, method: str, path: str, body: bytes,
        timeout: float, done: Callable[[Outcome], None],
    ) -> None:
        """Start one HTTP exchange over a pooled (else new) connection,
        written before this returns if one is idle.  ``done`` hears how it
        ended, once, from a later callback: ``(status, body)``, ``OSError``
        (connect failure), ``ConnectionError`` (lost connection, malformed
        response) or ``asyncio.TimeoutError`` (``timeout``, connecting
        included).  A reused connection the peer closed while it idled may
        only show it in use: failing before a byte of the response, the
        request goes again, once, on a new connection."""
        address = (host, port)
        request = _encode_request(host, port, method, path, body, True)
        exchange = _Exchange(self, address, request, done, timeout)
        idle = self._idle.setdefault(address, [])
        while idle:
            connection = idle.pop()
            # Skipped if the peer hung up on it meanwhile: it is closing.
            if not connection.transport.is_closing():
                exchange.use(connection, True)
                return
        exchange.open()

    async def request(
        self, host: str, port: int, method: str, path: str,
        body: bytes = b"", timeout: float = 5.0,
    ) -> Tuple[int, bytes]:
        """:meth:`exchange`, awaited: ``(status, body)``; raises on
        connect failure, a lost connection or timeout."""
        answer = asyncio.get_running_loop().create_future()
        resolve = partial(_resolve, answer)
        self.exchange(host, port, method, path, body, timeout, resolve)
        return await answer

    async def drop(self, host: str, port: int) -> None:
        """Close the idle connections to an address nobody lives at any
        more (an exchange in flight there closes its own when done)."""
        for connection in self._idle.pop((host, port), ()):
            connection.abandon()
            await connection.closed

    async def close(self) -> None:
        """Close every idle connection."""
        for host, port in tuple(self._idle):
            await self.drop(host, port)


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    timeout: float = 5.0,
) -> Tuple[int, bytes]:
    """One HTTP exchange on a connection of its own; raises on connect
    failure, a lost connection or timeout."""

    async def one_shot() -> Tuple[int, bytes]:
        connection = await _connect(host, port)
        answer = asyncio.get_running_loop().create_future()
        request = _encode_request(host, port, method, path, body, False)
        try:
            connection.send(request, partial(_resolve, answer))
            return await answer
        finally:
            connection.abandon()
            await connection.closed

    return await asyncio.wait_for(one_shot(), timeout)


async def http_get_json(
    host: str,
    port: int,
    path: str,
    timeout: float = 5.0,
    retries: int = 5,
    backoff: float = 0.05,
) -> Dict[str, Any]:
    """GET a JSON document, retrying with exponential backoff.

    Discovery races server startup, so connect failures back off and
    retry (``backoff``, doubling per attempt) before giving up.
    """
    delay = backoff
    for attempt in range(retries + 1):
        try:
            status, body = await http_request(
                host, port, "GET", path, timeout=timeout
            )
            if status == 200:
                return json.loads(body.decode("utf-8"))
            raise ConfigurationError(f"GET {path} returned HTTP {status}")
        except (ConnectionError, OSError, asyncio.TimeoutError):
            if attempt >= retries:
                raise
            await asyncio.sleep(delay)
            delay *= 2


async def http_post_json(
    host: str,
    port: int,
    path: str,
    payload: Dict[str, Any],
    timeout: float = 5.0,
) -> int:
    """POST a JSON document once; returns the HTTP status."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    status, _ = await http_request(
        host, port, "POST", path, body=body, timeout=timeout
    )
    return status
