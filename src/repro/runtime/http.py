"""Minimal HTTP/1.1 over asyncio streams — zero dependencies.

Just enough protocol for the live runtime's exchanges: GETs of a node's
agent card, health and metrics pages, and POSTs of message envelopes.
Both ends speak the intersection honestly: start line + headers +
``Content-Length``-delimited bodies, read by the one
:func:`_read_message` with the same size limits in either direction.  No
chunked encoding, no pipelining, no TLS.

Connections are persistent (HTTP/1.1 keep-alive) unless the client asks
for ``Connection: close``:

* :class:`HttpServer` answers requests on a connection until the client
  closes it, says ``Connection: close`` (the one-shot helpers) or breaks
  the framing (400, then closed).  It accepts any HTTP/1.1 client —
  ``curl`` against a node's agent card works.
* :class:`ConnectionPool` is the message path's client: ARiA floods the
  same few overlay neighbours over and over, so a transport keeps up to
  :data:`_MAX_IDLE_PER_PEER` idle connections per destination and does
  one exchange at a time on each — a connection is checked out (or
  opened), used for one request/response, and checked back in, so
  concurrent deliveries never share a socket.
* :func:`http_request` and its JSON wrappers stay one-shot — open, one
  exchange with ``Connection: close``, close — for the card GETs,
  ``/healthz`` probes, ``/metrics`` scrapes and ``/submit`` POSTs that
  happen about once a second from processes that own no pool.

Pooled or not, the exchange is the one :func:`_exchange`.  A peer that
goes away mid-exchange surfaces as a :class:`ConnectionError` (never the
``EOFError`` asyncio streams raise), so a caller's ``except
(ConnectionError, OSError, asyncio.TimeoutError)`` is complete.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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

_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024

_CLOSE = "Connection: close\r\n"
_BAD_REQUEST = (400, "Bad Request", b"")

#: Idle connections a pool keeps per destination; one checked in beyond
#: that is closed.  A sender needs as many as it has exchanges with one
#: peer in flight at once: the measured peak is 4 on ``live_wire_plain``,
#: on ``live_wire_acked`` (its acks ride the responses, so it makes one
#: exchange per message too) and on an 8-node ``repro serve``
#: (docs/PERFORMANCE.md, "The ack rides the response").
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


async def _read_message(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[List[str], bool, bytes]]:
    """Read one request or response: ``(start, close, body)``.

    ``start`` is the start line's three tokens (``METHOD path version``
    or ``version status reason``), ``close`` whether the sender asked
    for ``Connection: close``.  ``None`` is a clean EOF before the first
    byte — the peer closed an idle connection; anything wrong after that
    byte raises :class:`_BadMessage`.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _BadMessage("peer closed mid-message") from None
    except asyncio.LimitOverrunError:
        raise _BadMessage("oversized message head") from None
    if len(head) > _MAX_HEADER_BYTES:
        raise _BadMessage("oversized message head")
    lines = head.decode("latin-1").split("\r\n")
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
    # isdigit() turns away a sign too: no negative length gets by.
    if not length.isdigit() or int(length) > _MAX_BODY_BYTES:
        raise _BadMessage(f"unacceptable Content-Length {length!r}")
    try:
        body = await reader.readexactly(int(length))
    except (asyncio.IncompleteReadError, ConnectionError):
        raise _BadMessage("peer closed mid-message") from None
    return start, close, body


async def _close(writer: asyncio.StreamWriter) -> None:
    """Close one connection and wait until its socket is released."""
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass  # it was lost before it could be closed: same outcome


class HttpServer:
    """One node's HTTP endpoint: serves its agent card and inbox."""

    def __init__(self, handler: Handler) -> None:
        self._handler = handler
        self._server: Optional[asyncio.AbstractServer] = None
        #: Writers of the connections accepted and not yet closed.
        self._accepted: Set[asyncio.StreamWriter] = set()
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        self._server = await asyncio.start_server(
            self._serve_connection, host=host, port=port
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
            for writer in accepted:
                writer.close()  # all at once, as a crash would
            for writer in accepted:
                await _close(writer)
            await self._server.wait_closed()
            self._server = None

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._accepted.add(writer)
        writer.transport.max_size = _READ_SIZE
        try:
            # A connection accepted while close() ran is served nothing.
            keep = self._server is not None and self._server.is_serving()
            while keep:
                try:
                    request = await _read_message(reader)
                except _BadMessage:
                    # Where the next request starts is unknowable.
                    keep = False
                    result = _BAD_REQUEST
                else:
                    if request is None:
                        break  # the client is done with the connection
                    (method, path, _version), close, body = request
                    keep = not close
                    try:
                        result = self._handler(method, path, body)
                    except Exception:
                        result = _BAD_REQUEST
                content_type = "application/json"
                if len(result) == 4:
                    status, reason, payload, content_type = result
                else:
                    status, reason, payload = result
                writer.write(
                    (
                        f"HTTP/1.1 {status} {reason}\r\n"
                        f"Content-Type: {content_type}\r\n"
                        f"Content-Length: {len(payload)}\r\n"
                        f"{'' if keep else _CLOSE}"
                        "\r\n"
                    ).encode("ascii")
                    + payload
                )
                await writer.drain()
        except ConnectionError:
            pass  # client went away; nothing to salvage
        finally:
            self._accepted.discard(writer)
            await _close(writer)


async def _connect(host: str, port: int) -> _Connection:
    """Open a connection; raises ``OSError`` when nobody listens."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.transport.max_size = _READ_SIZE
    return reader, writer


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


async def _exchange(
    connection: _Connection, request: bytes
) -> Tuple[int, bytes, bool]:
    """Write one encoded request on ``connection`` and read its
    response: ``(status, body, reusable)``, ``reusable`` unless the
    server announced it would close.  A peer that goes away before or
    while answering raises a :class:`ConnectionError`."""
    reader, writer = connection
    writer.write(request)
    await writer.drain()
    response = await _read_message(reader)
    if response is None:
        raise ConnectionResetError("peer closed before responding")
    (_version, status, _reason), close, payload = response
    if not status.isdigit():
        raise _BadMessage(f"malformed status {status!r}")
    return int(status), payload, not close


class ConnectionPool:
    """Kept-alive client connections, idle ones keyed by destination.

    :meth:`request` takes a connection out of the pool for exactly one
    exchange, so however many requests run concurrently no two share a
    socket.  ``on_open`` is called once per connection opened — sends
    divided by opens is the reuse share the pool exists for.
    """

    __slots__ = ("_idle", "_on_open")

    def __init__(self, on_open: Callable[[], None]) -> None:
        self._idle: Dict[Tuple[str, int], List[_Connection]] = {}
        self._on_open = on_open

    async def request(
        self,
        host: str,
        port: int,
        method: str,
        path: str,
        body: bytes = b"",
        timeout: float = 5.0,
    ) -> Tuple[int, bytes]:
        """One HTTP exchange over a pooled (else new) connection; raises
        on connect failure, a lost connection or timeout.

        A reused connection may have been closed by the peer while it
        idled, which may only show when it is used: if it fails before a
        byte of the response is read, the request is sent again, once,
        on a new connection.  A new connection's failure is final.
        """
        return await asyncio.wait_for(
            self._request(host, port, method, path, body), timeout
        )

    async def _request(
        self, host: str, port: int, method: str, path: str, body: bytes
    ) -> Tuple[int, bytes]:
        address = (host, port)
        request = _encode_request(host, port, method, path, body, True)
        idle = self._idle.setdefault(address, [])
        while idle:
            connection = idle.pop()
            reader, writer = connection
            if reader.at_eof() or writer.is_closing():
                await _close(writer)  # the peer hung up on it meanwhile
                continue
            try:
                return await self._use(connection, address, request)
            except _BadMessage:
                raise
            except ConnectionError:
                break  # stale after all: once more, on a new one
        connection = await _connect(host, port)
        self._on_open()
        return await self._use(connection, address, request)

    async def _use(
        self, connection: _Connection, address: Tuple[str, int], request: bytes
    ) -> Tuple[int, bytes]:
        """One exchange on ``connection``, which then goes (back) among
        the idle ones if it can serve another, and is closed if not."""
        writer = connection[1]
        try:
            status, payload, reusable = await _exchange(connection, request)
        except BaseException:
            # Failed or cancelled (timeout) mid-exchange: unusable.
            await _close(writer)
            raise
        # ``None`` when the address was dropped during the exchange.
        idle = self._idle.get(address)
        if reusable and idle is not None and len(idle) < _MAX_IDLE_PER_PEER:
            idle.append(connection)
        else:
            await _close(writer)
        return status, payload

    async def drop(self, host: str, port: int) -> None:
        """Close the idle connections to an address nobody lives at any
        more (an exchange in flight there closes its own when done)."""
        idle = self._idle.pop((host, port), [])
        while idle:
            await _close(idle.pop()[1])

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
        try:
            status, payload, _ = await _exchange(
                connection,
                _encode_request(host, port, method, path, body, False),
            )
            return status, payload
        finally:
            await _close(connection[1])

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
