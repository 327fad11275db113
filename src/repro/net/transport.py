"""Point-to-point message transport between protocol endpoints.

Nodes register a receive handler under their :class:`~repro.types.NodeId`;
:meth:`Transport.send` delivers a payload to the destination's handler and
accounts its wire size in the :class:`~repro.net.traffic.TrafficMonitor`.

:class:`Transport` is the abstract interface the protocol layer is written
against — send / send_tagged / register / counters / incarnation hooks —
with two implementations:

* :class:`SimTransport` (this module) delivers over the discrete-event
  kernel after a latency drawn from the configured
  :class:`~repro.net.latency.LatencyModel`;
* :class:`repro.runtime.LiveTransport` delivers over real HTTP+JSON
  between asyncio node servers on localhost.

Messages to unregistered (departed / crashed) nodes are counted as sent but
silently dropped on delivery, mirroring a real datagram overlay.  The drop
counter distinguishes destinations that *were* registered once
(``dropped_detached`` — in-flight messages that raced a departure) from
destinations the transport never knew (``dropped_unknown``).

Two optional collaborators extend the base datagram service:

* ``transport.faults`` — a :class:`~repro.net.faults.FaultInjector`
  consulted once per non-local message for loss bursts, duplication and
  partition drops (simulated transport only);
* ``transport.reliability`` — a
  :class:`~repro.net.reliability.ReliabilityLayer` providing at-least-once
  delivery for control-plane messages via :meth:`Transport.send_tagged`.

Both default to ``None`` and the hot path pays a single ``is None`` check
for them, keeping fault-free runs at full speed.

Crash-restart experiments additionally enable **incarnation stamping**
(:meth:`Transport.enable_incarnations`): every message is stamped at send
time with the destination's current incarnation number, and delivery
drops the message (``dropped_stale``) if the destination has restarted
since.  That makes a restarted node unreachable by its past — in-flight
ASSIGNs, Tracks, retransmitted copies and acks addressed to the dead
incarnation can never corrupt the fresh one's state.  Like the other
collaborators, the stamping path costs a single ``is None`` check when
disabled, which is the only cost fault-free runs ever pay.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, Optional, Set

from ..clock import Clock
from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import message_job_id
from .latency import LatencyModel, PairwiseLogNormalLatency
from .message import Message
from .traffic import TrafficMonitor

from ..types import NodeId

__all__ = ["Transport", "SimTransport"]

#: Signature of a node's message handler: ``handler(src, message)``.
Handler = Callable[[NodeId, Message], None]


class Transport:
    """Abstract message service between registered protocol endpoints.

    Subclasses provide the wire — :meth:`send`, :meth:`send_tagged` and
    :meth:`send_ack` — while this base owns everything both backends
    share: the handler registry, traffic accounting and loss judgment
    (:meth:`_account`, the single choke point every outbound message
    passes through), the fault verdict (:meth:`_judge`), delivery
    (:meth:`_deliver`, the one door to a handler, with its drop /
    staleness counters, and :meth:`_deliver_ack` beside it), incarnation
    stamping, and the counter snapshot consumed by run summaries.
    """

    __slots__ = (
        "clock",
        "monitor",
        "_handlers",
        "_known",
        "_loss_rng",
        "loss_probability",
        "registry",
        "_dropped_detached",
        "_dropped_unknown",
        "_lost",
        "faults",
        "reliability",
        "_incarnations",
        "_dropped_stale",
        "_trace",
        "_trace_ctx",
        "_job_traces",
        "_next_trace",
        "_last_send_ctx",
        "_hop_latency",
    )

    def __init__(
        self,
        clock: Clock,
        monitor: Optional[TrafficMonitor] = None,
        loss_probability: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability {loss_probability} out of [0, 1)"
            )
        #: The timing substrate (a :class:`~repro.sim.Simulator` or a
        #: :class:`~repro.runtime.WallClock`) — collaborators like the
        #: reliability layer schedule their timers through it.
        self.clock = clock
        self.monitor = monitor if monitor is not None else TrafficMonitor()
        self._handlers: Dict[NodeId, Handler] = {}
        #: Every node id that was ever registered, so drops can tell a
        #: departed destination from one that never existed.
        self._known: Set[NodeId] = set()
        self._loss_rng = clock.streams.get("net.loss")
        self.loss_probability = loss_probability
        #: Shared per-run metrics registry (created here when standalone).
        self.registry = registry if registry is not None else MetricsRegistry()
        self._dropped_detached = self.registry.counter("net.dropped_detached")
        self._dropped_unknown = self.registry.counter("net.dropped_unknown")
        self._lost = self.registry.counter("net.lost")
        #: Optional :class:`~repro.net.faults.FaultInjector`.
        self.faults = None
        #: Optional :class:`~repro.net.reliability.ReliabilityLayer`.
        self.reliability = None
        #: ``None`` until :meth:`enable_incarnations`; then a dict mapping
        #: node id -> current incarnation number (missing means 0).
        self._incarnations = None
        self._dropped_stale = self.registry.counter("net.dropped_stale")
        #: Optional :class:`~repro.obs.Tracer`, attached only when
        #: transport-level tracing is active (``None`` costs one check).
        self._trace = None
        #: Causal-trace state, touched only while ``_trace`` is set: the
        #: handler-scoped context restored around traced deliveries, a
        #: per-job continuation map (so chains survive timer-driven sends
        #: like ASSIGN after the accept window), the fresh-id counter, the
        #: context of the message most recently judged by :meth:`_account`
        #: (read back by the backend to stamp the in-flight copy), and the
        #: lazily registered hop-latency histogram.
        self._trace_ctx = None
        self._job_traces: Dict[int, tuple] = {}
        self._next_trace = 0
        self._last_send_ctx = None
        self._hop_latency = None

    # ------------------------------------------------------------------
    # The wire (implementation-specific)
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst`` (asynchronously).

        Local deliveries (``src == dst``) are free and immediate-but-
        asynchronous: they are delivered at the current time so handlers
        never re-enter each other, and they do not count as network
        traffic.
        """
        raise NotImplementedError

    def send_tagged(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        msg_id: int,
        stamp: Optional[int] = None,
    ) -> None:
        """Send ``message`` carrying the reliability header ``msg_id``.

        The tag is a header field like ``broadcast_id`` on flooded
        messages — covered by the message's fixed wire size, so traffic
        accounting is unchanged.  Delivery routes through the attached
        :class:`~repro.net.reliability.ReliabilityLayer` for ack + dedup.

        ``stamp`` is the incarnation stamp the reliability layer captured
        at the *original* send, so retransmitted copies keep addressing
        the incarnation the sender was talking to — and get rejected once
        it is gone.
        """
        raise NotImplementedError

    def send_ack(self, src: NodeId, dst: NodeId, message: Message, msg_id: int) -> None:
        """Send the reliability ack ``message`` for ``msg_id`` back to the
        original sender ``dst``.

        Acks bypass the handler registry on arrival: they settle the
        sender-side pending entry directly (:meth:`_deliver_ack`),
        stamped with the sender's incarnation when stamping is active so
        a reborn sender never consumes an ack addressed to its past.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Endpoint registry
    # ------------------------------------------------------------------
    def register(self, node_id: NodeId, handler: Handler) -> None:
        """Attach ``handler`` as the receive callback of ``node_id``."""
        if node_id in self._handlers:
            raise ConfigurationError(f"node {node_id} already registered")
        self._handlers[node_id] = handler
        self._known.add(node_id)

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node; in-flight messages to it will be dropped."""
        self._handlers.pop(node_id, None)
        if self.reliability is not None:
            self.reliability.forget(node_id)

    def is_registered(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` currently has a receive handler attached."""
        return node_id in self._handlers

    # ------------------------------------------------------------------
    # Incarnation stamping
    # ------------------------------------------------------------------
    def enable_incarnations(self) -> None:
        """Turn on incarnation stamping for every subsequent send.

        Crash-restart experiments call this *before* the run starts, so
        that messages already in flight when the first node crashes carry
        a stamp and can be rejected on arrival at the reborn node.
        """
        if self._incarnations is None:
            self._incarnations = {}

    def bump_incarnation(self, node_id: NodeId) -> int:
        """Advance ``node_id`` to a fresh incarnation and return it.

        Enables stamping if it was off (a restart without prior stamping
        still wants future staleness checks, though messages sent before
        this point are unstamped and pass through).
        """
        if self._incarnations is None:
            self.enable_incarnations()
        value = self._incarnations.get(node_id, 0) + 1
        self._incarnations[node_id] = value
        return value

    def set_incarnation(self, node_id: NodeId, value: int) -> None:
        """Pin ``node_id``'s current incarnation (enabling stamping).

        Two callers: a process worker that recovered its incarnation
        counter from a :class:`~repro.core.journal.DurableJournal` at
        boot, and live discovery when a peer's agent card advertises a
        fresher incarnation than the local table knows.  Only moves the
        counter forward — a stale card can never roll a node back to a
        dead incarnation.
        """
        if self._incarnations is None:
            self.enable_incarnations()
        value = int(value)
        if value > self._incarnations.get(node_id, 0):
            self._incarnations[node_id] = value

    def incarnation_stamp(self, dst: NodeId) -> Optional[int]:
        """The stamp a message to ``dst`` would carry right now
        (``None`` while stamping is disabled)."""
        incarnations = self._incarnations
        if incarnations is None:
            return None
        return incarnations.get(dst, 0)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def dropped_detached(self) -> int:
        """In-flight messages dropped because the destination detached."""
        return self._dropped_detached.value

    @property
    def dropped_unknown(self) -> int:
        """Messages addressed to a node that was never registered."""
        return self._dropped_unknown.value

    @property
    def lost(self) -> int:
        """Messages lost to the datagram network itself."""
        return self._lost.value

    @property
    def dropped(self) -> int:
        """Total messages dropped on delivery (detached + unknown)."""
        return self._dropped_detached.value + self._dropped_unknown.value

    @property
    def dropped_stale(self) -> int:
        """Messages dropped because they were addressed to an incarnation
        that died before they arrived."""
        return self._dropped_stale.value

    def network_counters(self) -> Dict[str, int]:
        """Transport + reliability + fault counters for run summaries.

        ``dropped_stale`` is always present next to ``dropped_detached``
        and ``dropped_unknown`` — the three delivery-drop counters travel
        together, whichever backend produced them.
        """
        counters = {
            "lost": self.lost,
            "dropped_detached": self.dropped_detached,
            "dropped_unknown": self.dropped_unknown,
            "dropped_stale": self.dropped_stale,
        }
        if self.reliability is not None:
            counters.update(self.reliability.counters())
        if self.faults is not None:
            counters.update(self.faults.counters())
        return counters

    # ------------------------------------------------------------------
    # Shared send-side preamble (the single choke point)
    # ------------------------------------------------------------------
    def _account(self, src: NodeId, dst: NodeId, message: Message) -> bool:
        """Traffic-account one non-local message and judge link loss.

        Every outbound message of every backend funnels through here
        exactly once: wire-size accounting, the ``msg.sent`` trace event,
        and the Bernoulli loss draw.  Returns ``False`` when the message
        was lost (accounted as sent, never delivered).
        """
        cls = message.__class__
        name = cls.__name__
        monitor = self.monitor
        by_bytes = monitor.bytes_by_type
        by_bytes[name] = by_bytes.get(name, 0) + cls.SIZE_BYTES
        by_count = monitor.count_by_type
        by_count[name] = by_count.get(name, 0) + 1
        if self._trace is not None:
            self._emit_msg("msg.sent", message, src=src, dst=dst)
            self._trace_send(src, dst, message)
        if (
            self.loss_probability
            and self._loss_rng.random() < self.loss_probability
        ):
            self._lost.inc()  # sent (and accounted) but never delivered
            if self._trace is not None:
                self._emit_msg(
                    "msg.lost", message, src=src, dst=dst, reason="loss"
                )
            return False
        return True

    def _judge(self, src: NodeId, dst: NodeId, message: Message) -> int:
        """The fault verdict on one accounted message, for both wires:
        how many copies survive (0 = lost, counted; 2 = duplicated).
        Call only while ``faults`` is attached."""
        copies = self.faults.judge(src, dst)
        if not copies:
            self._lost.inc()
            if self._trace is not None:
                self._emit_msg(
                    "msg.lost", message, src=src, dst=dst, reason="fault"
                )
        elif copies > 1 and self._trace is not None:
            self._emit_msg("msg.duplicated", message, src=src, dst=dst)
        return copies

    def _emit_msg(self, event: str, message: Message, **fields) -> None:
        """Record one message event, annotated with its job when known."""
        job = message_job_id(message)
        if job is not None:
            fields["job"] = job
        self._trace.emit(
            event, self.clock.now, type=message.__class__.__name__, **fields
        )

    # ------------------------------------------------------------------
    # Causal tracing (active only while ``_trace`` is attached)
    # ------------------------------------------------------------------
    def _next_trace_ctx(self, job: Optional[int]) -> tuple:
        """The ``(trace_id, hop)`` context for one outbound message.

        Priority: continue the handler context (we are inside a traced
        delivery — the reply is hop N+1 of the same chain); else continue
        the job's last known chain (covers timer-driven sends like the
        ASSIGN fired when the accept window closes, or Done after
        execution); else start a fresh chain.  Trace ids come from a
        plain counter — never an RNG — so traced runs stay bit-identical
        to untraced ones.
        """
        ctx = self._trace_ctx
        if ctx is not None:
            ctx = (ctx[0], ctx[1] + 1)
        elif job is not None:
            prior = self._job_traces.get(job)
            if prior is not None:
                ctx = (prior[0], prior[1] + 1)
        if ctx is None:
            self._next_trace += 1
            ctx = (f"t{self._next_trace}", 0)
        if job is not None:
            job_traces = self._job_traces
            if len(job_traces) > 100_000:
                # Bound the continuation map on long soaks: dropping old
                # entries only starts fresh chains for ancient jobs.
                for stale in list(job_traces)[:50_000]:
                    del job_traces[stale]
            job_traces[job] = ctx
        return ctx

    def _trace_send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Stamp one outbound message with its causal context.

        Called from :meth:`_account`'s traced branch only; the backend
        reads :attr:`_last_send_ctx` back immediately to attach the
        context to the scheduled delivery (sim) or wire envelope (live).
        """
        job = message_job_id(message)
        ctx = self._next_trace_ctx(job)
        now = self.clock.now
        self._last_send_ctx = (ctx[0], ctx[1], now)
        fields = {"trace": ctx[0], "hop": ctx[1]}
        if job is not None:
            fields["job"] = job
        self._trace.emit(
            "net.send",
            now,
            src=src,
            dst=dst,
            type=message.__class__.__name__,
            **fields,
        )

    def _traced_dispatch(
        self,
        ctx: tuple,
        sent_at: float,
        src: NodeId,
        dst: NodeId,
        message: Message,
        callback: Callable,
        args: tuple,
    ) -> None:
        """Deliver one traced message: emit ``net.recv``, observe the hop
        latency, and run the delivery callback under the restored causal
        context so every send it triggers continues the chain."""
        trace = self._trace
        if trace is None:
            callback(*args)
            return
        now = self.clock.now
        latency = now - sent_at
        histogram = self._hop_latency
        if histogram is None:
            histogram = self._hop_latency = self.registry.histogram(
                "net.hop_latency",
                buckets=(0.05, 0.2, 1.0, 5.0, 30.0, 120.0, 600.0),
            )
        histogram.observe(latency)
        job = message_job_id(message)
        fields = {"trace": ctx[0], "hop": ctx[1], "latency": latency}
        if job is not None:
            fields["job"] = job
            self._job_traces[job] = ctx
        trace.emit(
            "net.recv",
            now,
            src=src,
            dst=dst,
            type=message.__class__.__name__,
            **fields,
        )
        self._trace_ctx = ctx
        try:
            callback(*args)
        finally:
            self._trace_ctx = None

    # ------------------------------------------------------------------
    # Shared delivery-side bookkeeping
    # ------------------------------------------------------------------
    def _drop(self, dst: NodeId, message: Message) -> None:
        if dst in self._known:
            self._dropped_detached.inc()
            reason = "detached"
        else:
            self._dropped_unknown.inc()
            reason = "unknown"
        if self._trace is not None:
            self._emit_msg("msg.dropped", message, dst=dst, reason=reason)

    def _is_stale(self, dst: NodeId, stamp: int) -> bool:
        """Whether ``stamp`` addresses a dead incarnation of ``dst``,
        counted if so (a transport that does not stamp rejects nothing)."""
        incarnations = self._incarnations
        if incarnations is None or incarnations.get(dst, 0) == stamp:
            return False
        self._dropped_stale.inc()
        return True

    def _deliver(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        msg_id: Optional[int] = None,
        stamp: Optional[int] = None,
    ) -> None:
        """The one way a message reaches a handler, on either wire.

        ``stamp`` (when stamping is on) rejects a copy addressed to a
        dead incarnation of ``dst``; ``msg_id`` (a reliable send) routes
        through the reliability layer, which acks every copy and
        suppresses duplicates.  A plain flooded message carries neither
        and pays the two ``is None`` tests.
        """
        if stamp is not None and self._is_stale(dst, stamp):
            if self._trace is not None:
                self._emit_msg(
                    "msg.dropped", message, dst=dst, reason="stale_incarnation"
                )
            return
        handler = self._handlers.get(dst)
        if handler is None:
            self._drop(dst, message)
            return
        if self._trace is not None:
            self._emit_msg("msg.delivered", message, src=src, dst=dst)
        if msg_id is not None:
            reliability = self.reliability
            if reliability is not None and not reliability.accept(
                src, dst, msg_id
            ):
                return
        handler(src, message)

    def _deliver_ack(
        self, dst: NodeId, msg_id: int, stamp: Optional[int] = None
    ) -> None:
        """Settle the pending reliable send ``msg_id`` at its sender
        ``dst`` — unless ``dst`` restarted since the ack was addressed:
        the pending entry died with the crash, and the reborn sender
        must not read an ack meant for its past."""
        if stamp is not None and self._is_stale(dst, stamp):
            return
        reliability = self.reliability
        if reliability is not None:
            reliability._on_ack(msg_id)


class SimTransport(Transport):
    """Delivers messages between registered nodes with simulated latency."""

    __slots__ = ("_sim", "_latency", "_rng")

    def __init__(
        self,
        sim,
        latency: Optional[LatencyModel] = None,
        monitor: Optional[TrafficMonitor] = None,
        loss_probability: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(
            sim,
            monitor=monitor,
            loss_probability=loss_probability,
            registry=registry,
        )
        self._sim = sim
        self._latency = latency if latency is not None else PairwiseLogNormalLatency()
        self._rng = sim.streams.get("net.latency")

    @property
    def latency(self) -> LatencyModel:
        """The latency model; assignable, e.g. to wrap it in a
        :class:`~repro.net.latency.SpikeLatency` decorator."""
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        self._latency = model

    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        incarnations = self._incarnations
        if incarnations is None:
            args = (src, dst, message)
        else:
            args = (src, dst, message, None, incarnations.get(dst, 0))
        self._post(src, dst, message, self._deliver, args)

    def send_tagged(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        msg_id: int,
        stamp: Optional[int] = None,
    ) -> None:
        self._post(
            src, dst, message, self._deliver, (src, dst, message, msg_id, stamp)
        )

    def send_ack(self, src: NodeId, dst: NodeId, message: Message, msg_id: int) -> None:
        # Stamped with the *sender's* current incarnation (see _deliver_ack).
        self._post(
            src,
            dst,
            message,
            self._deliver_ack,
            (dst, msg_id, self.incarnation_stamp(dst)),
        )

    def close(self) -> None:
        """End the run: unregister every handler and detach the
        reliability layer and the fault injector.

        Handlers are the agents' bound methods and the reliability layer
        points back at this transport, so each is a reference cycle until
        ``close`` breaks it.  Calling it twice is a no-op.  (The live
        transport has its own, asynchronous, shutdown.)
        """
        self._handlers.clear()
        self.reliability = None
        self.faults = None

    def _post(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        callback: Callable,
        args: tuple,
    ) -> None:
        """Route one message to an arbitrary delivery callback.

        The event-queue pushes are inlined (one send per delivered message
        makes the method-call overhead of ``EventQueue.push`` measurable);
        accounting and loss go through the shared :meth:`_account` choke
        point.  Delays from latency models are never negative, so a push
        at ``now + delay`` can never land in the past.
        """
        sim = self._sim
        queue = sim._queue
        if src == dst:
            entry = [sim._now, 0, queue._seq, callback, args]
            queue._seq += 1
            heappush(queue._heap, entry)
            queue._live += 1
            return
        if not self._account(src, dst, message):
            return
        if self._trace is not None:
            # Wrap the delivery so the receive side emits ``net.recv``
            # and restores the causal context; the entry keeps the same
            # (time, seq) ordering, so traced runs replay identically.
            tid, hop, sent_at = self._last_send_ctx
            args = ((tid, hop), sent_at, src, dst, message, callback, args)
            callback = self._traced_dispatch
        if self.faults is not None:
            self._cast(src, dst, callback, args, message)
            return
        delay = self._latency.sample(src, dst, self._rng)
        entry = [sim._now + delay, 0, queue._seq, callback, args]
        queue._seq += 1
        heappush(queue._heap, entry)
        queue._live += 1

    def _cast(
        self,
        src: NodeId,
        dst: NodeId,
        callback: Callable,
        args: tuple,
        message: Message,
    ) -> None:
        """Fault-model path: schedule each copy that survives the
        verdict after its own latency draw."""
        sim = self._sim
        queue = sim._queue
        for _ in range(self._judge(src, dst, message)):
            delay = self._latency.sample(src, dst, self._rng)
            entry = [sim._now + delay, 0, queue._seq, callback, args]
            queue._seq += 1
            heappush(queue._heap, entry)
            queue._live += 1
