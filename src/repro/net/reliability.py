"""At-least-once delivery for control-plane-critical messages.

The ARiA data plane (REQUEST/INFORM floods, ACCEPT offers) tolerates loss
by construction: floods are redundant and discovery retries re-broadcast.
The *control plane* does not — a dropped ASSIGN strands a job, a dropped
Track leaves the fail-safe tracking stale, a dropped Done keeps a finished
job tracked forever.  :class:`ReliabilityLayer` gives those messages
datagram-friendly at-least-once semantics:

* every reliable send carries a fresh ``msg_id`` (a header field, like the
  ``broadcast_id`` of flooded messages — covered by the message's fixed
  wire size);
* the receiver acknowledges each copy with a 64-byte :class:`Ack` and
  suppresses duplicate ``msg_id`` deliveries, which makes the protocol
  handlers idempotent under duplicated and reordered delivery;
* the sender retransmits on ack timeout with exponential backoff plus
  jitter (drawn from the dedicated ``"net.reliability"`` stream, so the
  layer is deterministic and never perturbs other streams), giving up
  after ``max_retries`` retransmissions.

Retransmit timers live on the simulator's slab event queue and are lazily
cancelled when the ack arrives, exactly like the protocol's own timeouts.

The bounded retry budget is a *safety* feature, not just an optimisation:
a reliable ASSIGN must be provably dead (given up) before the fail-safe
probing could resubmit the job, or both nodes would execute it.  With the
defaults the worst-case give-up horizon is ``sum(min(1·2^k, 30)·1.5) ≈
180 s`` — far below the fail-safe ``probe_interval`` (600 s by default in
fault experiments).  See ``docs/FAULTS.md`` for the full argument.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ConfigurationError
from ..obs.trace import message_job_id
from ..types import NodeId
from .message import Message
from .transport import Transport

__all__ = ["Ack", "ReliabilityConfig", "ReliabilityLayer"]


class Ack(Message):
    """Per-message acknowledgement of a reliable delivery."""

    SIZE_BYTES = 64
    __slots__ = ("msg_id",)

    def __init__(self, msg_id: int) -> None:
        self.msg_id = msg_id


@dataclass(frozen=True)
class ReliabilityConfig:
    """Retransmission policy of a :class:`ReliabilityLayer`.

    ``ack_timeout`` doubles per attempt (``backoff``) up to ``max_timeout``
    and is stretched by a uniform jitter in ``[0, jitter]`` of itself so
    retransmissions never synchronise.  After ``max_retries``
    retransmissions without an ack the message is abandoned (``gave_up``)
    — recovery is then the fail-safe layer's job.
    """

    ack_timeout: float = 1.0
    backoff: float = 2.0
    max_timeout: float = 30.0
    max_retries: int = 7
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0 or self.max_timeout < self.ack_timeout:
            raise ConfigurationError(
                f"invalid ack timeouts [{self.ack_timeout}, {self.max_timeout}]"
            )
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff {self.backoff} must be >= 1")
        if self.max_retries < 0:
            raise ConfigurationError(f"negative max_retries {self.max_retries}")
        if self.jitter < 0:
            raise ConfigurationError(f"negative jitter {self.jitter}")

    def give_up_horizon(self) -> float:
        """Worst-case seconds from first transmission to giving up."""
        total = 0.0
        for attempt in range(self.max_retries + 1):
            timeout = min(
                self.ack_timeout * self.backoff**attempt, self.max_timeout
            )
            total += timeout * (1.0 + self.jitter)
        return total


class _Pending:
    """One reliable message awaiting its ack.

    ``stamp`` is the destination's incarnation number captured at the
    original send (``None`` while incarnation stamping is disabled).
    Retransmissions reuse it on purpose: a copy of a message composed for
    incarnation *k* must never reach incarnation *k+1*.
    """

    __slots__ = ("src", "dst", "message", "attempt", "timer", "stamp", "sent_at")

    def __init__(
        self,
        src: NodeId,
        dst: NodeId,
        message: Message,
        stamp: Optional[int] = None,
        sent_at: float = 0.0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.message = message
        self.attempt = 0
        self.timer = None
        self.stamp = stamp
        self.sent_at = sent_at


class ReliabilityLayer:
    """Ack/retransmit/dedup layer on top of a :class:`Transport`.

    Constructing the layer attaches it (``transport.reliability = self``);
    the transport then routes tagged deliveries and acks through it.
    """

    def __init__(
        self,
        transport: Transport,
        config: Optional[ReliabilityConfig] = None,
        rng: Optional[random.Random] = None,
        msg_id_base: int = 0,
    ) -> None:
        self.transport = transport
        self.config = config if config is not None else ReliabilityConfig()
        self._clock = transport.clock
        self._rng = (
            rng
            if rng is not None
            else self._clock.streams.get("net.reliability")
        )
        #: msg_ids count up from ``msg_id_base``.  When several layers
        #: share one wire — the process-isolated runtime runs one layer
        #: per OS process — each layer must be given a disjoint id space
        #: (e.g. keyed by worker index and incarnation), or two senders'
        #: ids would collide at a common receiver.
        self._next_id = msg_id_base
        self._pending: Dict[int, _Pending] = {}
        #: Receiver-side dedup state: ``(src, msg_id)`` pairs already
        #: delivered -> when first seen, oldest first (an ``OrderedDict``
        #: because a plain dict's first key is not O(1) to find once
        #: older ones were deleted), per local endpoint (so one layer
        #: serves every node of the grid).  Keying by sender matters once
        #: peers live in other processes: their layers allocate msg_ids
        #: independently, and a bare msg_id from one sender must not
        #: suppress a fresh message from another.
        self._seen: Dict[NodeId, OrderedDict] = {}
        #: How long a dedup entry is kept.  One give-up horizon after a
        #: first copy arrived its sender has abandoned the id, so no
        #: retransmission can follow; the second horizon covers a
        #: duplicated or delay-spiked last copy (docs/FAULTS.md).
        self._dedup_window = 2.0 * self.config.give_up_horizon()
        registry = transport.registry
        self._retransmissions = registry.counter("reliable.retransmissions")
        self._acks_sent = registry.counter("reliable.acks_sent")
        self._delivered = registry.counter("reliable.delivered")
        self._duplicates_suppressed = registry.counter(
            "reliable.duplicates_suppressed"
        )
        self._gave_up = registry.counter("reliable.gave_up")
        #: Send-to-ack round-trip time of confirmed deliveries, in
        #: protocol seconds — the live fleet's end-to-end reliability
        #: latency signal on ``/metrics``.  Buckets sized for both the
        #: simulator (multi-second latency draws) and the compressed live
        #: wall clock (sub-second protocol-time round trips).
        self._ack_rtt = registry.histogram(
            "reliable.ack_rtt",
            buckets=(0.1, 0.5, 2.0, 10.0, 60.0, 300.0, 1800.0),
        )
        #: The transport's tracer (attached to it before this layer is
        #: constructed); ``None`` unless transport-level tracing is on.
        self._trace = transport._trace
        transport.reliability = self

    @property
    def retransmissions(self) -> int:
        """Retransmitted copies sent after ack timeouts."""
        return self._retransmissions.value

    @property
    def acks_sent(self) -> int:
        """Acks sent by receivers (one per tagged delivery)."""
        return self._acks_sent.value

    @property
    def delivered(self) -> int:
        """Reliable sends confirmed by an ack."""
        return self._delivered.value

    @property
    def duplicates_suppressed(self) -> int:
        """Tagged deliveries dropped as already-seen duplicates."""
        return self._duplicates_suppressed.value

    @property
    def gave_up(self) -> int:
        """Reliable sends abandoned after the retry budget ran out."""
        return self._gave_up.value

    def _emit_retry(self, event: str, msg_id: int, pending: _Pending) -> None:
        """Record a retransmission event, annotated with the job when known."""
        fields = {
            "src": pending.src,
            "dst": pending.dst,
            "type": pending.message.__class__.__name__,
            "msg_id": msg_id,
        }
        if event == "retry.sent":
            fields["attempt"] = pending.attempt
        job = message_job_id(pending.message)
        if job is not None:
            fields["job"] = job
        self._trace.emit(event, self._clock.now, **fields)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Send ``message`` with at-least-once semantics.

        Local sends (``src == dst``) bypass the layer entirely: the
        simulated loopback is lossless by construction, so acking it
        would only add events.
        """
        if src == dst:
            self.transport.send(src, dst, message)
            return
        msg_id = self._next_id
        self._next_id += 1
        pending = _Pending(
            src,
            dst,
            message,
            self.transport.incarnation_stamp(dst),
            sent_at=self._clock.now,
        )
        self._pending[msg_id] = pending
        self._transmit(msg_id, pending)

    def _transmit(self, msg_id: int, pending: _Pending) -> None:
        config = self.config
        if pending.attempt and self._trace is not None:
            self._emit_retry("retry.sent", msg_id, pending)
        self.transport.send_tagged(
            pending.src, pending.dst, pending.message, msg_id,
            stamp=pending.stamp,
        )
        timeout = min(
            config.ack_timeout * config.backoff**pending.attempt,
            config.max_timeout,
        )
        if config.jitter:
            timeout *= 1.0 + config.jitter * self._rng.random()
        pending.timer = self._clock.call_after(
            timeout, self._on_timeout, msg_id
        )

    def _on_timeout(self, msg_id: int) -> None:
        pending = self._pending.get(msg_id)
        if pending is None:  # pragma: no cover - timer raced the ack
            return
        if pending.attempt >= self.config.max_retries:
            del self._pending[msg_id]
            self._gave_up.inc()
            if self._trace is not None:
                self._emit_retry("retry.gave_up", msg_id, pending)
            return
        pending.attempt += 1
        self._retransmissions.inc()
        self._transmit(msg_id, pending)

    def _on_ack(self, msg_id: int) -> None:
        pending = self._pending.pop(msg_id, None)
        if pending is None:
            return  # duplicate or late ack: already settled
        if pending.timer is not None:
            self._clock.cancel(pending.timer)
        self._delivered.inc()
        self._ack_rtt.observe(self._clock.now - pending.sent_at)

    # ------------------------------------------------------------------
    # Receiver side (called by Transport._deliver for tagged messages)
    # ------------------------------------------------------------------
    def accept(self, src: NodeId, dst: NodeId, msg_id: int) -> bool:
        """Ack a tagged delivery at ``dst``; ``False`` if it is a duplicate.

        Duplicates are acked too — the payload may have arrived while all
        previous acks were lost, and the sender must stop retransmitting.
        """
        self._acks_sent.inc()
        self.transport.send_ack(dst, src, Ack(msg_id), msg_id)
        seen = self._seen.get(dst)
        if seen is None:
            seen = self._seen[dst] = OrderedDict()
        if (src, msg_id) in seen:
            self._duplicates_suppressed.inc()
            return False
        now = self._clock.now
        seen[(src, msg_id)] = now
        expired = now - self._dedup_window
        # Ends at the entry just added, if not before.
        while seen[next(iter(seen))] < expired:
            seen.popitem(last=False)
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def forget(self, node_id: NodeId) -> None:
        """Drop state tied to a node leaving the grid (crash/departure).

        Outstanding sends *from* the node stop retransmitting — a dead
        node cannot talk — and its dedup window is released.  Sends *to*
        the node keep retrying until the bounded budget runs out, exactly
        like real datagrams chasing a silent host.
        """
        stale = [
            msg_id
            for msg_id, pending in self._pending.items()
            if pending.src == node_id
        ]
        for msg_id in stale:
            pending = self._pending.pop(msg_id)
            if pending.timer is not None:
                self._clock.cancel(pending.timer)
        self._seen.pop(node_id, None)

    def counters(self) -> Dict[str, int]:
        """Layer counters (for ``RunSummary.extras``)."""
        return {
            "reliable_delivered": self.delivered,
            "reliable_retransmissions": self.retransmissions,
            "reliable_acks": self.acks_sent,
            "reliable_duplicates_suppressed": self.duplicates_suppressed,
            "reliable_gave_up": self.gave_up,
            "reliable_pending": len(self._pending),
        }
