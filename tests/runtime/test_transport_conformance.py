"""One behavioral contract, two wires.

Every test here runs twice — once over the simulated transport, once
over the live HTTP transport — through a tiny backend driver that hides
only *how* messages move (event queue vs. localhost sockets) and *how*
time passes (``sim.run()`` vs. awaited wall time).  The assertions are
identical, which is the point: delivery, drop accounting, incarnation
staleness and reliability semantics are properties of the
:class:`~repro.net.Transport` contract, not of a backend.
"""

import asyncio

import pytest

from repro.experiments import FaultPlan, apply_fault_plan
from repro.net import ConstantLatency, Message, SimTransport, Transport
from repro.net.reliability import ReliabilityConfig, ReliabilityLayer
from repro.runtime import LiveTransport, WallClock
from repro.runtime.codec import MESSAGE_TYPES
from repro.sim import Simulator


class Ping(Message):
    SIZE_BYTES = 64
    __slots__ = ("tag",)

    def __init__(self, tag: str = "") -> None:
        self.tag = tag


@pytest.fixture(autouse=True)
def _ping_on_the_wire():
    """Let the live codec carry the test message type."""
    MESSAGE_TYPES["Ping"] = Ping
    yield
    MESSAGE_TYPES.pop("Ping", None)


#: Reliability policy quick enough for a test, lazy enough that a
#: localhost round-trip never triggers a spurious retransmission.
RELIABILITY = ReliabilityConfig(
    ack_timeout=5.0, backoff=2.0, max_timeout=20.0, max_retries=3
)


class SimBackend:
    """Drives the conformance scenario over the discrete-event kernel."""

    name = "sim"

    async def __aenter__(self):
        self.sim = Simulator(seed=11)
        self.transport = SimTransport(
            self.sim, latency=ConstantLatency(0.01)
        )
        return self

    async def __aexit__(self, *exc):
        return False

    def set_loss(self, probability):
        self.transport.loss_probability = probability

    async def ready(self, *node_ids):
        """Bring the named endpoints up (a no-op in-process)."""

    async def settle(self):
        """Let every in-flight delivery (and timer) run to quiescence."""
        self.sim.run()


class LiveBackend:
    """Drives the same scenario over real localhost HTTP servers."""

    name = "live"

    async def __aenter__(self):
        loop = asyncio.get_running_loop()
        self.clock = WallClock(loop, seed=11, time_scale=1.0)
        self.transport = LiveTransport(self.clock, loop=loop, send_timeout=2.0)
        return self

    async def __aexit__(self, *exc):
        self.clock.stop()
        await self.transport.drain()
        await self.transport.close()
        return False

    def set_loss(self, probability):
        self.transport.loss_probability = probability

    async def ready(self, *node_ids):
        for node_id in node_ids:
            await self.transport.add_endpoint(node_id)
        await self.transport.discover()

    async def settle(self):
        # Handlers and retransmission timers may send follow-ups, so
        # drain repeatedly until a full idle pass.
        for _ in range(100):
            await self.transport.drain()
            await asyncio.sleep(0.01)
            if not self.transport._in_flight:
                return
        raise AssertionError("live transport never went quiet")


BACKENDS = [SimBackend, LiveBackend]


def both(test):
    """Run an async conformance case against every backend."""
    test = pytest.mark.parametrize(
        "backend_cls", BACKENDS, ids=[b.name for b in BACKENDS]
    )(test)
    return test


def drive(case, backend_cls):
    async def main():
        async with backend_cls() as backend:
            await case(backend)

    asyncio.run(main())


# ----------------------------------------------------------------------
# Delivery and accounting
# ----------------------------------------------------------------------
@both
def test_send_delivers_and_accounts(backend_cls):
    async def case(backend):
        transport = backend.transport
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append((src, msg.tag)))
        await backend.ready(1, 2)
        transport.send(1, 2, Ping("hello"))
        await backend.settle()
        assert got == [(1, "hello")]
        assert transport.monitor.bytes_by_type == {"Ping": Ping.SIZE_BYTES}
        assert transport.monitor.count_by_type == {"Ping": 1}

    drive(case, backend_cls)


@both
def test_local_send_is_asynchronous_and_free(backend_cls):
    async def case(backend):
        transport = backend.transport
        got = []
        transport.register(1, lambda src, msg: got.append(src))
        await backend.ready(1)
        transport.send(1, 1, Ping())
        assert got == []  # never delivered synchronously
        await backend.settle()
        assert got == [1]
        assert transport.monitor.total_bytes == 0

    drive(case, backend_cls)


@both
def test_unknown_destination_counts_dropped_unknown(backend_cls):
    async def case(backend):
        transport = backend.transport
        transport.register(1, lambda src, msg: None)
        await backend.ready(1)
        transport.send(1, 99, Ping())
        await backend.settle()
        assert transport.dropped_unknown == 1
        assert transport.dropped_detached == 0
        assert transport.network_counters()["dropped_unknown"] == 1

    drive(case, backend_cls)


@both
def test_detached_destination_counts_dropped_detached(backend_cls):
    async def case(backend):
        transport = backend.transport
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg))
        await backend.ready(1, 2)
        transport.unregister(2)
        transport.send(1, 2, Ping())
        await backend.settle()
        assert got == []
        assert transport.dropped_detached == 1
        assert transport.network_counters()["dropped_detached"] == 1

    drive(case, backend_cls)


@both
def test_loss_probability_loses_but_accounts(backend_cls):
    async def case(backend):
        transport = backend.transport
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg))
        await backend.ready(1, 2)
        backend.set_loss(0.5)
        for _ in range(40):
            transport.send(1, 2, Ping())
        await backend.settle()
        assert transport.lost > 0
        assert len(got) + transport.lost == 40
        # Lost messages were still sent: accounting is send-side.
        assert transport.monitor.count_by_type["Ping"] == 40

    drive(case, backend_cls)


# ----------------------------------------------------------------------
# Fault injection: the same FaultInjector shapes either wire
# ----------------------------------------------------------------------
@both
def test_zero_probability_injector_is_transparent(backend_cls):
    async def case(backend):
        transport = backend.transport
        apply_fault_plan(transport, FaultPlan(loss=0.0, duplicate=0.0))
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg.tag))
        await backend.ready(1, 2)
        for n in range(20):
            transport.send(1, 2, Ping(str(n)))
        await backend.settle()
        # Every message travelled the faulted path and none were touched.
        assert sorted(got, key=int) == [str(n) for n in range(20)]
        counters = transport.network_counters()
        assert counters["fault_iid_lost"] == 0
        assert counters["fault_burst_lost"] == 0
        assert counters["fault_partition_dropped"] == 0
        assert counters["fault_duplicated"] == 0
        assert transport.lost == 0

    drive(case, backend_cls)


@both
def test_injected_loss_accounts_on_either_wire(backend_cls):
    async def case(backend):
        transport = backend.transport
        apply_fault_plan(transport, FaultPlan(loss=0.5, duplicate=0.0))
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg))
        await backend.ready(1, 2)
        for _ in range(40):
            transport.send(1, 2, Ping())
        await backend.settle()
        assert transport.lost > 0
        assert len(got) + transport.lost == 40
        counters = transport.network_counters()
        assert counters["fault_iid_lost"] == transport.lost
        # Fault losses are send-side: accounting happened regardless.
        assert transport.monitor.count_by_type["Ping"] == 40

    drive(case, backend_cls)


@both
def test_injected_duplication_delivers_copies_on_either_wire(backend_cls):
    async def case(backend):
        transport = backend.transport
        apply_fault_plan(transport, FaultPlan(loss=0.0, duplicate=0.9))
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg))
        await backend.ready(1, 2)
        for _ in range(40):
            transport.send(1, 2, Ping())
        await backend.settle()
        duplicated = transport.network_counters()["fault_duplicated"]
        assert duplicated > 0
        assert len(got) == 40 + duplicated

    drive(case, backend_cls)


@both
def test_delay_spikes_delay_but_never_lose(backend_cls):
    async def case(backend):
        transport = backend.transport
        apply_fault_plan(
            transport,
            FaultPlan(
                loss=0.0,
                duplicate=0.0,
                delay_spike=0.5,
                delay_spike_mean=0.02,
            ),
        )
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg))
        await backend.ready(1, 2)
        for _ in range(20):
            transport.send(1, 2, Ping())
        await backend.settle()
        assert len(got) == 20
        assert transport.lost == 0

    drive(case, backend_cls)


# ----------------------------------------------------------------------
# Incarnation staleness
# ----------------------------------------------------------------------
@both
def test_stale_incarnation_stamp_is_rejected(backend_cls):
    async def case(backend):
        transport = backend.transport
        ReliabilityLayer(transport, RELIABILITY)
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg.tag))
        await backend.ready(1, 2)
        transport.enable_incarnations()
        transport.bump_incarnation(2)  # node 2 restarted: incarnation 1
        # A copy stamped before the restart must die on arrival ...
        transport.send_tagged(1, 2, Ping("stale"), msg_id=7, stamp=0)
        # ... while a copy addressed to the current incarnation lands.
        transport.send_tagged(1, 2, Ping("fresh"), msg_id=8, stamp=1)
        await backend.settle()
        assert got == ["fresh"]
        assert transport.dropped_stale == 1
        counters = transport.network_counters()
        assert counters["dropped_stale"] == 1
        # The stale copy is not acked either: the reborn node never saw it.
        assert counters["reliable_acks"] == 1

    drive(case, backend_cls)


@both
def test_ack_to_a_restarted_sender_is_stale_and_settles_nothing(backend_cls):
    async def case(backend):
        transport = backend.transport
        # No retransmission, so the one ack is the only way to settle.
        reliability = ReliabilityLayer(
            transport,
            ReliabilityConfig(ack_timeout=5.0, max_timeout=5.0, max_retries=0),
        )
        got = []

        def receive(src, msg):
            # The ack is already on its way back (acks precede the
            # handler); the sender restarts before it lands.
            got.append(msg.tag)
            transport.bump_incarnation(1)

        transport.register(1, lambda src, msg: None)
        transport.register(2, receive)
        await backend.ready(1, 2)
        transport.enable_incarnations()
        reliability.send(1, 2, Ping("once"))
        await backend.settle()
        assert got == ["once"]
        counters = transport.network_counters()
        assert counters["reliable_acks"] == 1
        assert counters["dropped_stale"] == 1
        assert counters["reliable_delivered"] == 0
        # Unsettled: still waiting on the live wire, abandoned once the
        # simulator has run its ack timer out.
        assert counters["reliable_pending"] + counters["reliable_gave_up"] == 1

    drive(case, backend_cls)


@both
def test_incarnation_stamp_reflects_current_incarnation(backend_cls):
    async def case(backend):
        transport = backend.transport
        assert transport.incarnation_stamp(2) is None  # stamping off
        transport.enable_incarnations()
        assert transport.incarnation_stamp(2) == 0
        assert transport.bump_incarnation(2) == 1
        assert transport.incarnation_stamp(2) == 1

    drive(case, backend_cls)


# ----------------------------------------------------------------------
# Reliability layer (acks, dedup) over either wire
# ----------------------------------------------------------------------
@both
def test_reliable_send_delivers_once_and_settles(backend_cls):
    async def case(backend):
        transport = backend.transport
        reliability = ReliabilityLayer(transport, RELIABILITY)
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg.tag))
        await backend.ready(1, 2)
        reliability.send(1, 2, Ping("once"))
        await backend.settle()
        assert got == ["once"]
        counters = transport.network_counters()
        assert counters["reliable_delivered"] == 1
        assert counters["reliable_acks"] == 1
        assert counters["reliable_pending"] == 0
        assert counters["reliable_gave_up"] == 0

    drive(case, backend_cls)


@both
def test_duplicate_tagged_delivery_is_suppressed(backend_cls):
    async def case(backend):
        transport = backend.transport
        ReliabilityLayer(transport, RELIABILITY)
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg.tag))
        await backend.ready(1, 2)
        # The same (src, msg_id) arriving twice — a retransmitted copy —
        # must reach the handler exactly once.
        transport.send_tagged(1, 2, Ping("dup"), msg_id=5)
        transport.send_tagged(1, 2, Ping("dup"), msg_id=5)
        await backend.settle()
        assert got == ["dup"]
        counters = transport.network_counters()
        assert counters["reliable_duplicates_suppressed"] == 1

    drive(case, backend_cls)


# ----------------------------------------------------------------------
# Reliable sends under faults: the ack is judged like any message, on
# the simulator's modelled ack and on the live response alike
# ----------------------------------------------------------------------
#: Short, flat retransmission timers with a deep budget: an attempt
#: needs the message *and* its ack through, so at 50 % loss three in
#: four attempts fail, and 0.75 ** 41 leaves giving up out of reach.
PERSISTENT = ReliabilityConfig(
    ack_timeout=0.05, backoff=1.0, max_timeout=0.05, max_retries=40, jitter=0.0
)


async def settle_reliable(backend):
    """Settle, then keep settling while retransmission timers (which
    the live wire's task drain does not see) still have work to do."""
    for _ in range(500):
        await backend.settle()
        if backend.transport.network_counters()["reliable_pending"] == 0:
            return
        await asyncio.sleep(0.01)
    raise AssertionError("reliable sends never settled")


def reliable_case(plan, config, sends=20):
    """Send ``sends`` reliable Pings 1 -> 2 under ``plan``; returns the
    tags the handler saw and the transport's counters."""

    async def run(backend):
        transport = backend.transport
        apply_fault_plan(transport, plan)
        reliability = ReliabilityLayer(transport, config)
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append(msg.tag))
        await backend.ready(1, 2)
        for n in range(sends):
            reliability.send(1, 2, Ping(str(n)))
        await settle_reliable(backend)
        return got, transport.network_counters()

    return run


@both
def test_reliable_sends_survive_heavy_loss_exactly_once(backend_cls):
    async def case(backend):
        got, counters = await reliable_case(
            FaultPlan(loss=0.5, duplicate=0.0), PERSISTENT
        )(backend)
        assert sorted(got, key=int) == [str(n) for n in range(20)]
        assert counters["reliable_retransmissions"] > 0
        # Lost acks too: copies of delivered messages came again.
        assert counters["reliable_duplicates_suppressed"] > 0
        assert counters["reliable_delivered"] == 20
        assert counters["reliable_gave_up"] == 0
        assert counters["reliable_pending"] == 0

    drive(case, backend_cls)


@both
def test_duplicated_acks_settle_nothing_twice(backend_cls, monkeypatch):
    arrived = []
    deliver_ack = Transport._deliver_ack

    def counted(self, dst, msg_id, stamp=None):
        arrived.append(msg_id)
        deliver_ack(self, dst, msg_id, stamp)

    monkeypatch.setattr(Transport, "_deliver_ack", counted)

    async def case(backend):
        got, counters = await reliable_case(
            FaultPlan(loss=0.0, duplicate=0.9), RELIABILITY
        )(backend)
        assert sorted(got, key=int) == [str(n) for n in range(20)]
        # Every copy of a message is acked, and acks are copied too ...
        acks = counters["reliable_acks"]
        copied_messages = acks - 20
        assert copied_messages == counters["reliable_duplicates_suppressed"] > 0
        copied_acks = counters["fault_duplicated"] - copied_messages
        assert len(arrived) == acks + copied_acks > acks
        # ... yet each send is confirmed once.
        assert counters["reliable_delivered"] == 20
        assert counters["reliable_retransmissions"] == 0
        assert counters["reliable_pending"] == 0

    drive(case, backend_cls)


@both
def test_delay_spiked_reliable_sends_all_settle(backend_cls):
    async def case(backend):
        got, counters = await reliable_case(
            FaultPlan(
                loss=0.0, duplicate=0.0, delay_spike=0.5, delay_spike_mean=0.02
            ),
            RELIABILITY,
        )(backend)
        assert sorted(got, key=int) == [str(n) for n in range(20)]
        assert counters["reliable_delivered"] == 20
        assert counters["reliable_pending"] == 0
        assert counters["lost"] == 0

    drive(case, backend_cls)


@both
def test_an_ack_takes_its_own_latency(backend_cls):
    async def case(backend):
        transport = backend.transport
        transport.latency = ConstantLatency(0.05)
        reliability = ReliabilityLayer(transport, RELIABILITY)
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: None)
        await backend.ready(1, 2)
        reliability.send(1, 2, Ping())
        await settle_reliable(backend)
        assert reliability.delivered == 1
        # There and back: the message's delay, then the ack's own.
        assert reliability._ack_rtt.min >= 0.1 - 1e-9

    drive(case, backend_cls)
