"""Unit tests for the at-least-once reliability layer."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import FaultPlan, apply_fault_plan
from repro.net import (
    ConstantLatency,
    Message,
    ReliabilityConfig,
    ReliabilityLayer,
    SimTransport,
)
from repro.sim import Simulator


class Ping(Message):
    SIZE_BYTES = 64
    __slots__ = ("tag",)

    def __init__(self, tag: int = 0) -> None:
        self.tag = tag


def make_layer(delay=0.05, seed=1, config=None, loss=0.0):
    sim = Simulator(seed=seed)
    transport = SimTransport(
        sim, latency=ConstantLatency(delay), loss_probability=loss
    )
    layer = ReliabilityLayer(transport, config=config)
    return sim, transport, layer


def test_constructor_attaches_to_transport():
    _, transport, layer = make_layer()
    assert transport.reliability is layer


def test_reliable_send_delivers_once_and_acks():
    sim, transport, layer = make_layer()
    got = []
    transport.register(1, lambda src, msg: None)
    transport.register(2, lambda src, msg: got.append((src, msg.tag)))
    layer.send(1, 2, Ping(7))
    sim.run()
    assert got == [(1, 7)]
    assert layer.delivered == 1
    assert layer.retransmissions == 0
    assert layer.acks_sent == 1
    assert not layer._pending


def test_local_send_bypasses_the_layer():
    sim, transport, layer = make_layer()
    got = []
    transport.register(1, lambda src, msg: got.append(msg.tag))
    layer.send(1, 1, Ping(3))
    sim.run()
    assert got == [3]
    assert layer.acks_sent == 0
    assert layer.delivered == 0


def test_delivery_survives_heavy_loss_exactly_once():
    # 40% i.i.d. transport loss takes out payloads *and* acks.  The
    # guarantee: no message is ever handled twice, and a message can only
    # go missing if the sender exhausted its retry budget (gave up).
    sim, transport, layer = make_layer(loss=0.4)
    got = []
    transport.register(1, lambda src, msg: None)
    transport.register(2, lambda src, msg: got.append(msg.tag))
    count = 200
    for tag in range(count):
        layer.send(1, 2, Ping(tag))
    sim.run()
    assert len(got) == len(set(got))  # never handled twice
    missing = count - len(set(got))
    assert missing <= layer.gave_up
    assert missing < count * 0.05  # the vast majority still arrives
    assert layer.retransmissions > 0
    assert not layer._pending


def test_moderate_loss_delivers_everything():
    sim, transport, layer = make_layer(loss=0.25)
    got = []
    transport.register(1, lambda src, msg: None)
    transport.register(2, lambda src, msg: got.append(msg.tag))
    count = 200
    for tag in range(count):
        layer.send(1, 2, Ping(tag))
    sim.run()
    assert sorted(got) == list(range(count))  # all delivered, none twice
    assert layer.retransmissions > 0
    assert not layer._pending


def test_faulted_duplicates_are_suppressed():
    sim, transport, layer = make_layer()
    apply_fault_plan(transport, FaultPlan(loss=0.0, duplicate=0.9))
    got = []
    transport.register(1, lambda src, msg: None)
    transport.register(2, lambda src, msg: got.append(msg.tag))
    count = 100
    for tag in range(count):
        layer.send(1, 2, Ping(tag))
    sim.run()
    assert sorted(got) == list(range(count))
    assert layer.duplicates_suppressed > 0


def test_dedup_window_forgets_ids_older_than_two_give_up_horizons():
    sim, transport, layer = make_layer()
    horizon = layer.config.give_up_horizon()
    got = []
    transport.register(1, lambda src, msg: None)
    transport.register(2, lambda src, msg: got.append(msg.tag))
    for index in range(10_000):  # spread over 100 horizons
        sim.call_at(index * horizon / 100.0, layer.send, 1, 2, Ping(index))
    sim.run()
    assert got == list(range(10_000))
    window = layer._seen[2]
    first_seen = list(window.values())
    assert first_seen == sorted(first_seen)
    assert first_seen[0] >= first_seen[-1] - 2.0 * horizon
    assert len(window) <= 201
    # A copy of an id still inside the window is suppressed, and acked.
    _, newest_id = next(reversed(window))
    transport.send_tagged(1, 2, Ping(-1), newest_id)
    sim.run()
    assert got[-1] == 9_999
    assert layer.duplicates_suppressed == 1
    assert layer.acks_sent == 10_001


def test_gives_up_after_bounded_retries():
    config = ReliabilityConfig(max_retries=3)
    sim, transport, layer = make_layer(config=config)
    transport.register(1, lambda src, msg: None)
    layer.send(1, 99, Ping())  # nobody home: every copy is dropped
    sim.run()
    assert layer.gave_up == 1
    assert layer.retransmissions == 3
    assert not layer._pending
    # All four attempts were dropped at the unknown destination.
    assert transport.dropped_unknown == 4


def test_give_up_horizon_bounds_the_defaults():
    config = ReliabilityConfig()
    horizon = config.give_up_horizon()
    # Defaults: sum(min(2^k, 30) * 1.5 for k in 0..7) = 181.5 s — must
    # stay below the fault experiments' probe_interval (600 s).
    assert horizon == pytest.approx(181.5)
    assert horizon < 600.0


def test_same_seed_runs_are_deterministic():
    def trace(seed):
        sim, transport, layer = make_layer(seed=seed, loss=0.3)
        got = []
        transport.register(1, lambda src, msg: None)
        transport.register(2, lambda src, msg: got.append((sim.now, msg.tag)))
        for tag in range(50):
            layer.send(1, 2, Ping(tag))
        sim.run()
        return got, layer.retransmissions

    assert trace(5) == trace(5)
    assert trace(5) != trace(6)


def test_unregister_forgets_sender_state():
    sim, transport, layer = make_layer(delay=10.0)
    transport.register(1, lambda src, msg: None)
    transport.register(2, lambda src, msg: None)
    layer.send(1, 2, Ping())
    assert layer._pending
    transport.unregister(1)  # the sender crashes mid-flight
    assert not layer._pending  # no retransmissions from a dead node
    sim.run()
    assert layer.gave_up == 0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ReliabilityConfig(ack_timeout=0.0)
    with pytest.raises(ConfigurationError):
        ReliabilityConfig(max_timeout=0.5)  # below ack_timeout
    with pytest.raises(ConfigurationError):
        ReliabilityConfig(backoff=0.5)
    with pytest.raises(ConfigurationError):
        ReliabilityConfig(max_retries=-1)
    with pytest.raises(ConfigurationError):
        ReliabilityConfig(jitter=-0.1)


def test_counters_shape():
    _, _, layer = make_layer()
    assert layer.counters() == {
        "reliable_delivered": 0,
        "reliable_retransmissions": 0,
        "reliable_acks": 0,
        "reliable_duplicates_suppressed": 0,
        "reliable_gave_up": 0,
        "reliable_pending": 0,
    }
