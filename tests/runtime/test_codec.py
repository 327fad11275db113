"""Round-trip tests for the live wire codec."""

import pytest

from repro.core.messages import Assign, Inform, Probe, Request
from repro.errors import ConfigurationError
from repro.grid.profiles import (
    Architecture,
    JobRequirements,
    OperatingSystem,
)
from repro.net.reliability import Ack
from repro.runtime.codec import (
    decode_envelope,
    decode_message,
    encode_envelope,
    encode_message,
)
from repro.workload.jobs import Job


def make_job(job_id=17):
    return Job(
        job_id=job_id,
        requirements=JobRequirements(
            architecture=Architecture.AMD64,
            memory_gb=2.0,
            disk_gb=10.0,
            os=OperatingSystem.LINUX,
        ),
        ert=3600.0,
        deadline=9000.0,
        submit_time=120.0,
        priority=1,
        not_before=None,
    )


def roundtrip(message):
    return decode_message(encode_message(message))


def test_job_carrying_message_roundtrips():
    request = Request(
        initiator=4, job=make_job(), hops_left=3, broadcast_id=(4, 9)
    )
    decoded = roundtrip(request)
    assert decoded.initiator == request.initiator
    assert decoded.job == request.job
    assert decoded.hops_left == request.hops_left
    assert decoded.broadcast_id == request.broadcast_id
    assert isinstance(decoded.broadcast_id, tuple)  # stays hashable


def test_enum_fields_survive_by_value():
    decoded = roundtrip(
        Request(initiator=0, job=make_job(), hops_left=1, broadcast_id=(0, 0))
    )
    req = decoded.job.requirements
    assert req.architecture is Architecture.AMD64
    assert req.os is OperatingSystem.LINUX


def test_scalar_messages_roundtrip():
    for message in (
        Probe(job_id=5, initiator=1),
        Ack(msg_id=42),
        Assign(initiator=2, job=make_job(7), reschedule=False),
    ):
        decoded = roundtrip(message)
        for slot in message.__slots__:
            assert getattr(decoded, slot) == getattr(message, slot)


def test_unregistered_message_type_refused():
    class Mystery:
        __slots__ = ("x",)

    mystery = Mystery()
    mystery.x = 1
    with pytest.raises(ConfigurationError):
        encode_message(mystery)


def test_unknown_wire_type_refused():
    with pytest.raises(ConfigurationError):
        decode_message({"type": "Nope", "fields": {}})


def test_envelope_roundtrips_routing_metadata():
    inform = Inform(
        assignee=1, job=make_job(3), cost=12.5, hops_left=2,
        broadcast_id=(1, 5),
    )
    envelope = decode_envelope(
        encode_envelope("tagged", 1, 2, inform, msg_id=99, stamp=4)
    )
    assert envelope["kind"] == "tagged"
    assert envelope["src"] == 1
    assert envelope["dst"] == 2
    assert envelope["msg_id"] == 99
    assert envelope["stamp"] == 4
    assert envelope["message"].job == inform.job


def test_envelope_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        encode_envelope("gossip", 1, 2, Probe(job_id=1, initiator=0))
    with pytest.raises(ConfigurationError):
        decode_envelope({"kind": "gossip", "src": 1, "dst": 2})


@pytest.mark.parametrize(
    "kind, msg_id", [("tagged", None), ("ack", None), ("send", 7)]
)
def test_envelope_rejects_kind_and_msg_id_that_disagree(kind, msg_id):
    # Delivery acks and dedups on msg_id alone, so a tagged / ack
    # envelope without one — or a plain send with one — must not decode.
    wire = encode_envelope("send", 1, 2, Probe(job_id=1, initiator=0))
    wire["kind"] = kind
    if msg_id is not None:
        wire["msg_id"] = msg_id
    with pytest.raises(ConfigurationError):
        decode_envelope(wire)
