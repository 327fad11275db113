"""Round-trip tests for the live wire codec."""

import pytest

from repro.core.messages import Assign, Done, Inform, Probe, Request
from repro.errors import ConfigurationError
from repro.grid.profiles import (
    Architecture,
    JobRequirements,
    OperatingSystem,
)
from repro.net.reliability import Ack
from repro.runtime.codec import (
    _decode_acks,
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
        Done(job_id=42),
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


def test_acks_are_no_envelope_kind():
    # An ack rides the response of the exchange that delivered its
    # message; there is no ack envelope to encode or to POST.
    with pytest.raises(ConfigurationError):
        encode_envelope("ack", 2, 1, Probe(job_id=5, initiator=1), msg_id=5)
    wire = encode_envelope("tagged", 2, 1, Probe(job_id=5, initiator=1), msg_id=5)
    wire["kind"] = "ack"
    with pytest.raises(ConfigurationError):
        decode_envelope(wire)
    # Nor is the Ack a message type the wire carries.
    with pytest.raises(ConfigurationError):
        encode_message(Ack(msg_id=5))
    wire["kind"] = "tagged"
    wire["message"] = {"type": "Ack", "fields": {"msg_id": 5}}
    with pytest.raises(ConfigurationError):
        decode_envelope(wire)


@pytest.mark.parametrize(
    "kind, msg_id", [("tagged", None), ("ack", None), ("send", 7)]
)
def test_envelope_rejects_kind_and_msg_id_that_disagree(kind, msg_id):
    # Delivery acks and dedups on msg_id alone, so a tagged envelope
    # without one — or a plain send with one — must not decode (and
    # "ack" is no kind at all any more).
    wire = encode_envelope("send", 1, 2, Probe(job_id=1, initiator=0))
    wire["kind"] = kind
    if msg_id is not None:
        wire["msg_id"] = msg_id
    with pytest.raises(ConfigurationError):
        decode_envelope(wire)


# ----------------------------------------------------------------------
# The acks a tagged exchange's response carries
# ----------------------------------------------------------------------
TRACE = {"id": "t3", "hop": 2, "sent_at": 1.5}


def test_well_formed_acks_decode_unchanged():
    acks = [[7, None, 0.0, None], [0, 3, 0.25, TRACE], [8, 0, 1, None]]
    assert _decode_acks(acks) == acks
    assert _decode_acks([]) == []


@pytest.mark.parametrize("payload", [{"ok": True}, None, "[]", 7])
def test_an_ack_reply_that_is_no_list_is_rejected(payload):
    with pytest.raises(ConfigurationError):
        _decode_acks(payload)


@pytest.mark.parametrize(
    "entry", [7, [], [7, None, 0.0], [7, None, 0.0, None, 1], {"msg_id": 7}]
)
def test_an_ack_entry_of_the_wrong_shape_is_rejected(entry):
    with pytest.raises(ConfigurationError):
        _decode_acks([entry])


@pytest.mark.parametrize("msg_id", ["7", 7.0, True, None, [7]])
def test_an_ack_whose_msg_id_is_no_int_is_rejected(msg_id):
    with pytest.raises(ConfigurationError):
        _decode_acks([[msg_id, None, 0.0, None]])


@pytest.mark.parametrize("stamp", ["0", 1.5, True, [0]])
def test_an_ack_whose_stamp_is_neither_int_nor_none_is_rejected(stamp):
    with pytest.raises(ConfigurationError):
        _decode_acks([[7, stamp, 0.0, None]])


@pytest.mark.parametrize(
    "delay", ["0", None, True, -0.001, float("nan"), float("inf")]
)
def test_an_ack_whose_delay_is_no_finite_float_at_least_zero_is_rejected(delay):
    with pytest.raises(ConfigurationError):
        _decode_acks([[7, None, delay, None]])


@pytest.mark.parametrize(
    "trace",
    [
        "t3",
        ["t3", 2, 1.5],
        {"id": "t3", "hop": 2},
        dict(TRACE, extra=1),
        dict(TRACE, id=3),
        dict(TRACE, hop="2"),
        dict(TRACE, hop=True),
        dict(TRACE, sent_at="1.5"),
    ],
)
def test_an_ack_whose_trace_is_no_context_is_rejected(trace):
    with pytest.raises(ConfigurationError):
        _decode_acks([[7, None, 0.0, trace]])
