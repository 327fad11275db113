"""JSON wire codec for protocol messages and transport envelopes.

The simulator passes message *objects* between agents; the live runtime
has to put them on an actual wire.  Every registered
:class:`~repro.net.Message` subclass is encoded generically by walking
its ``__slots__`` (the classes are plain slotted records, and their
constructors take the slots in order), with two typed special cases:

* :class:`~repro.workload.jobs.Job` payloads (carried by REQUEST /
  INFORM / ASSIGN) expand into a nested object, their
  :class:`~repro.grid.profiles.JobRequirements` enums serialized by
  value;
* everything else must already be JSON-representable (ints, floats,
  bools, ``None``) — the codec refuses silently lossy encodings.

The envelope wraps one encoded message with its routing metadata —
source, destination, delivery kind (plain / reliability-tagged),
``msg_id`` and incarnation ``stamp`` — the arguments of
:meth:`~repro.net.Transport._deliver`, which is where a decoded envelope
goes.  A tagged envelope's acks come back as the response of the
exchange that delivered it, a list of lean entries checked by
:func:`_decode_acks` before they reach ``_deliver_ack``.

Note the declared ``SIZE_BYTES`` wire sizes stay authoritative for
traffic accounting even live: the JSON encoding is a convenience
format, not a claim about an optimized binary protocol.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Type

from ..core.messages import Accept, Assign, Done, Inform, Probe, ProbeReply, Request, Track
from ..errors import ConfigurationError
from ..grid.profiles import Architecture, JobRequirements, OperatingSystem
from ..net.message import Message
from ..workload.jobs import Job

__all__ = [
    "MESSAGE_TYPES",
    "decode_envelope",
    "decode_job",
    "decode_message",
    "encode_envelope",
    "encode_job",
    "encode_message",
]

#: Every message type the live wire can carry, by class name (not the
#: reliability ``Ack``: it travels as an entry of a response).
MESSAGE_TYPES: Dict[str, Type[Message]] = {
    cls.__name__: cls
    for cls in (Request, Accept, Inform, Assign, Track, Probe, ProbeReply, Done)
}


def encode_job(job: Job) -> Dict[str, Any]:
    """Encode one :class:`~repro.workload.jobs.Job` descriptor.

    Public alongside the message codec because the process-isolated
    runtime submits jobs over the wire too (``POST /submit`` carries a
    bare job, not a protocol message).
    """
    req = job.requirements
    return {
        "job_id": job.job_id,
        "requirements": {
            "architecture": req.architecture.value,
            "memory_gb": req.memory_gb,
            "disk_gb": req.disk_gb,
            "os": req.os.value,
        },
        "ert": job.ert,
        "deadline": job.deadline,
        "submit_time": job.submit_time,
        "priority": job.priority,
        "not_before": job.not_before,
    }


def decode_job(payload: Dict[str, Any]) -> Job:
    """Rebuild a job descriptor from :func:`encode_job` output."""
    req = payload["requirements"]
    return Job(
        job_id=payload["job_id"],
        requirements=JobRequirements(
            architecture=Architecture(req["architecture"]),
            memory_gb=req["memory_gb"],
            disk_gb=req["disk_gb"],
            os=OperatingSystem(req["os"]),
        ),
        ert=payload["ert"],
        deadline=payload["deadline"],
        submit_time=payload["submit_time"],
        priority=payload["priority"],
        not_before=payload["not_before"],
    )


def encode_message(message: Message) -> Dict[str, Any]:
    """Encode one message as ``{"type": ..., "fields": {...}}``."""
    name = message.__class__.__name__
    if name not in MESSAGE_TYPES:
        raise ConfigurationError(f"unregistered message type {name!r}")
    fields: Dict[str, Any] = {}
    for slot in message.__slots__:
        value = getattr(message, slot)
        if isinstance(value, Job):
            fields[slot] = {"__job__": encode_job(value)}
        elif isinstance(value, tuple):
            # e.g. broadcast ids: (origin node, sequence number).  JSON
            # has no tuple, and a plain list would decode as unhashable.
            if not all(
                item is None or isinstance(item, (bool, int, float, str))
                for item in value
            ):
                raise ConfigurationError(
                    f"cannot encode non-scalar tuple in {name}.{slot}"
                )
            fields[slot] = {"__tuple__": list(value)}
        elif value is None or isinstance(value, (bool, int, float, str)):
            fields[slot] = value
        else:
            raise ConfigurationError(
                f"cannot encode field {name}.{slot} of type "
                f"{type(value).__name__}"
            )
    return {"type": name, "fields": fields}


def decode_message(payload: Dict[str, Any]) -> Message:
    """Rebuild a message object from :func:`encode_message` output."""
    cls = MESSAGE_TYPES.get(payload["type"])
    if cls is None:
        raise ConfigurationError(
            f"unknown message type {payload['type']!r} on the wire"
        )
    fields = payload["fields"]
    args = []
    for slot in cls.__slots__:
        value = fields[slot]
        if isinstance(value, dict):
            if "__job__" in value:
                value = decode_job(value["__job__"])
            elif "__tuple__" in value:
                value = tuple(value["__tuple__"])
        args.append(value)
    return cls(*args)


def encode_envelope(
    kind: str,
    src: int,
    dst: int,
    message: Message,
    msg_id: Any = None,
    stamp: Any = None,
    trace: Any = None,
) -> Dict[str, Any]:
    """Wrap one message with its routing metadata.

    ``kind`` is ``"send"`` (plain datagram) or ``"tagged"`` (reliable,
    carries ``msg_id`` and optionally the incarnation ``stamp`` of the
    original transmission; its ack is the exchange's response).

    ``trace`` is the optional causal context — ``{"id", "hop",
    "sent_at"}`` — stamped on the wire when transport-level tracing is
    active, so the receiving process can emit the paired ``net.recv``
    event and continue the sender's trace chain.  Untraced runs omit the
    field entirely (the wire format is unchanged when tracing is off).
    """
    if kind not in ("send", "tagged"):
        raise ConfigurationError(f"unknown envelope kind {kind!r}")
    envelope: Dict[str, Any] = {
        "kind": kind,
        "src": src,
        "dst": dst,
        "message": encode_message(message),
    }
    if msg_id is not None:
        envelope["msg_id"] = msg_id
    if stamp is not None:
        envelope["stamp"] = stamp
    if trace is not None:
        envelope["trace"] = trace
    return envelope


def decode_envelope(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and decode an envelope; ``message`` becomes an object."""
    kind = payload.get("kind")
    if kind not in ("send", "tagged"):
        raise ConfigurationError(f"malformed envelope kind {kind!r}")
    msg_id = payload.get("msg_id")
    if (msg_id is None) != (kind == "send"):
        # The kind and the tag must agree: delivery acks and dedups on
        # msg_id alone.
        raise ConfigurationError(
            f"{kind!r} envelope with msg_id {msg_id!r}"
        )
    return {
        "kind": kind,
        "src": payload["src"],
        "dst": payload["dst"],
        "message": decode_message(payload["message"]),
        "msg_id": msg_id,
        "stamp": payload.get("stamp"),
        "trace": payload.get("trace"),
    }


def _is_ack(entry: Any) -> bool:
    if not (isinstance(entry, list) and len(entry) == 4):
        return False
    msg_id, stamp, delay, trace = entry
    return (
        type(msg_id) is int  # a bool is an int, but no msg_id
        and (stamp is None or type(stamp) is int)
        and type(delay) in (int, float)
        and 0.0 <= delay < math.inf
        and (
            trace is None
            or isinstance(trace, dict)
            and trace.keys() == {"id", "hop", "sent_at"}
            and isinstance(trace["id"], str)
            and type(trace["hop"]) is int
            and type(trace["sent_at"]) in (int, float)
        )
    )


def _decode_acks(payload: Any) -> List[List[Any]]:
    """Validate the acks a tagged exchange's response carries: a list of
    ``[msg_id, stamp, delay, trace]`` — int, int or ``None``, wall
    seconds (finite, ≥ 0), ``None`` or the ``{"id", "hop", "sent_at"}``
    context; anything else raises :class:`ConfigurationError`."""
    if not (isinstance(payload, list) and all(map(_is_ack, payload))):
        raise ConfigurationError(f"malformed ack reply {payload!r}")
    return payload
