"""The ARiA protocol: messages, configuration, and per-node agents."""

from .config import AriaConfig
from .journal import DurableJournal
from .messages import (
    Accept,
    Assign,
    Done,
    Inform,
    Probe,
    ProbeReply,
    Request,
    Track,
)
from .protocol import AriaAgent
from .selection import select_inform_candidates

__all__ = [
    "Accept",
    "AriaAgent",
    "AriaConfig",
    "Assign",
    "Done",
    "DurableJournal",
    "Inform",
    "Probe",
    "ProbeReply",
    "Request",
    "Track",
    "select_inform_candidates",
]
