"""The ARiA protocol: messages, configuration, and per-node agents."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".config": ("AriaConfig",),
    ".journal": ("DurableJournal",),
    ".messages": (
        "Accept", "Assign", "Done", "Inform", "Probe", "ProbeReply",
        "Request", "Track",
    ),
    ".protocol": ("AriaAgent",),
    ".selection": ("select_inform_candidates",),
})
