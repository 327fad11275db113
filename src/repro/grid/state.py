"""Slab-backed aggregate grid state, indexed by dense node id.

At the paper's 500 nodes, aggregate probes ("how many live nodes are
idle?") and the submission process ("pick a live initiator") can afford to
walk the agent list.  At 10k–100k nodes those O(nodes) walks dominate:
every submission and every sampler tick re-derives state that only changes
at job start/finish and membership events.

:class:`GridState` replaces the walks with flat byte arrays (one slot per
node id — ids are dense small integers in every experiment path) plus
incrementally maintained counters:

* ``idle[slot]``   — nothing running and an empty queue (mirrors
  :attr:`~repro.grid.node.GridNode.is_idle`);
* ``live[slot]``   — not crashed and not departed (mirrors the agent's
  ``not failed and not departed``);
* ``idle_live_count`` / ``live_count`` — the two sampler probes, O(1);
* ``membership_version`` — bumped whenever a live bit changes, so callers
  (the submission process) can cache the live-agent list and rebuild it
  only on actual membership change.

The slabs are *derived* state: :class:`~repro.grid.node.GridNode` and
:class:`~repro.core.protocol.AriaAgent` remain the source of truth and
push bit updates at their own transition points.  A grid built without a
``GridState`` (unit tests, live runtime) pays a single ``is None`` check.
"""

from __future__ import annotations

from array import array

from ..types import NodeId

__all__ = ["GridState"]


class GridState:
    """Flat per-node state bits with O(1) aggregate counters."""

    __slots__ = (
        "_idle",
        "_live",
        "idle_live_count",
        "live_count",
        "membership_version",
    )

    def __init__(self) -> None:
        self._idle = array("b")
        self._live = array("b")
        self.idle_live_count = 0
        self.live_count = 0
        #: Bumped on every live-bit transition (including registration).
        self.membership_version = 0

    def __len__(self) -> int:
        return len(self._live)

    def _grow_to(self, slot: int) -> None:
        missing = slot + 1 - len(self._live)
        if missing > 0:
            self._idle.extend([0] * missing)
            self._live.extend([0] * missing)

    # ------------------------------------------------------------------
    # Registration and bit updates
    # ------------------------------------------------------------------
    def register(self, node_id: NodeId) -> int:
        """Add (or re-add) a node as live and idle; returns its slot."""
        slot = int(node_id)
        self._grow_to(slot)
        self.set_idle(slot, True)
        self.set_live(slot, True)
        return slot

    def set_idle(self, slot: int, flag: bool) -> None:
        """Update the idle bit; counters move only while the slot is live."""
        value = 1 if flag else 0
        if self._idle[slot] == value:
            return
        self._idle[slot] = value
        if self._live[slot]:
            self.idle_live_count += 1 if value else -1

    def set_live(self, slot: int, flag: bool) -> None:
        """Update the live bit (and the membership version on change)."""
        value = 1 if flag else 0
        if self._live[slot] == value:
            return
        self._live[slot] = value
        self.live_count += 1 if value else -1
        if self._idle[slot]:
            self.idle_live_count += 1 if value else -1
        self.membership_version += 1

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def is_idle(self, slot: int) -> bool:
        """Whether the slot's node is idle (independent of liveness)."""
        return bool(self._idle[slot])

    def is_live(self, slot: int) -> bool:
        """Whether the slot's node is live (not crashed, not departed)."""
        return bool(self._live[slot])
