"""Unit tests for the slab-backed aggregate grid state."""

import pytest

from repro.grid.state import GridState


def test_register_starts_live_and_idle():
    state = GridState()
    state.register(0)
    state.register(1)
    assert state.live_count == 2
    assert state.idle_live_count == 2
    assert state.is_live(0) and state.is_idle(1)
    assert len(state) == 2


def test_idle_counts_only_live_slots():
    state = GridState()
    for node in range(4):
        state.register(node)
    state.set_idle(1, False)
    assert state.idle_live_count == 3
    state.set_live(1, False)  # busy node crashes: idle count unchanged
    assert state.idle_live_count == 3
    assert state.live_count == 3
    state.set_idle(1, True)  # crash empties its queue while dead
    assert state.idle_live_count == 3  # still not live, still not counted
    state.set_live(1, True)  # restart rejoins idle
    assert state.idle_live_count == 4
    assert state.live_count == 4


def test_set_idle_is_idempotent():
    state = GridState()
    state.register(0)
    state.set_idle(0, True)
    state.set_idle(0, True)
    assert state.idle_live_count == 1
    state.set_idle(0, False)
    state.set_idle(0, False)
    assert state.idle_live_count == 0


def test_membership_version_tracks_live_transitions():
    state = GridState()
    state.register(5)  # sparse id: slots 0..5 exist, only 5 live
    version = state.membership_version
    state.set_idle(5, False)  # idle flips do not invalidate membership
    assert state.membership_version == version
    state.set_live(5, False)
    assert state.membership_version == version + 1
    state.set_live(5, False)  # no-op transition: no bump
    assert state.membership_version == version + 1
    assert state.live_count == 0

