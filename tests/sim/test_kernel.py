"""Unit tests for the discrete-event kernel."""

import random

import pytest

from repro.errors import SimulationError
from repro.obs import TraceConfig, Tracer
from repro.sim import Simulator
from repro.sim.events import ARGS, is_cancelled


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_call_at_runs_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(12.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [12.5]


def test_call_after_runs_relative_to_now():
    sim = Simulator()
    seen = []

    def first():
        sim.call_after(3.0, lambda: seen.append(sim.now))

    sim.call_at(10.0, first)
    sim.run()
    assert seen == [13.0]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(5.0, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().call_after(-1.0, lambda: None)


def test_run_until_stops_at_boundary_and_advances_clock():
    sim = Simulator()
    seen = []
    sim.call_at(5.0, lambda: seen.append("early"))
    sim.call_at(50.0, lambda: seen.append("late"))
    sim.run_until(20.0)
    assert seen == ["early"]
    assert sim.now == 20.0
    sim.run_until(100.0)
    assert seen == ["early", "late"]


def test_run_until_includes_events_exactly_at_end_time():
    sim = Simulator()
    seen = []
    sim.call_at(20.0, lambda: seen.append("edge"))
    sim.run_until(20.0)
    assert seen == ["edge"]


def test_run_until_in_the_past_raises():
    sim = Simulator()
    sim.call_at(30.0, lambda: None)
    sim.run_until(30.0)
    with pytest.raises(SimulationError):
        sim.run_until(10.0)


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    event = sim.call_at(1.0, lambda: seen.append("x"))
    sim.cancel(event)
    sim.run()
    assert seen == []
    assert sim.pending_events == 0


def test_double_cancel_is_noop():
    sim = Simulator()
    event = sim.call_at(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending_events == 0


def test_stop_halts_run():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: (seen.append(1), sim.stop()))
    sim.call_at(2.0, lambda: seen.append(2))
    sim.run()
    assert seen == [1]
    assert sim.pending_events == 1


def test_every_fires_periodically_until_bound():
    sim = Simulator()
    times = []
    sim.every(10.0, lambda: times.append(sim.now), start=5.0, until=40.0)
    sim.run_until(100.0)
    assert times == [5.0, 15.0, 25.0, 35.0]


def test_every_default_start_is_one_interval_from_now():
    sim = Simulator()
    times = []
    sim.every(2.0, lambda: times.append(sim.now))
    sim.run_until(7.0)
    assert times == [2.0, 4.0, 6.0]


def test_every_stop_function_halts_recurrence():
    sim = Simulator()
    times = []
    stop = sim.every(1.0, lambda: times.append(sim.now))
    sim.call_at(3.5, stop)
    sim.run_until(10.0)
    assert times == [1.0, 2.0, 3.0]


def test_every_stopped_from_its_own_tick_keeps_the_pending_count():
    # The running tick is already off the heap: stopping must not cancel
    # it a second time and count the other event as gone.
    sim = Simulator()
    ticks, later = [], []
    stop = None

    def tick():
        ticks.append(sim.now)
        stop()

    stop = sim.every(1.0, tick)
    sim.call_at(5.0, lambda: later.append(sim.now))
    sim.run_until(1.5)
    assert ticks == [1.0]
    assert sim.pending_events == 1
    sim.run_until(10.0)
    assert ticks == [1.0] and later == [5.0]
    assert sim.pending_events == 0


def test_close_cancels_pending_events_and_stops_recurrences():
    sim = Simulator()
    seen = []
    handle = sim.call_at(5.0, seen.append, "event")
    sim.every(1.0, seen.append, "tick")
    sim.run_until(2.5)
    assert seen == ["tick", "tick"]
    sim.close()
    assert sim.pending_events == 0
    assert is_cancelled(handle) and handle[ARGS] == ()  # no owner kept
    sim.close()  # idempotent
    sim.run_until(10.0)
    assert seen == ["tick", "tick"]
    assert sim.pending_events == 0


def test_every_rejects_non_positive_interval():
    with pytest.raises(SimulationError):
        Simulator().every(0.0, lambda: None)


def test_executed_events_counter():
    sim = Simulator()
    for t in (1.0, 2.0, 3.0):
        sim.call_at(t, lambda: None)
    sim.run()
    assert sim.executed_events == 3


def test_deterministic_event_ordering_same_time():
    sim = Simulator()
    order = []
    for label in "abc":
        sim.call_at(1.0, order.append, label)
    sim.run()
    assert order == ["a", "b", "c"]


def test_priority_orders_same_time_events():
    sim = Simulator()
    order = []
    sim.call_at(1.0, order.append, "low", priority=5)
    sim.call_at(1.0, order.append, "high", priority=-5)
    sim.run()
    assert order == ["high", "low"]


# ----------------------------------------------------------------------
# call_at boundary semantics: scheduling exactly at `now`
# ----------------------------------------------------------------------


def test_call_at_now_is_allowed_before_running():
    sim = Simulator()
    seen = []
    sim.call_at(0.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.0]


def test_call_at_now_from_inside_event_runs_after_current_event():
    """An event scheduled at the current instant cannot preempt its scheduler."""
    sim = Simulator()
    order = []

    def outer():
        sim.call_at(sim.now, order.append, "inner")
        order.append("outer")

    sim.call_at(5.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 5.0


def test_call_at_now_interleaves_by_priority_then_insertion():
    """Same-instant events obey the full (time, priority, seq) tie-break."""
    sim = Simulator()
    order = []

    def outer():
        sim.call_at(sim.now, order.append, "late-insert")
        sim.call_at(sim.now, order.append, "high-priority", priority=-1)

    sim.call_at(1.0, outer)
    sim.call_at(1.0, order.append, "sibling")  # same time, scheduled earlier
    sim.run()
    # priority -1 beats both priority-0 events even though it was scheduled
    # last; among equal priorities the earlier seq ("sibling") wins.
    assert order == ["high-priority", "sibling", "late-insert"]


def test_call_at_now_during_run_until_end_time_still_executes():
    """A same-instant event scheduled at end_time runs before the clock stops."""
    sim = Simulator()
    seen = []
    sim.call_at(10.0, lambda: sim.call_at(10.0, seen.append, "edge"))
    sim.run_until(10.0)
    assert seen == ["edge"]
    assert sim.now == 10.0


def test_call_at_strictly_in_past_still_raises_from_inside_event():
    sim = Simulator()
    errors = []

    def handler():
        try:
            sim.call_at(sim.now - 0.001, lambda: None)
        except SimulationError as exc:
            errors.append(exc)

    sim.call_at(2.0, handler)
    sim.run()
    assert len(errors) == 1


def test_stop_during_run_until_preserves_pending_and_clock():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: (seen.append(1), sim.stop()))
    sim.call_at(2.0, lambda: seen.append(2))
    sim.run_until(5.0)
    assert seen == [1]
    assert sim.pending_events == 1
    assert sim.now == 5.0
    sim.run_until(5.0)
    assert seen == [1, 2]


def _sliced_fuzz_run(traced):
    """One seeded 10k-event schedule (a quarter cancelled, one callback
    stopping the loop) through ``run_until`` in slices."""
    rng = random.Random(0xA51A)
    sim = Simulator()
    tracer = None
    if traced:
        tracer = sim._trace = Tracer(TraceConfig(level="kernel", sink="memory"))
    order = []
    late = []  # events a stop() left behind for the next slice
    stopper = set()  # filled once the survivors are known
    slice_start = 0.0

    def fire(seq, time):
        order.append(seq)
        if time <= slice_start:
            late.append(seq)
        if seq in stopper:
            sim.stop()

    handles = []
    for seq in range(10_000):
        time = rng.choice([rng.uniform(0, 100), float(rng.randrange(0, 20))])
        priority = rng.randrange(-2, 3)
        handles.append(
            (seq, sim.call_at(time, fire, seq, time, priority=priority))
        )
        if rng.random() < 0.25:
            sim.cancel(handles.pop(rng.randrange(len(handles)))[1])
    stopper.add(handles[len(handles) // 2][0])
    after_each_slice = []
    for end in [float(t) for t in range(5, 101, 5)] + [101.0]:
        sim.run_until(end)
        after_each_slice.append(
            (sim.executed_events, sim.pending_events, sim.now)
        )
        slice_start = end
    return order, late, after_each_slice, tracer


def test_fuzz_10k_events_dispatch_the_same_traced_and_untraced():
    """The kernel-traced dispatch (``step()`` per event) is the fast
    loop's equal: same callback order, and after every slice the same
    counters and clock — plus one ``kernel.event`` span per event."""
    order, late, slices, _ = _sliced_fuzz_run(traced=False)
    traced_order, traced_late, traced_slices, tracer = _sliced_fuzz_run(
        traced=True
    )
    assert traced_order == order
    assert traced_late == late and late  # the stop() cut a slice short
    assert traced_slices == slices
    executed, pending, now = slices[-1]
    assert (pending, now) == (0, 101.0)
    assert executed == len(order) == len(set(order)) > 7_000
    spans = tracer.events
    assert [e["ev"] for e in spans] == ["kernel.event"] * executed
    assert all(e["dur_us"] >= 0.0 for e in spans)
