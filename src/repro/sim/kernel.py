"""The discrete-event simulation kernel.

The paper evaluates ARiA inside "a custom simulator reproducing realistic
round-trip delays" (§IV-A).  :class:`Simulator` is that substrate: a classic
event-list kernel with a virtual clock, deterministic event ordering and
named random streams (see :mod:`repro.sim.rng`).

Typical usage::

    sim = Simulator(seed=42)
    sim.call_at(10.0, handler, payload)
    sim.call_after(5.0, other_handler)
    sim.run_until(3600.0)

Ordering semantics
------------------
Events execute in ``(time, priority, insertion order)`` order: earlier
times first, then lower ``priority`` values, then first-scheduled-first.
Scheduling *exactly at* ``now`` is allowed — the event runs after the one
currently executing (it cannot preempt), interleaved with any other
events at the same instant per the tie-break above.  Scheduling strictly
in the past raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Optional

from ..clock import Recurrence
from ..errors import SimulationError
from .events import CALLBACK, Event, EventQueue
from .rng import RandomStreams

__all__ = ["Simulator"]


def _callback_name(callback: Callable[..., Any]) -> str:
    """Readable identity of an event callback for kernel trace spans."""
    name = getattr(callback, "__qualname__", None)
    return name if name is not None else repr(callback)


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed.  Every named random stream obtained through
        :attr:`streams` derives from it, so a ``Simulator(seed=s)`` replays
        identically.
    """

    __slots__ = (
        "_queue",
        "_now",
        "_stopped",
        "streams",
        "seed",
        "executed_events",
        "_trace",
    )

    def __init__(self, seed: int = 0) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._stopped = False
        self.streams = RandomStreams(seed)
        self.seed = seed
        #: Number of events executed so far (useful for performance reports).
        self.executed_events = 0
        #: Optional :class:`~repro.obs.Tracer`, attached only when
        #: kernel-level tracing is active; the dispatch loop is untouched
        #: when ``None`` (one branch per ``run_until`` call).
        self._trace = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        ``time == now`` is valid: the event runs at the current instant,
        *after* the currently executing event returns, ordered against
        other same-time events by ``(priority, insertion order)``.  Times
        strictly before ``now`` raise :class:`SimulationError`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} < now={self._now:.6f}"
            )
        return self._queue.push(time, callback, args, priority)

    def call_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self._now + delay, callback, args, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event; cancelling twice is a no-op."""
        self._queue.cancel(event)

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run ``callback(*args)`` periodically.

        Returns a zero-argument function that stops the recurrence when
        called.  The first call happens at ``start`` (default: one interval
        from now); no call is scheduled at or after ``until``.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        first = self._now + interval if start is None else start
        return Recurrence(self, interval, callback, args, first, until).stop

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` if none remained."""
        entry = self._queue.pop()
        if entry is None:
            return False
        self._now = entry[0]
        self.executed_events += 1
        if self._trace is None:
            entry[3](*entry[4])
            return True
        # Kernel tracing: the event runs under a wall-clock span, so
        # Perfetto shows where the time goes.
        start = time.perf_counter()
        entry[3](*entry[4])
        duration = time.perf_counter() - start
        self._trace.emit(
            "kernel.event",
            entry[0],
            name=_callback_name(entry[3]),
            wall_us=start * 1e6,
            dur_us=duration * 1e6,
        )
        return True

    def run_until(self, end_time: float) -> None:
        """Run events up to and including ``end_time``, then set now there.

        The clock always lands exactly on ``end_time`` so that periodic
        samplers and scenario phases line up between runs.
        """
        if end_time < self._now:
            raise SimulationError(
                f"end_time {end_time:.6f} is in the past (now={self._now:.6f})"
            )
        self._stopped = False
        if self._trace is not None:
            # :meth:`step` records each event's span; the loop below
            # stays branch-free for untraced runs.
            peek_time = self._queue.peek_time
            while not self._stopped:
                next_time = peek_time()
                if next_time is None or next_time > end_time:
                    break
                self.step()
            self._now = max(self._now, end_time)
            return
        # Batched dispatch: hoist the heap, pop and counter into locals so
        # the per-event cost is a handful of C-level operations.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        executed = self.executed_events
        while heap:
            entry = heap[0]
            if entry[0] > end_time:
                break
            entry = heappop(heap)
            callback = entry[3]
            if callback is None:  # lazily cancelled
                continue
            queue._live -= 1
            self._now = entry[0]
            executed += 1
            self.executed_events = executed
            callback(*entry[4])
            if self._stopped:
                break
        self._now = max(self._now, end_time)

    def run(self) -> None:
        """Run until the event queue drains (or :meth:`stop` is called)."""
        self._stopped = False
        while not self._stopped and self.step():
            pass

    def stop(self) -> None:
        """Stop :meth:`run`/:meth:`run_until` after the current event."""
        self._stopped = True

    def close(self) -> None:
        """End the run: cancel every pending event and stop every
        recurrence whose tick was pending.

        A pending entry holds its owner's bound method and the owner
        holds this clock, so a finished grid is one reference cycle per
        owner until ``close`` breaks them; after it the grid is freed by
        reference counting.  Calling it twice is a no-op.
        """
        queue = self._queue
        for entry in queue._heap:
            owner = getattr(entry[CALLBACK], "__self__", None)
            if owner.__class__ is Recurrence:
                owner.stop()
            queue.cancel(entry)
        queue._heap.clear()

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still scheduled."""
        return len(self._queue)
