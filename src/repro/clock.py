"""The clock/timer interface shared by the simulator and the live runtime.

The protocol layer (:mod:`repro.core`), the grid executor
(:mod:`repro.grid`) and the workload driver (:mod:`repro.workload`) never
care *which* clock advances time — only that they can read ``now``,
schedule callbacks and draw from named random streams.  :class:`Clock` is
that contract, satisfied structurally by two implementations:

* :class:`repro.sim.Simulator` — the discrete-event kernel, where ``now``
  is virtual time and timers are slab-queue events;
* :class:`repro.runtime.WallClock` — the asyncio runtime, where ``now`` is
  scaled wall-clock time and timers are ``loop.call_later`` handles.

Keeping this module free of any :mod:`repro.sim` import is the point: code
annotated against :class:`Clock` provably runs on either backend.
:class:`Recurrence`, the state behind both clocks' ``every``, is the one
piece of behaviour they share, and it too sees only the contract.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

__all__ = ["Clock", "Recurrence", "TimerHandle"]

#: Opaque handle returned by :meth:`Clock.call_at` / :meth:`Clock.call_after`;
#: pass it back to :meth:`Clock.cancel`.  The simulator returns its slab
#: :class:`~repro.sim.events.Event`, the live runtime an asyncio timer —
#: callers must treat both as opaque.
TimerHandle = Any


@runtime_checkable
class Clock(Protocol):
    """Time, timers and named randomness — the scheduling substrate.

    Semantics every implementation must honour:

    * ``now`` is monotone non-decreasing, in *protocol seconds* (the unit
      all ARiA timing constants are expressed in);
    * callbacks scheduled for the same instant never preempt each other —
      a handler always runs to completion before the next one starts;
    * ``cancel`` of an already-fired or already-cancelled handle is a
      no-op;
    * ``streams`` yields deterministic, seed-derived named RNGs
      (:class:`~repro.sim.rng.RandomStreams` semantics).
    """

    @property
    def now(self) -> float:
        """Current time in protocol seconds."""
        ...

    @property
    def streams(self) -> Any:
        """Named random streams (``streams.get(name) -> random.Random``)."""
        ...

    def call_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        ...

    def call_after(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> TimerHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        ...

    def cancel(self, handle: TimerHandle) -> None:
        """Cancel a scheduled callback (idempotent)."""
        ...

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run ``callback(*args)`` periodically; returns a stop function.

        The first call happens at ``start`` (default: one interval from
        now), then one every ``interval``.  ``until`` is exclusive: no
        call happens at or after it.  Both clocks implement this with
        :class:`Recurrence`.
        """
        ...


class Recurrence:
    """State of one :meth:`Clock.every` schedule, on either clock.

    Written against ``call_at`` / ``cancel`` only.  Each tick runs the
    callback first and then re-arms at the time it was due plus
    ``interval`` — never at "``now`` plus ``interval``", so a wall clock
    that fires late does not drift, and on the simulator (where a tick
    runs exactly when due) the event order and float arithmetic are those
    of scheduling from ``now``.
    """

    __slots__ = (
        "_clock", "_interval", "_callback", "_args", "_until", "_due",
        "_handle", "_stopped",
    )

    def __init__(
        self,
        clock: Clock,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        start: float,
        until: Optional[float],
    ) -> None:
        self._clock = clock
        self._interval = interval
        self._callback = callback
        self._args = args
        self._until = until
        self._handle: TimerHandle = None
        self._stopped = False
        self._arm(start)

    def _fire(self) -> None:
        """One tick: run the callback, then arm the next — also when the
        callback raised, so one bad round on the live wire (where the
        event loop logs the exception and carries on) does not silence a
        node's periodic duties for good.

        The handle is dropped first: the entry running now is no longer
        pending, so a ``stop`` from inside the callback must not cancel
        it."""
        self._handle = None
        try:
            self._callback(*self._args)
        finally:
            self._arm(self._due + self._interval)

    def _arm(self, time: float) -> None:
        """Arm the tick due at ``time`` unless stopped or past ``until``."""
        if self._stopped or (self._until is not None and time >= self._until):
            return
        self._due = time
        self._handle = self._clock.call_at(time, self._fire)

    def stop(self) -> None:
        """Stop the recurrence; safe to call more than once, and from
        inside the callback.

        The callback and its args are dropped: their owner usually holds
        this stop function, and a stopped recurrence must not keep that
        owner alive in a reference cycle."""
        self._stopped = True
        self._callback, self._args = None, ()
        if self._handle is not None:
            self._clock.cancel(self._handle)
            self._handle = None
