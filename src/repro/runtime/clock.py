"""Wall-clock implementation of the :class:`~repro.clock.Clock` protocol.

:class:`WallClock` maps *protocol seconds* — the unit every ARiA timer,
deadline and ERT is expressed in — onto the asyncio event loop's
monotonic clock, compressed by a ``time_scale`` factor: at
``time_scale=300`` one wall second is five protocol minutes, so a paper
scenario spanning hours of protocol time finishes in seconds of wall
time while every relative timer (accept windows, INFORM rounds, probe
intervals) keeps its protocol-time meaning.

Semantics match the simulator where the protocol can observe them:

* ``now`` is monotone non-decreasing (it inherits monotonicity from
  ``loop.time()``);
* callbacks run on the event loop, one at a time — handlers never
  preempt each other, exactly like kernel event dispatch;
* ``cancel`` is idempotent and safe after the timer fired;
* ``streams`` hands out the same seed-derived named RNGs.

The one deliberate divergence: scheduling *at or before* ``now`` is not
an error but fires as soon as possible.  Real time moved while the
caller computed the target — punishing that race would make every
``call_at(now + x)`` fragile — whereas the simulator's frozen ``now``
makes a past target a genuine bug worth raising on.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from ..clock import Recurrence
from ..errors import ConfigurationError
from ..sim.rng import RandomStreams

__all__ = ["WallClock"]


class WallClock:
    """Protocol-seconds clock over an asyncio event loop.

    ``time_scale`` is the compression factor: protocol seconds per wall
    second.  ``1.0`` runs in real time; the live scenario defaults use a
    few hundred so paper timescales (hours) fit a CI smoke job
    (seconds).
    """

    def __init__(
        self,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        seed: int = 0,
        time_scale: float = 1.0,
        start_at: float = 0.0,
    ) -> None:
        if time_scale <= 0:
            raise ConfigurationError(f"time_scale {time_scale} must be > 0")
        if start_at < 0:
            raise ConfigurationError(f"negative start_at {start_at}")
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                raise ConfigurationError(
                    "WallClock must be constructed inside a running event "
                    "loop (or be handed one explicitly)"
                ) from None
        self._loop = loop
        self.time_scale = time_scale
        # ``start_at`` shifts protocol time so ``now`` starts there
        # instead of at 0 — a process worker restarted mid-run resumes on
        # the fleet's shared timeline, so its trace timestamps and timer
        # arithmetic line up with peers that never died.
        self._origin = self._loop.time() - start_at / time_scale
        self.streams = RandomStreams(seed)
        #: Fired timer callbacks (the live analogue of the simulator's
        #: executed-events count surfaced in run summaries).
        self.executed_events = 0
        self._stopped = False

    # ------------------------------------------------------------------
    # Clock protocol
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Elapsed protocol seconds since the clock was created."""
        return (self._loop.time() - self._origin) * self.time_scale

    def call_at(self, time: float, callback: Callable, *args, priority: int = 0):
        """Run ``callback(*args)`` at protocol time ``time``.

        A target at or before ``now`` fires as soon as possible (see the
        module docstring); ``priority`` is accepted for interface parity
        but real time has no same-instant ordering to refine.
        """
        wall_delay = max(0.0, (time - self.now) / self.time_scale)
        return self._loop.call_later(wall_delay, self._run, callback, args)

    def call_after(self, delay: float, callback: Callable, *args, priority: int = 0):
        """Run ``callback(*args)`` after ``delay`` protocol seconds."""
        if delay < 0:
            raise ConfigurationError(f"negative delay {delay}")
        return self._loop.call_later(
            delay / self.time_scale, self._run, callback, args
        )

    def cancel(self, handle) -> None:
        """Cancel a pending timer (idempotent, safe after firing)."""
        handle.cancel()

    def every(
        self,
        interval: float,
        callback: Callable,
        *args,
        start: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Callable[[], None]:
        """Run ``callback(*args)`` every ``interval`` protocol seconds.

        Returns a zero-argument stop function; ``until`` is exclusive,
        like :meth:`~repro.sim.Simulator.every`.
        """
        if interval <= 0:
            raise ConfigurationError(f"non-positive interval {interval}")
        first = self.now + interval if start is None else start
        return Recurrence(self, interval, callback, args, first, until).stop

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Silence the clock: every timer still pending never fires.

        Used at the end of a live run so periodic protocol loops cannot
        outlive the scenario while in-flight HTTP deliveries drain.
        """
        self._stopped = True

    def _run(self, callback: Callable, args: tuple) -> None:
        if self._stopped:
            return
        self.executed_events += 1
        callback(*args)
