"""Unit tests for the wall-clock implementation of the Clock protocol."""

import asyncio

import pytest

from repro.errors import ConfigurationError
from repro.runtime import WallClock
from repro.sim import Simulator


def in_loop(coro_fn):
    """Run an async test body in a fresh event loop."""
    return asyncio.run(coro_fn())


def test_time_scale_compresses_protocol_time():
    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, time_scale=100.0)
        before = clock.now
        await asyncio.sleep(0.05)
        elapsed = clock.now - before
        # 0.05 wall seconds at scale 100 ~= 5 protocol seconds.
        assert 2.0 < elapsed < 60.0

    in_loop(main)


def test_call_after_fires_in_scaled_wall_time():
    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, time_scale=100.0)
        fired = []
        clock.call_after(2.0, fired.append, "a")  # 20 ms wall
        await asyncio.sleep(0.005)
        assert fired == []  # not yet: the delay is real
        await asyncio.sleep(0.1)
        assert fired == ["a"]
        assert clock.executed_events == 1

    in_loop(main)


def test_call_at_past_target_fires_soon_instead_of_raising():
    # Documented divergence from the simulator (which raises): real time
    # has already passed, so the best a live clock can do is "now".
    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, time_scale=1000.0)
        await asyncio.sleep(0.01)
        fired = []
        clock.call_at(0.0, fired.append, "late")
        await asyncio.sleep(0.02)
        assert fired == ["late"]

    in_loop(main)


def test_cancel_prevents_firing():
    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, time_scale=100.0)
        fired = []
        handle = clock.call_after(1.0, fired.append, "x")
        clock.cancel(handle)
        clock.cancel(handle)  # idempotent
        await asyncio.sleep(0.05)
        assert fired == []

    in_loop(main)


def test_every_recurs_until_stopped():
    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, time_scale=100.0)
        ticks = []
        stop = clock.every(1.0, lambda: ticks.append(clock.now))  # 10 ms wall
        await asyncio.sleep(0.06)
        stop()
        count = len(ticks)
        assert count >= 2
        await asyncio.sleep(0.04)
        assert len(ticks) == count  # stopped means stopped

    in_loop(main)


def test_every_outlives_a_raising_callback():
    # The event loop logs a timer callback's exception and carries on; so
    # must the recurrence, or one bad INFORM round silences a live node.
    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda loop, context: None)
        clock = WallClock(loop, time_scale=100.0)
        ticks = []

        def flaky():
            ticks.append(clock.now)
            if len(ticks) == 1:
                raise RuntimeError("one bad round")

        stop = clock.every(1.0, flaky)  # 10 ms wall
        await asyncio.sleep(0.08)
        stop()
        assert len(ticks) >= 2

    in_loop(main)


def drive_simulator(arm):
    sim = Simulator()
    arm(sim)
    sim.run_until(15.0)


def drive_wall_clock(arm):
    async def main():
        arm(WallClock(asyncio.get_running_loop(), time_scale=100.0))
        await asyncio.sleep(0.15)  # 15 protocol seconds

    in_loop(main)


@pytest.mark.parametrize(
    "drive", [drive_simulator, drive_wall_clock], ids=["sim", "wall"]
)
def test_every_until_is_exclusive_and_stop_works_inside_the_callback(drive):
    # One Recurrence serves both clocks, so one test does: ticks are due
    # at 2, 3 and 4; the one due *at* ``until`` never happens.
    ticks, seen = [], []

    def arm(clock):
        clock.every(1.0, ticks.append, "tick", start=2.0, until=5.0)

        def stop_at_the_second():
            seen.append(clock.now)
            if len(seen) == 2:
                stop()

        stop = clock.every(1.0, stop_at_the_second, start=2.0)

    drive(arm)
    assert ticks == ["tick"] * 3
    assert len(seen) == 2 and 2.0 <= seen[0] < seen[1]


def test_stop_silences_pending_timers():
    async def main():
        loop = asyncio.get_running_loop()
        clock = WallClock(loop, time_scale=100.0)
        fired = []
        clock.call_after(0.5, fired.append, "never")
        clock.stop()
        await asyncio.sleep(0.03)
        assert fired == []
        assert clock.executed_events == 0

    in_loop(main)


def test_streams_are_deterministic_per_seed():
    async def main():
        loop = asyncio.get_running_loop()
        a = WallClock(loop, seed=42)
        b = WallClock(loop, seed=42)
        assert [a.streams.get("x").random() for _ in range(5)] == [
            b.streams.get("x").random() for _ in range(5)
        ]

    in_loop(main)


def test_validation():
    async def main():
        loop = asyncio.get_running_loop()
        with pytest.raises(ConfigurationError):
            WallClock(loop, time_scale=0.0)
        clock = WallClock(loop)
        with pytest.raises(ConfigurationError):
            clock.call_after(-1.0, lambda: None)
        with pytest.raises(ConfigurationError):
            clock.every(0.0, lambda: None)

    in_loop(main)
