"""Census of what one live-wire message costs the event loop.

Drives ``LiveTransport`` in the benchmark's shape — 8 loopback endpoints,
a closed loop of 2 messages in flight, the next one issued from the
handler that received the last — with ``BaseEventLoop._run_once``,
``create_task``, ``call_at`` and ``create_connection`` and the socket
transport's ``write`` wrapped *from outside* — there is no hook in
``src/`` — and prints, per message, the loop iterations, tasks and timers
the send phase took, the connections it opened, and the peak of
exchanges holding a connection to one destination at once (counted at
each request written: open connections to its address minus the pool's
idle ones)::

    PYTHONPATH=src python scripts/wire_census.py plain
    PYTHONPATH=/other/checkout/src python scripts/wire_census.py acked 2000

``plain`` sends Request / Inform / Accept / Assign in turn through
``transport.send``; ``acked`` sends Assigns through a
``ReliabilityLayer``.  MESSAGES defaults to the benchmark's 12 000.  The
package comes from ``PYTHONPATH`` (this checkout's ``src/`` is only the
fallback), so the one file measures any two trees against each other.
A claim about the live wire's scheduling cost (``docs/PERFORMANCE.md``,
"The live wire without a task per message") starts here.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
from asyncio import base_events, selector_events

sys.path.append(
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402
from repro.core.messages import Accept, Assign, Inform, Request  # noqa: E402
from repro.grid.profiles import (  # noqa: E402
    Architecture,
    JobRequirements,
    OperatingSystem,
)
from repro.net.reliability import ReliabilityLayer  # noqa: E402
from repro.runtime import LiveTransport, WallClock  # noqa: E402
from repro.workload.jobs import Job  # noqa: E402

ENDPOINTS = 8
IN_FLIGHT = 2

REQUIREMENTS = JobRequirements(
    architecture=Architecture.AMD64,
    memory_gb=2,
    disk_gb=2,
    os=OperatingSystem.LINUX,
)


def make_message(key: int, acked: bool):
    """The benchmark's message for ``key``: its job id is the key."""
    job = Job(job_id=key, requirements=REQUIREMENTS, ert=3600.0 + key)
    kind = 3 if acked else key % 4
    if kind == 0:
        return Request(0, job, 5, (0, key))
    if kind == 1:
        return Inform(0, job, 12.5, 5, (0, key))
    if kind == 2:
        return Accept(0, key, 12.5)
    return Assign(0, job, False)


class Census:
    """Counters filled by the wrappers :meth:`install` puts in place;
    nothing is counted until :attr:`pool` is set."""

    def __init__(self) -> None:
        #: The transport's connection pool, during the send phase.
        self.pool = None
        self.iterations = 0
        self.tasks = 0
        self.timers = 0
        #: Client socket transport -> the (host, port) it was opened to.
        self.clients = {}
        self.peak = 0

    def checked_out(self, address) -> int:
        """Open connections to ``address`` that are not idle in the pool."""
        open_ = sum(
            1
            for transport, to in self.clients.items()
            if to == address and not transport.is_closing()
        )
        idle = sum(
            1
            for entry in self.pool._idle.get(address, ())
            # A (reader, writer) pair on stream-based trees.
            if not (entry[1] if isinstance(entry, tuple) else entry)
            .transport.is_closing()
        )
        return open_ - idle

    def install(self) -> None:
        """Wrap the loop's scheduling calls and the socket transport."""
        loop_class = base_events.BaseEventLoop
        run_once = loop_class._run_once
        create_task = loop_class.create_task
        call_at = loop_class.call_at
        create_connection = loop_class.create_connection
        transport_class = selector_events._SelectorSocketTransport
        write = transport_class.write
        connection_lost = transport_class._call_connection_lost

        def counted_run_once(loop):
            self.iterations += self.pool is not None
            return run_once(loop)

        def counted_create_task(loop, *args, **kwargs):
            self.tasks += self.pool is not None
            return create_task(loop, *args, **kwargs)

        def counted_call_at(loop, *args, **kwargs):
            self.timers += self.pool is not None
            return call_at(loop, *args, **kwargs)

        async def recorded_create_connection(loop, factory, host, port, **kw):
            transport, protocol = await create_connection(
                loop, factory, host, port, **kw
            )
            self.clients[transport] = (host, port)
            return transport, protocol

        def counted_write(transport, data):
            # A request going out: how many exchanges hold a connection
            # to its destination now, this one included?
            address = self.clients.get(transport)
            if address is not None and self.pool is not None:
                self.peak = max(self.peak, self.checked_out(address))
            return write(transport, data)

        def forgotten_connection_lost(transport, exc):
            self.clients.pop(transport, None)
            return connection_lost(transport, exc)

        loop_class._run_once = counted_run_once
        loop_class.create_task = counted_create_task
        loop_class.call_at = counted_call_at
        loop_class.create_connection = recorded_create_connection
        transport_class.write = counted_write
        transport_class._call_connection_lost = forgotten_connection_lost


async def drive(census: Census, acked: bool, total: int, seed: int = 0):
    """One benchmark-shaped run; returns ``(delivered, opened, lost)``."""
    loop = asyncio.get_running_loop()
    clock = WallClock(loop, seed=seed, time_scale=1.0)
    transport = LiveTransport(clock, loop=loop)
    send = ReliabilityLayer(transport).send if acked else transport.send
    rng = random.Random(seed)
    pairs = []
    for _ in range(total):
        src = rng.randrange(ENDPOINTS)
        pairs.append((src, (src + 1 + rng.randrange(ENDPOINTS - 1)) % ENDPOINTS))
    state = {"sent": 0, "delivered": 0}
    done = loop.create_future()

    def issue():
        key = state["sent"]
        if key < total:
            state["sent"] = key + 1
            src, dst = pairs[key]
            send(src, dst, make_message(key, acked))

    def handle(src, message):
        state["delivered"] += 1
        if state["delivered"] == total:
            done.set_result(None)
        else:
            issue()

    try:
        for node_id in range(ENDPOINTS):
            await transport.add_endpoint(node_id)
            transport.register(node_id, handle)
        await transport.discover()
        opened = transport.network_counters()["connections_opened"]
        census.pool = transport._pool
        for _ in range(IN_FLIGHT):
            issue()
        await asyncio.wait_for(done, timeout=120.0)
        await transport.drain()
        census.pool = None
        counters = transport.network_counters()
        return (
            state["delivered"],
            counters["connections_opened"] - opened,
            counters["lost"],
        )
    finally:
        census.pool = None
        clock.stop()
        await transport.drain()
        await transport.close()


def main(argv) -> int:
    if len(argv) not in (2, 3) or argv[1] not in ("plain", "acked"):
        print(f"usage: {argv[0]} plain|acked [MESSAGES]", file=sys.stderr)
        return 2
    acked = argv[1] == "acked"
    total = int(argv[2]) if len(argv) == 3 else 12_000
    census = Census()
    census.install()
    delivered, opened, lost = asyncio.run(drive(census, acked, total))
    print(f"live_wire_{argv[1]} shape, {total} messages")
    print(f"{'repro from':30}{os.path.dirname(repro.__file__)}")
    print(f"{'delivered / lost':30}{delivered} / {lost}")
    for name, count in (
        ("loop iterations", census.iterations),
        ("tasks", census.tasks),
        ("timers", census.timers),
    ):
        print(f"{name + ' per message':30}{count / total:.2f}  ({count})")
    print(f"{'connections opened':30}{opened}")
    print(f"{'peak exchanges to one peer':30}{census.peak}")
    return 0 if delivered == total and not lost else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
