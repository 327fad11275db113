"""Process-isolated live overlay: per-node OS processes under a supervisor.

:func:`run_procs` is the third rung of the runtime ladder.  The simulator
shares one Python object graph; :func:`~repro.runtime.serve.run_live`
shares one *process* (real sockets, one event loop); this module shares
nothing.  Every node — or node *group*, see ``group_size`` — runs in its
own OS process with its own event loop, :class:`~repro.runtime.WallClock`
and :class:`~repro.runtime.LiveTransport`, so a crash is a real process
death: no shared heap survives it, and recovery must go through the disk
and the wire exactly as it would on real machines.

Three pieces make that survivable:

* **Durable journals** (:class:`~repro.core.journal.DurableJournal`) —
  every completion is fsync'd *before* it is announced, and the
  incarnation counter lives in the same file.  A respawned worker replays
  the journal into the agent's completion log before its first message,
  so the cross-incarnation no-double-execution invariant holds across
  real SIGKILLs, not just simulated crashes.  The journal's file lock
  doubles as the duplicate-incarnation guard: two live processes can
  never both claim one node.

* **The supervisor** — a parent-side monitor that watches child exit
  codes and ``/healthz`` probes, respawns crashed workers under
  exponential backoff, and trips a circuit breaker after
  ``max_restarts`` so a crash-looping node cannot flap forever.
  ``SIGTERM`` drains gracefully: workers walk the paper's departure
  protocol and flush their trace sinks before exiting 0.

* **Shared-nothing determinism** — workers rebuild the overlay graph,
  node profiles and scheduler policies from ``(scenario, nodes, seed)``
  alone, drawing the *whole* fleet's profile stream in node order and
  keeping only their own slice, so every process agrees on the grid
  without a coordination channel.  The address directory is a directory
  of atomically written files; peers re-discover an address only when
  its ``(host, port, pid, incarnation)`` tuple changes.

Chaos at this level is process chaos: :class:`ProcessFailureSchedule`
SIGKILLs workers (crash-stop — no goodbye, no flush) and SIGSTOPs them
(fail-slow — the process is alive but frozen, the classic gray failure).
Evidence is assembled post-run: every worker's per-boot rotated JSONL
trace segments are merged on ``(wall, t)`` and streamed through an
:class:`~repro.experiments.OnlineInvariantChecker`, and the journals on
disk are the ground truth for completions the killed processes never got
to announce.
"""

from __future__ import annotations

import asyncio
import glob
import json
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.journal import DurableJournal
from ..errors import ConfigurationError, ProtocolError
from ..net.reliability import ReliabilityLayer
from ..obs.exposition import render_prometheus
from ..obs.metrics import MetricsRegistry
from ..obs.trace import JsonlSink, TraceConfig, Tracer, read_trace
from ..sim.rng import RandomStreams
from ..types import NodeId
from ..experiments.assembly import (
    assemble,
    build_overlay,
    draw_node,
    workload_generator,
)
from ..experiments.catalog import get_scenario
from ..experiments.invariants_online import OnlineInvariantChecker
from .clock import WallClock
from .codec import encode_job
from .driver import (
    FORGE_JOB_ID,
    WireRunConfig,
    start_collector,
    stop_on_signal,
    wait_out,
)
from .http import HttpServer, http_get_json, http_post_json
from .transport import HEALTH_PATH, SUBMIT_PATH

__all__ = [
    "ProcRunConfig",
    "ProcRunResult",
    "ProcessFailureSchedule",
    "Supervisor",
    "WorkerSpec",
    "run_procs",
    "worker_main",
]

#: Wall seconds a submission keeps retrying for a live entry point
#: before it counts as failed (covers worker boot and crash-restart
#: windows at the default supervisor backoff).
_SUBMIT_RETRY_WINDOW = 8.0

#: Fail-slow detection: wall seconds between ``/healthz`` probe rounds,
#: the timeout of one probe, and how many consecutive misses get a live
#: but unresponsive worker SIGKILLed.
_HEALTH_INTERVAL = 1.0
_HEALTH_TIMEOUT = 1.0
_HEALTH_FAILS = 5


# ----------------------------------------------------------------------
# Process-level chaos schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessFailureSchedule:
    """When process chaos happens, in *wall* seconds.

    ``kills`` holds ``(at, victim_index)`` pairs: at wall second ``at``
    the victim worker is SIGKILLed — crash-stop, no flush, no goodbye —
    and the supervisor respawns it under backoff.  ``stalls`` holds
    ``(at, duration, victim_index)`` triples: SIGSTOP freezes the worker
    for ``duration`` wall seconds, then SIGCONT resumes it — the fail-
    slow gray failure where the process is alive but unresponsive.
    Victim indexes address the worker list modulo its length.
    """

    kills: Tuple[Tuple[float, int], ...] = ()
    stalls: Tuple[Tuple[float, float, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "kills",
            tuple((float(at), int(victim)) for at, victim in self.kills),
        )
        object.__setattr__(
            self,
            "stalls",
            tuple(
                (float(at), float(duration), int(victim))
                for at, duration, victim in self.stalls
            ),
        )
        for at, victim in self.kills:
            if at < 0:
                raise ConfigurationError(f"negative kill time {at}")
            if victim < 0:
                raise ConfigurationError(f"negative victim index {victim}")
        for at, duration, victim in self.stalls:
            if at < 0 or duration <= 0:
                raise ConfigurationError(
                    f"invalid stall (at={at}, duration={duration})"
                )
            if victim < 0:
                raise ConfigurationError(f"negative victim index {victim}")

    def __bool__(self) -> bool:
        """Whether the schedule contains any chaos at all."""
        return bool(self.kills or self.stalls)

    @classmethod
    def chaos(cls, wall_duration: float) -> "ProcessFailureSchedule":
        """A representative plan for a run of ``wall_duration`` wall
        seconds: one SIGKILL 30 % in, one short SIGSTOP stall at 60 %.
        """
        if wall_duration <= 0:
            raise ConfigurationError(
                f"non-positive wall_duration {wall_duration}"
            )
        return cls(
            kills=((0.3 * wall_duration, 1),),
            stalls=(
                (
                    0.6 * wall_duration,
                    min(1.5, 0.1 * wall_duration),
                    2,
                ),
            ),
        )


# ----------------------------------------------------------------------
# Worker spec + filesystem layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs — picklable for ``spawn``.

    A spec is pure data: the worker rebuilds the overlay, profiles and
    policies deterministically from it, so a respawned incarnation gets
    byte-identical grid state without talking to anyone.
    """

    index: int
    node_ids: Tuple[NodeId, ...]
    #: The run this worker is a slice of.
    config: "ProcRunConfig"
    run_dir: str
    #: The fleet's shared wall-clock origin (``time.time()`` at launch):
    #: a respawned worker computes its protocol-time offset from it so it
    #: resumes on the same timeline as peers that never died.
    run_epoch: float


def _addr_dir(run_dir: str) -> str:
    return os.path.join(run_dir, "addr")


def _journal_dir(run_dir: str) -> str:
    return os.path.join(run_dir, "journal")


def _trace_dir(run_dir: str) -> str:
    return os.path.join(run_dir, "trace")


def _addr_path(run_dir: str, node_id: NodeId) -> str:
    return os.path.join(_addr_dir(run_dir), f"node-{node_id}.json")


def _journal_path(run_dir: str, node_id: NodeId) -> str:
    return os.path.join(_journal_dir(run_dir), f"node-{node_id}.jsonl")


def _trace_path(run_dir: str, index: int, boot: int) -> str:
    # Per-boot filename: file sinks open with "w", so a respawned worker
    # reusing its predecessor's path would truncate the pre-kill
    # evidence the post-run merge needs.
    return os.path.join(_trace_dir(run_dir), f"worker-{index}.boot{boot}.jsonl")


def _write_atomic(path: str, payload: Dict[str, Any]) -> None:
    """Write JSON so readers never see a half-written file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    os.replace(tmp, path)


def _read_addr(path: str) -> Optional[Dict[str, Any]]:
    """Read one address file; ``None`` if missing or mid-replace."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _read_directory(run_dir: str) -> Dict[NodeId, Tuple[str, int]]:
    """The current fleet address directory from the addr files."""
    directory: Dict[NodeId, Tuple[str, int]] = {}
    for path in glob.glob(os.path.join(_addr_dir(run_dir), "node-*.json")):
        entry = _read_addr(path)
        if entry is not None:
            directory[entry["node_id"]] = (entry["host"], entry["port"])
    return directory


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------
def worker_main(spec: WorkerSpec) -> None:
    """Process entry point (top-level so ``spawn`` can pickle it)."""
    try:
        asyncio.run(_worker(spec))
    except KeyboardInterrupt:
        pass


async def _worker(spec: WorkerSpec) -> None:
    config = spec.config
    loop = asyncio.get_running_loop()
    drain = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, drain.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass

    # Resume on the fleet's shared timeline: a respawned worker's
    # protocol clock starts where the run is, not at zero.
    start_at = max(0.0, (time.time() - spec.run_epoch) * config.time_scale)
    clock = WallClock(
        loop, seed=config.seed, time_scale=config.time_scale, start_at=start_at
    )
    scenario = get_scenario(config.scenario_name)

    transport = config.open_transport(clock)
    # Always armed: any worker can die and come back, so every message
    # must carry incarnation stamps from the first send.
    transport.enable_incarnations()

    # Journals first: the flock is the duplicate-incarnation guard, so a
    # racing predecessor still holding the lock fails this boot *before*
    # any socket binds or message flies.
    journals: Dict[NodeId, DurableJournal] = {}
    boot = 0
    for node_id in spec.node_ids:
        journal = DurableJournal(_journal_path(spec.run_dir, node_id))
        journals[node_id] = journal
        if journal.incarnation is not None:
            boot = max(boot, journal.incarnation + 1)

    tracer: Optional[Tracer] = None
    if config.trace_level != "off":
        obs = TraceConfig(
            level=config.trace_level,
            sink="jsonl",
            path=_trace_path(spec.run_dir, spec.index, boot),
            rotate_bytes=config.rotate_bytes,
        )
        tracer = Tracer(obs, sink=obs.make_sink())
        tracer.wall_source = time.time

    graph = build_overlay(scenario.overlay, config.nodes, config.seed)
    bound: Dict[NodeId, Tuple[str, int]] = {}
    base = config.port_base
    for position, node_id in enumerate(graph.nodes()):
        if node_id in spec.node_ids:
            # Pinned ports follow graph order (``None`` = ephemeral).
            port = 0 if base is None else base + position
            bound[node_id] = await transport.add_endpoint(
                node_id, host=config.host, port=port
            )
    # Self-discovery seeds the directory with this worker's own nodes
    # (siblings in one group talk over the wire too); peers arrive via
    # the addr-file refresh loop below.
    await transport.discover(sorted(set(bound.values())))

    # Shared-nothing determinism: the whole grid, from the spec alone.
    setup = assemble(
        scenario,
        config.scale(),
        clock,
        transport,
        graph,
        config.config_overrides(),
        tracer=tracer,
        own=set(spec.node_ids),
        journals=journals,
    )
    metrics, agents = setup.metrics, setup.agents
    if config.reliability:
        # Disjoint msg_id space per (worker, boot): every process runs
        # its own layer counting from 0, and a respawned incarnation
        # starts a fresh one — without the partition, two senders' ids
        # would collide in a receiver's dedup window and fresh ASSIGNs
        # would be swallowed as duplicates.
        ReliabilityLayer(
            transport,
            config.reliability_config(),
            msg_id_base=((spec.index << 16) | (boot & 0xFFFF)) << 32,
        )
    transport.set_metrics_provider(
        lambda: {
            "jobs.missed_deadlines": float(metrics.missed_deadline_count())
        }
    )
    for agent in agents:
        transport.set_health_provider(agent.node_id, agent.health_snapshot)
        transport.set_submit_handler(agent.node_id, agent.submit)

    # Publish addresses: the tuple (host, port, pid, incarnation) is the
    # change-detection key peers re-discover on — a respawned worker on
    # the *same* pinned port still changes pid and incarnation, which is
    # what forces peers to fetch its fresh card and unblock stamping.
    pid = os.getpid()
    for agent in agents:
        host, port = bound[agent.node_id]
        _write_atomic(
            _addr_path(spec.run_dir, agent.node_id),
            {
                "node_id": agent.node_id,
                "host": host,
                "port": port,
                "pid": pid,
                "incarnation": agent.incarnation,
            },
        )

    known: Dict[NodeId, Tuple[str, int, int, int]] = {}

    async def _refresh_directory() -> None:
        while True:
            changed: Dict[NodeId, Tuple[str, int, int, int]] = {}
            for path in glob.glob(
                os.path.join(_addr_dir(spec.run_dir), "node-*.json")
            ):
                entry = _read_addr(path)
                if entry is None:
                    continue
                key = (
                    entry["host"],
                    entry["port"],
                    entry.get("pid", 0),
                    entry.get("incarnation", 0),
                )
                node_id = entry["node_id"]
                if known.get(node_id) != key:
                    changed[node_id] = key
            if changed:
                addresses = sorted(
                    {(host, port) for host, port, _pid, _inc in changed.values()}
                )
                try:
                    await transport.discover(addresses)
                except (ConfigurationError, OSError):
                    pass
                else:
                    for node_id, key in changed.items():
                        # Only mark tuples whose card actually landed, so
                        # a worker still booting is retried next round.
                        if transport._directory.get(node_id) == key[:2]:
                            known[node_id] = key
            await asyncio.sleep(0.5)

    refresh_task = loop.create_task(_refresh_directory())

    tasks: List[asyncio.Task] = [refresh_task]
    # The cross-process checker self-test: two workers forging the same
    # completion is a double execution spanning process boundaries.
    if config.seed_violation and spec.index < 2 and tracer is not None:

        async def _forge() -> None:
            at = spec.run_epoch + 0.4 * config.wall_duration()
            await asyncio.sleep(max(0.0, at - time.time()))
            tracer.emit(
                "job.finished",
                clock.now,
                job=FORGE_JOB_ID,
                node=spec.node_ids[0],
            )

        tasks.append(loop.create_task(_forge()))

    try:
        end_wall = spec.run_epoch + config.wall_duration()
        while not drain.is_set():
            remaining = end_wall - time.time()
            if remaining <= 0:
                break
            try:
                await asyncio.wait_for(
                    drain.wait(), timeout=min(0.2, remaining)
                )
            except asyncio.TimeoutError:
                pass
        if drain.is_set():
            # Graceful departure: hand waiting jobs off, let the running
            # one finish, then leave — bounded so a wedged peer cannot
            # hold the process hostage past the supervisor's grace.
            for agent in agents:
                if not (agent.failed or agent.departed or agent.leaving):
                    try:
                        agent.leave()
                    except ProtocolError:
                        pass
            depart_deadline = time.time() + 3.0
            while time.time() < depart_deadline and not all(
                agent.departed or agent.failed for agent in agents
            ):
                await asyncio.sleep(0.05)
    finally:
        clock.stop()
        try:
            await asyncio.wait_for(transport.drain(), timeout=2.0)
        except asyncio.TimeoutError:
            pass
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        await transport.close()
        if tracer is not None:
            tracer.close()
        for journal in journals.values():
            journal.close()


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side state of one supervised worker process."""

    __slots__ = (
        "spec",
        "process",
        "state",
        "restarts",
        "restart_at",
        "health_misses",
    )

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.process = None
        #: new | running | backoff | stopped | broken
        self.state = "new"
        self.restarts = 0
        self.restart_at = 0.0
        self.health_misses = 0


class Supervisor:
    """Spawn, monitor and respawn the worker fleet.

    Crash recovery is exit-code driven (a SIGKILLed child reports a
    negative exit code immediately) with ``/healthz`` probes layered on
    top for fail-slow detection: a worker that is alive but unresponsive
    for ``_HEALTH_FAILS`` consecutive probes is SIGKILLed, which folds the
    gray failure into the crash path the journal already survives.
    Respawns back off exponentially (``backoff_base * 2**restarts``,
    capped) and a worker that exhausts ``max_restarts`` is declared
    broken — the circuit breaker that stops a crash loop from burning
    the machine.
    """

    def __init__(
        self,
        specs: List[WorkerSpec],
        *,
        registry: Optional[MetricsRegistry] = None,
        backoff_base: float = 0.5,
        backoff_cap: float = 10.0,
        max_restarts: int = 5,
        target: Callable[[WorkerSpec], None] = worker_main,
    ) -> None:
        if backoff_base <= 0 or backoff_cap <= 0:
            raise ConfigurationError("backoff parameters must be > 0")
        if max_restarts < 0:
            raise ConfigurationError(f"negative max_restarts {max_restarts}")
        self._ctx = multiprocessing.get_context("spawn")
        self._target = target
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_restarts = max_restarts
        self.workers = [_Worker(spec) for spec in specs]
        self.total_restarts = 0
        self._restarts_counter = (
            registry.counter("supervisor.restarts")
            if registry is not None
            else None
        )

    # -- pure policy ---------------------------------------------------
    def backoff_delay(self, restarts: int) -> float:
        """Wall seconds to wait before restart number ``restarts + 1``."""
        return min(self.backoff_cap, self.backoff_base * (2.0 ** restarts))

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn every worker."""
        for worker in self.workers:
            self._spawn(worker)

    def _spawn(self, worker: _Worker) -> None:
        process = self._ctx.Process(
            target=self._target, args=(worker.spec,), daemon=True
        )
        process.start()
        worker.process = process
        worker.state = "running"
        worker.health_misses = 0

    def poll(self, now: Optional[float] = None) -> None:
        """One synchronous supervision step (unit-testable, no loop).

        Reaps exits, schedules backoffs, trips the breaker, respawns.
        """
        if now is None:
            now = time.monotonic()
        for worker in self.workers:
            if worker.state == "running":
                process = worker.process
                if process is not None and process.exitcode is not None:
                    process.join()
                    if process.exitcode == 0:
                        worker.state = "stopped"
                    elif worker.restarts >= self.max_restarts:
                        worker.state = "broken"
                    else:
                        worker.state = "backoff"
                        worker.restart_at = now + self.backoff_delay(
                            worker.restarts
                        )
            if worker.state == "backoff" and now >= worker.restart_at:
                worker.restarts += 1
                self.total_restarts += 1
                if self._restarts_counter is not None:
                    self._restarts_counter.inc()
                self._spawn(worker)

    async def monitor(self, health: bool = True) -> None:
        """Poll forever (cancel to stop); optionally probe ``/healthz``."""
        next_probe = time.monotonic()
        while True:
            self.poll()
            if health and time.monotonic() >= next_probe:
                next_probe = time.monotonic() + _HEALTH_INTERVAL
                await self._probe_health()
            await asyncio.sleep(0.1)

    async def _probe_health(self) -> None:
        for index, worker in enumerate(self.workers):
            if worker.state != "running" or worker.process is None:
                continue
            entry = _read_addr(
                _addr_path(worker.spec.run_dir, worker.spec.node_ids[0])
            )
            if entry is None or entry.get("pid") != worker.process.pid:
                continue  # not booted yet (or a predecessor's stale file)
            try:
                await http_get_json(
                    entry["host"],
                    entry["port"],
                    HEALTH_PATH,
                    timeout=_HEALTH_TIMEOUT,
                    retries=0,
                )
            except (ConnectionError, OSError, ValueError, asyncio.TimeoutError):
                worker.health_misses += 1
                if worker.health_misses >= _HEALTH_FAILS:
                    # Fail-slow → crash-stop: SIGKILL folds the gray
                    # failure into the restart path.
                    self.kill(index)
                    worker.health_misses = 0
            else:
                worker.health_misses = 0

    # -- chaos hooks ---------------------------------------------------
    def _victim(self, index: int) -> _Worker:
        return self.workers[index % len(self.workers)]

    def kill(self, index: int) -> None:
        """SIGKILL a worker (crash-stop; the monitor respawns it)."""
        worker = self._victim(index)
        if worker.process is not None and worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGKILL)

    def stall(self, index: int) -> None:
        """SIGSTOP a worker (fail-slow: alive but frozen)."""
        worker = self._victim(index)
        if worker.process is not None and worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGSTOP)

    def resume(self, index: int) -> None:
        """SIGCONT a stalled worker."""
        worker = self._victim(index)
        if worker.process is not None and worker.process.is_alive():
            os.kill(worker.process.pid, signal.SIGCONT)

    # -- shutdown ------------------------------------------------------
    async def drain(self, grace: float = 5.0) -> None:
        """SIGTERM everyone, wait ``grace``, SIGKILL stragglers, reap."""
        for worker in self.workers:
            process = worker.process
            if process is not None and process.is_alive():
                # A stalled (SIGSTOPped) worker cannot run its SIGTERM
                # handler; resume it first so the drain is graceful.
                os.kill(process.pid, signal.SIGCONT)
                process.terminate()
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline and any(
            worker.process is not None and worker.process.is_alive()
            for worker in self.workers
        ):
            await asyncio.sleep(0.1)
        for worker in self.workers:
            process = worker.process
            if process is not None and process.is_alive():
                process.kill()
            if process is not None:
                process.join(timeout=2.0)
            if worker.state == "running":
                worker.state = "stopped"

    # -- observability -------------------------------------------------
    def metrics_extra(self) -> Dict[str, float]:
        """Per-worker supervision gauges for the coordinator ``/metrics``."""
        now = time.monotonic()
        extra: Dict[str, float] = {}
        for index, worker in enumerate(self.workers):
            label = f'{{worker="{index}"}}'
            extra[f"supervisor_worker_restarts{label}"] = float(
                worker.restarts
            )
            extra[f"supervisor_worker_up{label}"] = float(
                worker.state == "running"
                and worker.process is not None
                and worker.process.is_alive()
            )
            extra[f"supervisor_worker_backoff_seconds{label}"] = (
                max(0.0, worker.restart_at - now)
                if worker.state == "backoff"
                else 0.0
            )
            extra[f"supervisor_worker_broken{label}"] = float(
                worker.state == "broken"
            )
        return extra

    def stats(self) -> Dict[str, Any]:
        """Summary for run results and CLI reporting."""
        return {
            "restarts": self.total_restarts,
            "states": [worker.state for worker in self.workers],
            "broken": [
                index
                for index, worker in enumerate(self.workers)
                if worker.state == "broken"
            ],
        }


# ----------------------------------------------------------------------
# The coordinated run
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcRunConfig(WireRunConfig):
    """One process-isolated overlay run.

    With ``port_base`` set, node i listens on ``port_base + i`` and the
    coordinator's ``/metrics`` on ``port_base + nodes``; without it
    everything is ephemeral (addresses flow through the addr files).
    """

    nodes: int = 6
    jobs: int = 8
    time_scale: float = 600.0
    duration: float = 12_000.0
    #: Fail-safe tracking is on by default here: process chaos *is*
    #: crash-restart chaos, and §III-D is what recovers the jobs.
    failsafe: bool = True
    send_timeout: float = 2.0
    early_exit_grace: float = 1.0
    #: Nodes per worker process (1 = full per-node isolation).
    group_size: int = 1
    #: Scratch directory (addr files, journals, traces); ``None`` makes
    #: a fresh temp dir.  Reusing a dir resumes its journals.
    run_dir: Optional[str] = None
    trace_level: str = "transport"
    rotate_bytes: int = 64 * 1024 * 1024
    max_restarts: int = 5
    backoff_base: float = 0.5
    #: Forge a cross-process duplicate completion (checker self-test).
    seed_violation: bool = False
    #: Where the merged fleet trace lands (default: ``run_dir``).
    merged_trace_path: Optional[str] = None

    _schedule_type = ProcessFailureSchedule
    _extra_ports = 1  # the coordinator

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.group_size < 1:
            raise ConfigurationError(
                f"group_size {self.group_size} must be >= 1"
            )
        if self.seed_violation:
            if self.worker_count() < 2:
                raise ConfigurationError(
                    "seed_violation needs >= 2 worker processes (the "
                    "forged duplicate must span a process boundary)"
                )
            if self.trace_level == "off":
                raise ConfigurationError(
                    "seed_violation needs tracing (the forged events "
                    "ride the trace stream)"
                )

    def worker_count(self) -> int:
        """How many worker processes the fleet decomposes into."""
        return (self.nodes + self.group_size - 1) // self.group_size


@dataclass
class ProcRunResult:
    """What a process-isolated run produced."""

    config: ProcRunConfig
    run_dir: str
    merged_trace_path: str
    #: Jobs a node accepted over ``POST /submit``.
    submitted: int
    #: Distinct real jobs completed (trace ∪ journals; forge id excluded).
    completed: int
    violations: List[str]
    checked_events: int
    #: Trace lines no segment could parse (torn tails from SIGKILLs).
    torn_lines: int
    supervisor: Dict[str, Any]
    #: ``journal.recovered`` events found in the merged trace.
    recovered: List[Dict[str, Any]]
    fleet_series: Dict[str, List[Tuple[float, float]]]
    interrupted: bool = False
    #: Per-journal recovered incarnation counters (node -> incarnation).
    journal_incarnations: Dict[NodeId, int] = field(default_factory=dict)


def _read_journal_state(
    run_dir: str,
) -> Tuple[Dict[NodeId, int], Dict[NodeId, set]]:
    """Ground truth from the fsync'd journals: incarnations, completions.

    SIGKILLed workers lose buffered trace lines but never journal
    entries — the durable record is what the acceptance evidence and the
    completed tally lean on.
    """
    incarnations: Dict[NodeId, int] = {}
    completions: Dict[NodeId, set] = {}
    for path in glob.glob(os.path.join(_journal_dir(run_dir), "node-*.jsonl")):
        node_id = int(os.path.basename(path)[len("node-"):-len(".jsonl")])
        journal = DurableJournal(path, fsync=False)
        try:
            if journal.incarnation is not None:
                incarnations[node_id] = journal.incarnation
            completions[node_id] = {
                job_id for job_id, _t, _inc in journal.completions
            }
        finally:
            journal.close()
    return incarnations, completions


def run_procs(
    config: Optional[ProcRunConfig] = None,
    online_checker: Optional[OnlineInvariantChecker] = None,
) -> ProcRunResult:
    """Run one process-isolated scenario and assemble the evidence.

    Synchronous entry point (owns the coordinator's event loop).  The
    merged per-process traces are streamed through ``online_checker``
    (or a fresh :class:`~repro.experiments.OnlineInvariantChecker`)
    post-run — the checker's streaming contract makes the merge order
    the only thing the coordinator has to get right.
    """
    config = config if config is not None else ProcRunConfig()
    return asyncio.run(_run_procs(config, online_checker))


async def _run_procs(
    config: ProcRunConfig,
    online_checker: Optional[OnlineInvariantChecker],
) -> ProcRunResult:
    loop = asyncio.get_running_loop()
    run_dir = config.run_dir or tempfile.mkdtemp(prefix="aria-procs-")
    for sub in (_addr_dir(run_dir), _journal_dir(run_dir), _trace_dir(run_dir)):
        os.makedirs(sub, exist_ok=True)

    scenario = get_scenario(config.scenario_name)
    graph = build_overlay(scenario.overlay, config.nodes, config.seed)
    node_order: List[NodeId] = list(graph.nodes())
    run_epoch = time.time()

    groups: List[List[NodeId]] = [
        node_order[i : i + config.group_size]
        for i in range(0, len(node_order), config.group_size)
    ]
    node_to_worker: Dict[NodeId, int] = {
        node_id: index
        for index, group in enumerate(groups)
        for node_id in group
    }
    specs = [
        WorkerSpec(
            index=index,
            node_ids=tuple(group),
            config=config,
            run_dir=run_dir,
            run_epoch=run_epoch,
        )
        for index, group in enumerate(groups)
    ]

    registry = MetricsRegistry()
    supervisor = Supervisor(
        specs,
        registry=registry,
        backoff_base=config.backoff_base,
        max_restarts=config.max_restarts,
    )
    supervisor.start()
    monitor_task = loop.create_task(supervisor.monitor())

    # Coordinator endpoint: fleet-level /metrics (merged series plus the
    # supervision gauges) and a /healthz stating the fleet's shape.
    def _coordinator_handler(method: str, path: str, body: bytes):
        if method == "GET" and path == "/metrics":
            page = render_prometheus(
                registry, extra=supervisor.metrics_extra()
            )
            return (
                200,
                "OK",
                page.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if method == "GET" and path == "/healthz":
            stats = supervisor.stats()
            return (
                200,
                "OK",
                json.dumps(
                    {
                        "role": "coordinator",
                        "workers": len(supervisor.workers),
                        "states": stats["states"],
                        "restarts": stats["restarts"],
                    }
                ).encode("utf-8"),
            )
        return 404, "Not Found", b""

    coordinator = HttpServer(_coordinator_handler)
    await coordinator.start(
        host=config.host,
        port=0 if config.port_base is None else config.port_base + config.nodes,
    )

    collector, collector_task = start_collector(
        config,
        registry,
        targets=lambda: _read_directory(run_dir),
        now=lambda: (time.time() - run_epoch) * config.time_scale,
        group_of=node_to_worker.get,
    )

    # Submission rides the wire: the coordinator redraws the fleet
    # exactly as the workers do, so requirements_ok matches what the
    # distributed grid can actually host.
    streams = RandomStreams(config.seed)
    generator = workload_generator(
        scenario,
        streams.get("workload"),
        [draw_node(streams, scenario.policies).profile for _ in node_order],
        config.ert_mean,
    )
    schedule = config.submission_schedule()
    submission_rng = streams.get("submission")
    submitted = 0
    submit_failures = 0

    async def _submit_one(job) -> bool:
        # Early submissions race worker boot (the first submission time
        # can be milliseconds after launch at high compression), and any
        # submission can race a crash — so a round that finds no taker
        # backs off and retries until the window closes, like a user
        # resubmitting against a flaky front-end.
        deadline = time.time() + _SUBMIT_RETRY_WINDOW
        while True:
            directory = _read_directory(run_dir)
            candidates = sorted(directory)
            submission_rng.shuffle(candidates)
            for node_id in candidates:
                host, port = directory[node_id]
                try:
                    status = await http_post_json(
                        host,
                        port,
                        SUBMIT_PATH,
                        {"job": encode_job(job)},
                        timeout=config.send_timeout,
                    )
                except (ConnectionError, OSError, asyncio.TimeoutError):
                    continue  # dead or restarting node: try the next
                if status == 200:
                    return True
            if time.time() >= deadline:
                return False
            await asyncio.sleep(0.3)

    async def _submit_jobs() -> None:
        nonlocal submitted, submit_failures
        for submit_time in schedule.times():
            wall_at = run_epoch + submit_time / config.time_scale
            await asyncio.sleep(max(0.0, wall_at - time.time()))
            now_protocol = (time.time() - run_epoch) * config.time_scale
            job = generator.make_job(now_protocol)
            if await _submit_one(job):
                submitted += 1
            else:
                submit_failures += 1

    submit_task = loop.create_task(_submit_jobs())

    chaos_tasks: List[asyncio.Task] = []
    if config.failure_schedule is not None and config.failure_schedule:

        async def _kill(at: float, victim: int) -> None:
            await asyncio.sleep(at)
            supervisor.kill(victim)

        async def _stall(at: float, duration: float, victim: int) -> None:
            await asyncio.sleep(at)
            supervisor.stall(victim)
            await asyncio.sleep(duration)
            supervisor.resume(victim)

        for at, victim in config.failure_schedule.kills:
            chaos_tasks.append(loop.create_task(_kill(at, victim)))
        for at, duration, victim in config.failure_schedule.stalls:
            chaos_tasks.append(loop.create_task(_stall(at, duration, victim)))

    def _fleet_settled() -> bool:
        if collector is None:
            return False
        points = collector.series_points().get("fleet.completed_jobs", [])
        return (
            max((value for _t, value in points), default=0.0) >= config.jobs
            and submit_task.done()
            and all(task.done() for task in chaos_tasks)
        )

    try:
        with stop_on_signal() as stop_event:
            await wait_out(config, stop_event, _fleet_settled)
    finally:
        for task in [submit_task, *chaos_tasks]:
            task.cancel()
        await asyncio.gather(
            submit_task, *chaos_tasks, return_exceptions=True
        )
        monitor_task.cancel()
        await asyncio.gather(monitor_task, return_exceptions=True)
        await supervisor.drain()
        if collector_task is not None:
            collector_task.cancel()
            await asyncio.gather(collector_task, return_exceptions=True)
        await coordinator.close()
    interrupted = stop_event.is_set()

    # ------------------------------------------------------------------
    # Evidence assembly: merge every boot's trace segments on the shared
    # timeline and stream them through the invariant checker.
    # ------------------------------------------------------------------
    events: List[Dict[str, Any]] = []
    torn_lines = 0
    for base in sorted(glob.glob(os.path.join(_trace_dir(run_dir), "*.jsonl"))):
        segment_events, torn = read_trace(base)
        events.extend(segment_events)
        torn_lines += torn
    events.sort(key=lambda e: (e.get("wall", 0.0), e.get("t", 0.0)))

    checker = (
        online_checker
        if online_checker is not None
        else OnlineInvariantChecker()
    )
    merged_trace_path = config.merged_trace_path or os.path.join(
        run_dir, "merged-trace.jsonl"
    )
    merged = JsonlSink(merged_trace_path)
    try:
        for event in events:
            checker.append(event)
            merged.append(event)
    finally:
        merged.close()
    checker.close()

    journal_incarnations, journal_completions = _read_journal_state(run_dir)
    completed_ids = set()
    for node_completions in journal_completions.values():
        completed_ids |= node_completions
    for event in events:
        if event.get("ev") == "job.finished":
            completed_ids.add(event["job"])
    completed_ids.discard(FORGE_JOB_ID)
    recovered = [
        event for event in events if event.get("ev") == "journal.recovered"
    ]

    violations = list(checker.violations)
    if submit_failures and not interrupted:
        violations.append(
            f"submission: {submit_failures} job(s) found no live entry "
            f"point (every candidate node refused or was unreachable)"
        )

    return ProcRunResult(
        config=config,
        run_dir=run_dir,
        merged_trace_path=merged_trace_path,
        submitted=submitted,
        completed=len(completed_ids),
        violations=violations,
        checked_events=checker.checked,
        torn_lines=torn_lines,
        supervisor=supervisor.stats(),
        recovered=recovered,
        fleet_series=(
            collector.series_points() if collector is not None else {}
        ),
        interrupted=interrupted,
        journal_incarnations=journal_incarnations,
    )
