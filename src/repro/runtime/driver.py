"""What the two drivers of a run over real sockets share.

:func:`~repro.runtime.serve.run_live` (one process) and
:func:`~repro.runtime.proc.run_procs` (one OS process per node group)
run the same thing — a paper scenario compressed into wall time — and
differ only in how they host it.  Shared here: :class:`WireRunConfig`
(the fields, and what the compression means for every wall-clock window
an HTTP round-trip must fit) and the hosting-independent pieces of a
coordinator's lifecycle: fleet telemetry, graceful stop on a signal,
letting wall time pass.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..errors import ConfigurationError
from ..experiments.catalog import get_scenario
from ..experiments.faults import FaultPlan, apply_fault_plan
from ..experiments.scale import ScenarioScale
from ..net.reliability import ReliabilityConfig
from ..workload.submission import SubmissionSchedule
from .telemetry import TelemetryCollector, render_dashboard
from .transport import LiveTransport

__all__ = [
    "FORGE_JOB_ID",
    "WireRunConfig",
    "start_collector",
    "stop_on_signal",
    "wait_out",
]

#: The bogus job id both drivers' ``seed_violation`` self-test forges
#: completions for — the id the double-execution check must fire on, and
#: excluded from the completed-jobs tally.
FORGE_JOB_ID = 999_999_999


@dataclass(frozen=True)
class WireRunConfig:
    """Scenario, size and time compression of one run on the live wire
    (defaults: ``run_live``'s; ``ProcRunConfig`` re-declares its own)."""

    scenario_name: str = "iMixed"
    nodes: int = 8
    jobs: int = 10
    seed: int = 0
    #: Protocol seconds per wall second.
    time_scale: float = 300.0
    #: Protocol-time horizon (like ``ScenarioScale.duration``).
    duration: float = 9_000.0
    #: Mean ERT the workload distribution is rescaled to, so a few jobs
    #: finish within the compressed horizon (paper mean: 2.5 h).
    ert_mean: float = 1_200.0
    submission_start: float = 60.0
    submission_interval: float = 30.0
    #: ACCEPT collection window, raised from the paper's 5 s (which at
    #: scale 300 would be a 17 ms wall window) to 60 s protocol = 200 ms
    #: wall.
    accept_wait: float = 60.0
    #: Attach the reliability layer (real acks, timeouts, backoff).
    reliability: bool = True
    #: Arm §III-D fail-safe tracking/probing plus orphan adoption, with
    #: probe timings that fit the compressed horizon (on by necessity
    #: for crash-restart chaos; off keeps the non-chaos default).
    failsafe: bool = False
    host: str = "127.0.0.1"
    #: Deterministic endpoint ports: the i-th initial node listens on
    #: ``port_base + i`` (``None`` = ephemeral ports).
    port_base: Optional[int] = None
    #: Wall seconds between telemetry-collector scrape rounds over the
    #: fleet's ``/metrics`` pages (0 disables the collector).
    scrape_interval: float = 1.0
    #: Render the streaming fleet dashboard (``repro top`` view) to
    #: stdout on every scrape round.
    dashboard: bool = False
    #: Wall seconds before an outbound POST counts as lost.
    send_timeout: float = 5.0
    #: Stop early once every job completed and the grid has been quiet
    #: for this many wall seconds (0 disables early exit).
    early_exit_grace: float = 0.5
    #: Network faults shaping the live wire (``None`` = clean network).
    fault_plan: Optional[FaultPlan] = None
    #: Lifecycle chaos in *wall* seconds, of the driver's own schedule
    #: type (``None`` = stable fleet).
    failure_schedule: Optional[object] = None

    #: Per driver, not fields: the type ``failure_schedule`` must have,
    #: and the ports the run binds beyond one per node.
    _schedule_type = type(None)
    _extra_ports = 0

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ConfigurationError(f"need >= 2 nodes, got {self.nodes}")
        if self.jobs < 1:
            raise ConfigurationError(f"need >= 1 job, got {self.jobs}")
        if self.time_scale <= 0:
            raise ConfigurationError(f"time_scale {self.time_scale} must be > 0")
        if self.duration <= self.submission_start:
            raise ConfigurationError("duration must exceed submission_start")
        window = self.accept_wait / self.time_scale
        if window < 0.01:
            raise ConfigurationError(
                f"accept_wait {self.accept_wait}s at time_scale "
                f"{self.time_scale} leaves a {window * 1000:.1f} ms wall "
                "window — too tight for HTTP round-trips (need >= 10 ms)"
            )
        ports = self.nodes + self._extra_ports
        if self.port_base is not None and not (
            0 < self.port_base <= 65535 - ports
        ):
            raise ConfigurationError(
                f"port_base {self.port_base} leaves no room for {ports} ports"
            )
        if self.scrape_interval < 0:
            raise ConfigurationError(
                f"negative scrape_interval {self.scrape_interval}"
            )
        if self.failure_schedule is not None and not isinstance(
            self.failure_schedule, self._schedule_type
        ):
            raise ConfigurationError(
                f"failure_schedule must be a {self._schedule_type.__name__}"
            )
        if get_scenario(self.scenario_name).expanding:
            # The expansion's joins are simulator events; nothing on the
            # wire schedules them, so the run would silently stay static.
            raise ConfigurationError(
                f"scenario {self.scenario_name!r} grows its grid on the "
                "simulator's schedule, which a live run does not have; "
                "grow a live fleet with --chaos joins "
                "(LiveFailureSchedule.joins) instead"
            )

    def wall_duration(self) -> float:
        """The run's wall-clock horizon in seconds."""
        return self.duration / self.time_scale

    def scale(self) -> ScenarioScale:
        """The run's size in the terms the grid assembly speaks."""
        return ScenarioScale(
            nodes=self.nodes,
            jobs=self.jobs,
            duration=self.duration,
            expanding_start=self.duration / 3,
            expanding_end=self.duration * 2 / 3,
            sample_interval=max(1.0, self.duration / 25),
        )

    def config_overrides(self) -> Dict[str, object]:
        """The :class:`~repro.core.config.AriaConfig` patches of this run."""
        overrides: Dict[str, object] = {"accept_wait": self.accept_wait}
        if self.failsafe:
            overrides.update(
                failsafe=True,
                probe_interval=600.0,
                probe_timeout=120.0,
                adoption=True,
            )
        return overrides

    def reliability_config(self) -> ReliabilityConfig:
        """Ack/retry policy whose *wall* timings suit a localhost overlay.

        The first ack timeout lands at ~50 wall milliseconds — roomy
        against a sub-millisecond localhost round-trip, tight enough that
        a genuine loss retries well within the accept window — and backs
        off to a cap of ~2 wall seconds.
        """
        return ReliabilityConfig(
            ack_timeout=0.05 * self.time_scale,
            backoff=2.0,
            max_timeout=2.0 * self.time_scale,
            max_retries=5,
            jitter=0.5,
        )

    def open_transport(self, clock) -> LiveTransport:
        """A :class:`LiveTransport` on ``clock`` with the scenario's
        message loss and this run's fault plan applied."""
        transport = LiveTransport(
            clock,
            loss_probability=get_scenario(self.scenario_name).message_loss,
            send_timeout=self.send_timeout,
        )
        if self.fault_plan is not None:
            apply_fault_plan(transport, self.fault_plan)
        return transport

    def submission_schedule(self) -> SubmissionSchedule:
        """The compressed run's evenly spaced submissions."""
        return SubmissionSchedule(
            job_count=self.jobs,
            interval=self.submission_interval,
            start=self.submission_start,
        )


def start_collector(
    config: WireRunConfig, registry, targets, now, group_of=None
) -> Tuple[Optional[TelemetryCollector], Optional[asyncio.Task]]:
    """Scrape the fleet's ``/metrics`` into ``fleet.*`` series every
    ``config.scrape_interval`` wall seconds (0 disables: ``(None,
    None)``), redrawing the ``repro top`` dashboard after each round
    when ``config.dashboard`` is set.  The other arguments are
    :class:`TelemetryCollector`'s."""
    if config.scrape_interval <= 0:
        return None, None
    collector = TelemetryCollector(registry, targets, now, group_of=group_of)
    on_round = None
    if config.dashboard:

        def on_round(c: TelemetryCollector) -> None:
            # Clear + home, then the whole frame in one write.
            print("\x1b[2J\x1b[H" + render_dashboard(c), end="", flush=True)

    task = asyncio.get_running_loop().create_task(
        collector.run(config.scrape_interval, on_round=on_round)
    )
    return collector, task


@contextlib.contextmanager
def stop_on_signal() -> Iterator[asyncio.Event]:
    """An event that SIGINT/SIGTERM set instead of killing the run.

    A signal cuts the run short *gracefully*: the wait loop exits, the
    normal teardown path flushes and closes the trace sinks (every
    recorded segment stays parseable) and the final result is still
    produced — an interrupted soak is a shorter soak, not a corrupt one.
    """
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            continue  # non-POSIX loop or nested handler: run uncovered
        installed.append(signum)
    try:
        yield stop
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)


async def wait_out(
    config: WireRunConfig,
    stop: asyncio.Event,
    settled: Callable[[], bool],
    abort: Optional[Callable[[], bool]] = None,
) -> None:
    """Let wall time pass: until the horizon, until ``stop`` is set or
    ``abort()`` turns true, or — with ``config.early_exit_grace`` —
    until ``settled()`` has held for that many wall seconds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + config.wall_duration()
    quiet_since: Optional[float] = None
    while not stop.is_set():
        remaining = deadline - loop.time()
        if remaining <= 0:
            return
        try:
            await asyncio.wait_for(stop.wait(), timeout=min(0.1, remaining))
            return
        except asyncio.TimeoutError:
            pass
        if abort is not None and abort():
            return
        if not config.early_exit_grace:
            continue
        if not settled():
            quiet_since = None
        elif quiet_since is None:
            quiet_since = loop.time()
        elif loop.time() - quiet_since >= config.early_exit_grace:
            return
