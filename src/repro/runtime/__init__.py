"""Live asyncio runtime: run ARiA agents as real networked processes.

The simulator proves the protocol's *logic*; this package proves its
*portability*.  The exact same :class:`~repro.core.protocol.AriaAgent`,
scheduler and cost code runs here unchanged, because both worlds sit
behind two small seams:

* the :class:`~repro.clock.Clock` protocol — implemented by the
  discrete-event :class:`~repro.sim.Simulator` and, here, by
  :class:`WallClock` over an asyncio event loop;
* the :class:`~repro.net.Transport` interface — implemented by
  :class:`~repro.net.SimTransport` and, here, by :class:`LiveTransport`
  over HTTP+JSON between per-node asyncio servers.

``repro serve`` (see :mod:`repro.runtime.serve`) boots an N-node overlay
on localhost, runs a paper scenario against it in scaled wall time, and
emits the same :class:`~repro.experiments.RunSummary`, trace-bus events
and invariant verdicts as a simulated run.

Both coordinators scrape their fleet's ``/metrics`` pages with the
:class:`TelemetryCollector` of :mod:`repro.runtime.telemetry`, which also
renders the ``repro top`` dashboard.

One rung further, :mod:`repro.runtime.proc` (``repro serve --procs``)
runs the overlay as *separate OS processes* under a supervisor with
crash recovery and durable journals — real process deaths, real
recovery from disk and wire.
"""

from .clock import WallClock
from .codec import (
    decode_envelope,
    decode_job,
    decode_message,
    encode_envelope,
    encode_job,
    encode_message,
)
from .proc import (
    ProcRunConfig,
    ProcRunResult,
    ProcessFailureSchedule,
    Supervisor,
    WorkerSpec,
    run_procs,
    worker_main,
)
from .serve import LiveFailureSchedule, LiveRunConfig, run_live
from .telemetry import (
    NodeSample,
    TelemetryCollector,
    render_dashboard,
    sparkline,
)
from .transport import (
    HEALTH_PATH,
    METRICS_PATH,
    SUBMIT_PATH,
    LiveTransport,
)

__all__ = [
    "HEALTH_PATH",
    "METRICS_PATH",
    "SUBMIT_PATH",
    "LiveFailureSchedule",
    "LiveRunConfig",
    "LiveTransport",
    "NodeSample",
    "ProcRunConfig",
    "ProcRunResult",
    "ProcessFailureSchedule",
    "Supervisor",
    "TelemetryCollector",
    "WallClock",
    "WorkerSpec",
    "decode_envelope",
    "decode_job",
    "decode_message",
    "encode_envelope",
    "encode_job",
    "encode_message",
    "render_dashboard",
    "run_live",
    "run_procs",
    "sparkline",
    "worker_main",
]
