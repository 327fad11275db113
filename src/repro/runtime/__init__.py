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

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".clock": ("WallClock",),
    ".codec": (
        "decode_envelope", "decode_job", "decode_message", "encode_envelope",
        "encode_job", "encode_message",
    ),
    ".proc": (
        "ProcRunConfig", "ProcRunResult", "ProcessFailureSchedule",
        "Supervisor", "WorkerSpec", "run_procs", "worker_main",
    ),
    ".serve": ("LiveFailureSchedule", "LiveRunConfig", "run_live"),
    ".telemetry": (
        "NodeSample", "TelemetryCollector", "render_dashboard", "sparkline",
    ),
    ".transport": ("HEALTH_PATH", "METRICS_PATH", "SUBMIT_PATH", "LiveTransport"),
})
