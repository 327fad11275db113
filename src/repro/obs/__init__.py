"""Observability layer: trace bus, metrics registry, timeline explainer.

``repro.obs`` is the cross-cutting layer the aggregate-only metrics
could not provide (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.trace` — typed, schema-checked event tracing with
  pluggable sinks (JSONL, in-memory ring buffer, Chrome/Perfetto);
  configured per run via :class:`TraceConfig`, off by default;
* :mod:`repro.obs.metrics` — a uniform :class:`MetricsRegistry`
  (counters / gauges / histograms with labels) that the ad-hoc counters
  in ``GridMetrics``, ``Transport`` and the reliability layer live on,
  surfaced as ``RunSummary.telemetry``;
* :mod:`repro.obs.timeline` — :func:`explain_job` /
  :class:`JobTimeline`, reconstructing one job's full lifecycle from a
  trace (also the ``repro explain-job`` CLI);
* :mod:`repro.obs.exposition` — Prometheus text-format rendering of a
  registry (the live ``GET /metrics`` pages) and its parser;
* :mod:`repro.obs.validate` — the importable trace-schema validator
  behind ``scripts/validate_trace.py``.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".exposition": ("CONTENT_TYPE", "parse_prometheus", "render_prometheus"),
    ".metrics": (
        "BoundedSeries", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    ),
    ".timeline": ("JobTimeline", "explain_job"),
    ".trace": (
        "EVENTS", "LEVELS", "JsonlSink", "MemorySink", "PerfettoSink",
        "TraceConfig", "Tracer", "iter_job_events", "load_trace",
        "merge_perfetto_traces", "message_job_id", "read_trace",
        "rotated_trace_paths", "validate_event",
    ),
    ".validate": ("validate_trace_file",),
})
