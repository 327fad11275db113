"""The trace bus: structured, typed, near-zero-overhead event tracing.

Every published number in the paper (Figs. 1-10, Table II) is an
end-of-run aggregate, and so were our metrics until now.  Aggregates
cannot answer *why* questions — why did node 17 win job 403, which
dropped message stranded a job, where did the reschedule rate go after a
partition.  The trace bus records the underlying events themselves:

* **Typed events.**  Every emission is one of the names in
  :data:`EVENTS`, each with a fixed level and field schema
  (:func:`validate_event` checks a recorded event against it — the JSONL
  schema is a published, CI-enforced contract).
* **Levels.**  ``protocol`` records the ARiA state machine (submissions,
  REQUEST/ACCEPT/INFORM/ASSIGN decisions with their costs, job state
  transitions); ``transport`` adds per-message network activity (send /
  deliver / drop / loss / retransmission); ``kernel`` adds per-event
  wall-clock spans from the simulation kernel for profiling.  Each level
  includes the ones before it.
* **Pluggable sinks.**  :class:`JsonlSink` streams events to disk (one
  JSON object per line), :class:`MemorySink` keeps a bounded in-memory
  ring buffer, and :class:`PerfettoSink` writes Chrome/Perfetto
  ``trace_event`` JSON that loads straight into ``ui.perfetto.dev``.

Tracing is **off by default** and costs one ``is None`` attribute check
at each instrumentation point when disabled: components hold a tracer
only when their level is active, so golden summaries stay byte-identical
and the hot path stays within noise (see ``docs/OBSERVABILITY.md``).

Typical usage::

    from repro.experiments import ScenarioScale, run
    from repro.obs import TraceConfig

    run("iMixed", ScenarioScale.tiny(), seed=0,
        trace=TraceConfig(level="transport", path="run.jsonl"))
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ConfigurationError

__all__ = [
    "EVENTS",
    "LEVELS",
    "JsonlSink",
    "MemorySink",
    "PerfettoSink",
    "TraceConfig",
    "Tracer",
    "load_trace",
    "merge_perfetto_traces",
    "message_job_id",
    "read_trace",
    "rotated_trace_paths",
    "validate_event",
]

#: Trace levels, most selective first.  Each level implies the previous
#: ones: ``kernel`` traces everything ``transport`` does and more.
LEVELS: Dict[str, int] = {"off": 0, "protocol": 1, "transport": 2, "kernel": 3}

#: The published event schema: ``name -> (level, required fields)``.
#: Every event also carries ``t`` (simulated seconds) and ``ev`` (its
#: name); ``validate_event`` enforces exactly this table, and the CI
#: trace smoke job replays a recorded run against it.
EVENTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    # -- protocol: the ARiA state machine --------------------------------
    "job.submitted": ("protocol", ("job", "node")),
    "request.broadcast": ("protocol", ("job", "node", "retry")),
    "cost.evaluated": ("protocol", ("job", "node", "cost", "phase")),
    "accept.received": ("protocol", ("job", "node", "src", "cost", "phase")),
    "assign.winner": (
        "protocol",
        ("job", "node", "winner", "cost", "offers", "reschedule"),
    ),
    "assign.received": ("protocol", ("job", "node", "src", "reschedule")),
    "assign.duplicate": ("protocol", ("job", "node", "src")),
    "inform.broadcast": ("protocol", ("job", "node", "cost")),
    "reschedule.withdrawn": (
        "protocol",
        ("job", "node", "to", "own_cost", "offer_cost"),
    ),
    "job.queued": ("protocol", ("job", "node")),
    "job.started": ("protocol", ("job", "node")),
    "job.finished": ("protocol", ("job", "node")),
    "job.lost": ("protocol", ("job", "node")),
    "job.resubmitted": ("protocol", ("job", "node")),
    "job.unschedulable": ("protocol", ("job", "node")),
    "probe.sent": ("protocol", ("job", "node", "assignee")),
    "probe.miss": ("protocol", ("job", "node", "misses")),
    "node.crashed": ("protocol", ("node",)),
    "node.restarted": ("protocol", ("node", "incarnation")),
    "job.orphaned": ("protocol", ("job", "node", "initiator")),
    "job.adopted": ("protocol", ("job", "node", "initiator")),
    "deadline.exceeded": ("protocol", ("job", "node", "overdue")),
    # -- protocol: durable-journal recovery (process-isolated runtime) ----
    "journal.recovered": ("protocol", ("node", "incarnation", "entries")),
    "journal.replayed": ("protocol", ("job", "node", "incarnation")),
    # -- transport: per-message network activity -------------------------
    "msg.sent": ("transport", ("src", "dst", "type")),
    "msg.delivered": ("transport", ("src", "dst", "type")),
    "msg.dropped": ("transport", ("dst", "type", "reason")),
    "msg.lost": ("transport", ("src", "dst", "type", "reason")),
    "msg.duplicated": ("transport", ("src", "dst", "type")),
    "retry.sent": ("transport", ("src", "dst", "type", "msg_id", "attempt")),
    "retry.gave_up": ("transport", ("src", "dst", "type", "msg_id")),
    # -- transport: causal hops (paired send/recv with a propagated
    # trace id, so per-job cross-node chains and hop latencies are
    # reconstructable from the merged fleet trace) ------------------------
    "net.send": ("transport", ("src", "dst", "type", "trace", "hop")),
    "net.recv": (
        "transport",
        ("src", "dst", "type", "trace", "hop", "latency"),
    ),
    # -- kernel: per-event wall-clock spans ------------------------------
    "kernel.event": ("kernel", ("name", "wall_us", "dur_us")),
}

#: Optional fields allowed per event beyond the required schema.  The
#: transport annotates message events with the ``job`` the message is
#: about whenever the payload names one (Ack messages do not); live runs
#: stamp every record with the ``wall`` clock (epoch seconds) when the
#: tracer has a :attr:`Tracer.wall_source`; journal-backed executors
#: stamp ``job.finished`` with the ``incarnation`` that ran the job, so
#: a merged multi-process trace shows completion entries surviving a
#: kill verbatim.
_OPTIONAL_FIELDS = ("job", "wall", "incarnation")


def validate_event(event: Dict[str, Any]) -> List[str]:
    """Check one recorded event against the published schema.

    Returns a list of problems (empty = valid): unknown event name,
    missing ``t``/``ev``, missing required fields, or fields outside the
    schema.  Used by the CI trace smoke job and ``scripts/validate_trace.py``.
    """
    problems: List[str] = []
    name = event.get("ev")
    if name is None:
        return ["event has no 'ev' field"]
    spec = EVENTS.get(name)
    if spec is None:
        return [f"unknown event name {name!r}"]
    if not isinstance(event.get("t"), (int, float)):
        problems.append(f"{name}: missing/non-numeric 't'")
    _level, required = spec
    for field in required:
        if field not in event:
            problems.append(f"{name}: missing required field {field!r}")
    allowed = set(required) | set(_OPTIONAL_FIELDS) | {"t", "ev"}
    for field in event:
        if field not in allowed:
            problems.append(f"{name}: unexpected field {field!r}")
    return problems


def message_job_id(message) -> Optional[int]:
    """The job a message is about, or ``None`` (e.g. reliability Acks).

    Control messages carry a ``job_id`` field; REQUEST/INFORM/ASSIGN
    carry the full ``job`` descriptor.  Either way the trace annotates
    message events with the id, which is what lets the job-timeline
    explainer tie a dropped or retried message to the job it stranded.
    """
    job_id = getattr(message, "job_id", None)
    if job_id is not None:
        return job_id
    job = getattr(message, "job", None)
    return None if job is None else job.job_id


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class JsonlSink:
    """Streams events to a file, one compact JSON object per line.

    With ``max_bytes`` set (soak runs), an active file that would exceed
    it is rotated the way :mod:`logging`'s rotating handler does:
    ``path.1`` becomes ``path.2`` (up to ``backups``), the active file
    becomes ``path.1``, and writing continues into a fresh ``path``.  The
    newest events are therefore always in ``path`` itself, and total disk
    usage is bounded by ``(backups + 1) * max_bytes`` plus one line of
    slack — which is what lets a multi-hour soak stream a transport-level
    trace without filling the disk.  :func:`load_trace` reads the
    segments back as one stream.
    """

    def __init__(
        self, path, max_bytes: Optional[int] = None, backups: int = 3
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigurationError(f"non-positive max_bytes {max_bytes}")
        if backups < 1:
            raise ConfigurationError(f"need >= 1 backup file, got {backups}")
        self.path = path
        self.max_bytes = max_bytes
        self.backups = backups
        self.emitted = 0
        self.rotations = 0
        self._written = 0
        self._handle = open(path, "w", encoding="utf-8", buffering=1 << 16)

    def append(self, event: Dict[str, Any]) -> None:
        """Write one event as a JSONL line, rotating files when full."""
        line = json.dumps(event, separators=(",", ":")) + "\n"
        if (
            self.max_bytes is not None
            and self._written
            and self._written + len(line) > self.max_bytes
        ):
            self._rotate()
        self._handle.write(line)
        self._written += len(line)
        self.emitted += 1

    def _rotate(self) -> None:
        import os

        self._handle.close()
        for index in range(self.backups - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._handle = open(
            self.path, "w", encoding="utf-8", buffering=1 << 16
        )
        self._written = 0
        self.rotations += 1

    def close(self) -> None:
        """Flush and close the active file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class MemorySink:
    """Bounded in-memory ring buffer of events (keeps the newest)."""

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"non-positive capacity {capacity}")
        from collections import deque

        self.capacity = capacity
        self._buffer = deque(maxlen=capacity)

    def append(self, event: Dict[str, Any]) -> None:
        """Record one event (evicting the oldest when full)."""
        self._buffer.append(event)

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The buffered events, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def close(self) -> None:
        """No-op (memory sinks have nothing to flush)."""


class PerfettoSink:
    """Writes Chrome/Perfetto ``trace_event`` JSON for the whole overlay.

    ``kernel.event`` records (which carry wall-clock timestamps and
    durations) become complete ``"X"`` slices on the run-global track;
    every other event becomes a mark at its *simulated* time scaled to
    microseconds.  Tracks are node-aware: an event attributable to a node
    lands on ``pid = node_id + 1`` (``pid 0`` is the run-global track),
    with a ``process_name`` metadata record per node — so a multi-node
    run loads into ``ui.perfetto.dev`` as one timeline with one lane per
    node, and the mapping is stable across files merged with
    :func:`merge_perfetto_traces`.

    The paired causal-hop events get the full treatment: ``net.send`` /
    ``net.recv`` become tiny ``"X"`` slices joined by Perfetto flow
    arrows (``"s"`` / ``"f"`` with a stable id per ``(trace, hop)``), so
    a job's cross-node chain renders as arrows hopping between node
    lanes.
    """

    #: Run-global track (kernel slices, events naming no node).
    _GLOBAL_PID = 0

    def __init__(self, path) -> None:
        self.path = path
        self._events: List[Dict[str, Any]] = []
        self._flow_ids: Dict[Tuple[Any, Any], int] = {}
        self._pids: Set[int] = set()

    @staticmethod
    def _track(event: Dict[str, Any]) -> int:
        """The pid lane one event belongs to (``node_id + 1``; 0 global).

        Message events are attributed to the acting endpoint: the sender
        for sends, the receiver for deliveries/drops.
        """
        node = event.get("node")
        if node is None:
            name = event["ev"]
            if name in ("net.recv", "msg.delivered", "msg.dropped"):
                node = event.get("dst")
            else:
                node = event.get("src")
        if isinstance(node, int):
            return node + 1
        return PerfettoSink._GLOBAL_PID

    def _flow_id(self, event: Dict[str, Any]) -> int:
        key = (event["trace"], event["hop"])
        flow = self._flow_ids.get(key)
        if flow is None:
            flow = len(self._flow_ids) + 1
            self._flow_ids[key] = flow
        return flow

    def append(self, event: Dict[str, Any]) -> None:
        """Convert one trace-bus event into ``trace_event`` entries."""
        if "dur_us" in event:
            self._events.append(
                {
                    "name": event.get("name", event["ev"]),
                    "ph": "X",
                    "ts": event["wall_us"],
                    "dur": event["dur_us"],
                    "pid": self._GLOBAL_PID,
                    "tid": 0,
                    "cat": "kernel",
                }
            )
            return
        name = event["ev"]
        ts = event["t"] * 1e6
        pid = self._track(event)
        self._pids.add(pid)
        args = {k: v for k, v in event.items() if k not in ("t", "ev")}
        if name in ("net.send", "net.recv"):
            # A 1 us slice gives the flow arrow something to bind to.
            self._events.append(
                {
                    "name": f"{name} {event['type']}",
                    "ph": "X",
                    "ts": ts,
                    "dur": 1,
                    "pid": pid,
                    "tid": 0,
                    "cat": "net",
                    "args": args,
                }
            )
            flow = {
                "name": f"hop {event['trace']}/{event['hop']}",
                "ph": "s" if name == "net.send" else "f",
                "id": self._flow_id(event),
                "ts": ts,
                "pid": pid,
                "tid": 0,
                "cat": "net",
            }
            if name == "net.recv":
                flow["bp"] = "e"
            self._events.append(flow)
            return
        self._events.append(
            {
                "name": name,
                "ph": "i",
                "ts": ts,
                "pid": pid,
                "tid": 1,
                "s": "t",
                "cat": "protocol",
                "args": args,
            }
        )

    def close(self) -> None:
        """Write the accumulated ``traceEvents`` document (idempotent).

        Events are sorted by timestamp so every track reads
        monotonically, and each node lane gets a ``process_name``
        metadata record.
        """
        if self._events is None:
            return
        self._events.sort(key=lambda entry: entry["ts"])
        metadata = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {
                    "name": "run"
                    if pid == self._GLOBAL_PID
                    else f"node {pid - 1}"
                },
            }
            for pid in sorted(self._pids | {self._GLOBAL_PID})
        ]
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": metadata + self._events}, handle)
        self._events = None

    @property
    def events(self) -> List[Dict[str, Any]]:
        """The converted entries accumulated so far (before :meth:`close`)."""
        return list(self._events or [])


def merge_perfetto_traces(paths, out_path) -> int:
    """Merge per-process Perfetto exports into one overlay timeline.

    Node lanes are already globally identified (``pid = node_id + 1``),
    so merging is concatenation: metadata records are deduplicated, the
    rest is re-sorted by timestamp.  Returns the merged event count.
    """
    merged: List[Dict[str, Any]] = []
    seen_meta: Set[Tuple[Any, Any]] = set()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for entry in document.get("traceEvents", []):
            if entry.get("ph") == "M":
                key = (entry.get("pid"), entry.get("name"))
                if key in seen_meta:
                    continue
                seen_meta.add(key)
                merged.append(entry)
            else:
                merged.append(entry)
    metadata = [entry for entry in merged if entry.get("ph") == "M"]
    rest = [entry for entry in merged if entry.get("ph") != "M"]
    rest.sort(key=lambda entry: entry.get("ts", 0))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": metadata + rest}, handle)
    return len(metadata) + len(rest)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceConfig:
    """Frozen, JSON-able tracing spec accepted by ``run`` / ``run_batch``.

    ``level`` selects how deep to record (``"protocol"`` | ``"transport"``
    | ``"kernel"``; ``"off"`` disables event recording but still collects
    telemetry when ``telemetry`` is true).  ``events`` optionally
    restricts recording to an allowlist of :data:`EVENTS` names within
    the level.  ``sink`` is ``"jsonl"`` (default), ``"memory"``, or
    ``"perfetto"``; file sinks need ``path``, which may contain a
    ``{seed}`` placeholder for multi-seed batches.  ``telemetry``
    controls whether the run's metrics-registry snapshot is surfaced as
    ``RunSummary.telemetry``.

    The config is part of the experiment engine's cache key (a traced
    run must never be silently served from an untraced cache entry).
    """

    level: str = "protocol"
    sink: str = "jsonl"
    path: Optional[str] = None
    events: Optional[Tuple[str, ...]] = None
    memory_capacity: int = 1_000_000
    telemetry: bool = True
    #: When set (bytes) the jsonl sink rotates files at this size —
    #: soak runs bound their disk usage.
    rotate_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ConfigurationError(
                f"unknown trace level {self.level!r}; known: {sorted(LEVELS)}"
            )
        if self.sink not in ("jsonl", "memory", "perfetto"):
            raise ConfigurationError(
                f"unknown trace sink {self.sink!r}; "
                "known: ['jsonl', 'memory', 'perfetto']"
            )
        if self.sink in ("jsonl", "perfetto") and not self.path:
            raise ConfigurationError(
                f"trace sink {self.sink!r} requires a path"
            )
        if self.events is not None:
            object.__setattr__(self, "events", tuple(self.events))
            unknown = [e for e in self.events if e not in EVENTS]
            if unknown:
                raise ConfigurationError(
                    f"unknown trace event(s) {unknown}; see repro.obs.EVENTS"
                )
        if self.memory_capacity <= 0:
            raise ConfigurationError(
                f"non-positive memory_capacity {self.memory_capacity}"
            )
        if self.rotate_bytes is not None:
            if self.sink != "jsonl":
                raise ConfigurationError(
                    f"rotate_bytes requires the 'jsonl' sink, not "
                    f"{self.sink!r}"
                )
            if self.rotate_bytes <= 0:
                raise ConfigurationError(
                    f"non-positive rotate_bytes {self.rotate_bytes}"
                )

    def resolved(self, seed: int) -> "TraceConfig":
        """This config with any ``{seed}`` placeholder in ``path`` filled.

        Multi-seed batches resolve one config per work unit so every
        seed writes its own trace file.
        """
        if self.path is None or "{seed}" not in self.path:
            return self
        import dataclasses

        return dataclasses.replace(
            self, path=self.path.replace("{seed}", str(seed))
        )

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (the engine's cache-key contribution)."""
        return {
            "level": self.level,
            "sink": self.sink,
            "path": self.path,
            "events": list(self.events) if self.events is not None else None,
            "memory_capacity": self.memory_capacity,
            "telemetry": self.telemetry,
            "rotate_bytes": self.rotate_bytes,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceConfig":
        """Rebuild a config from :meth:`to_dict` data."""
        data = dict(payload)
        if data.get("events") is not None:
            data["events"] = tuple(data["events"])
        return cls(**data)

    def make_sink(self):
        """Instantiate the configured sink."""
        if self.sink == "jsonl":
            return JsonlSink(self.path, self.rotate_bytes)
        if self.sink == "perfetto":
            return PerfettoSink(self.path)
        return MemorySink(self.memory_capacity)


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
class Tracer:
    """Routes typed events to a sink, filtered by level and allowlist.

    The active-event set is precomputed at construction, so
    :meth:`emit` is one set-membership test, a dict build and a sink
    append — and components are handed the tracer *only when their
    level is active* (see :meth:`wants_level`), so a disabled level
    costs a single ``is None`` check at the instrumentation point.
    """

    __slots__ = ("sink", "config", "_active", "wall_source")

    def __init__(self, config: TraceConfig, sink=None) -> None:
        self.config = config
        self.sink = sink if sink is not None else config.make_sink()
        max_level = LEVELS[config.level]
        self._active = {
            name
            for name, (level, _fields) in EVENTS.items()
            if LEVELS[level] <= max_level
            and (config.events is None or name in config.events)
        }
        #: Optional wall-clock source (e.g. ``time.time``).  When set,
        #: every record gains a ``wall`` field — live runs use it so
        #: traces carry real timestamps next to protocol time.  Simulated
        #: runs leave it ``None``, keeping traces deterministic.
        self.wall_source: Optional[Callable[[], float]] = None

    def wants(self, event: str) -> bool:
        """Whether ``event`` would be recorded."""
        return event in self._active

    def wants_level(self, level: str) -> bool:
        """Whether any event of ``level`` is active (component gating)."""
        return any(
            name in self._active
            for name, (event_level, _fields) in EVENTS.items()
            if event_level == level
        )

    def emit(self, event: str, t: float, **fields) -> None:
        """Record one event at simulated time ``t`` (no-op if filtered)."""
        if event not in self._active:
            return
        record: Dict[str, Any] = {"t": t, "ev": event}
        record.update(fields)
        if self.wall_source is not None:
            record["wall"] = self.wall_source()
        self.sink.append(record)

    def close(self) -> None:
        """Flush/close the sink (idempotent)."""
        self.sink.close()

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Recorded events when the sink is a :class:`MemorySink`.

        Raises :class:`~repro.errors.ConfigurationError` for file sinks,
        which do not retain events in memory.
        """
        if isinstance(self.sink, MemorySink):
            return self.sink.events
        raise ConfigurationError(
            f"trace sink {type(self.sink).__name__} does not buffer events; "
            "use sink='memory' or load the written file with load_trace()"
        )


def rotated_trace_paths(path) -> List[str]:
    """Every segment of a (possibly rotated) trace, oldest first.

    A rotating :class:`JsonlSink` leaves ``path.N`` (oldest backup) ...
    ``path.1`` (newest backup) in front of the active ``path``; for an
    unrotated trace this is just ``[path]``.
    """
    import os

    path = os.fspath(path)
    backups: List[str] = []
    while os.path.exists(f"{path}.{len(backups) + 1}"):
        backups.append(f"{path}.{len(backups) + 1}")
    return backups[::-1] + [path]


def read_trace(path) -> Tuple[List[Dict[str, Any]], int]:
    """Read a JSONL trace back: ``(events, torn_lines)``.

    Every segment of a rotated trace is read, oldest events first, so a
    job whose lifecycle spans a rotation boundary still reconstructs in
    full.  The last line of a segment that does not parse is what a
    SIGKILLed writer's buffer leaves behind: it is dropped and counted.
    A bad line anywhere else cannot come from a torn write and raises
    ``ValueError`` (the rule :class:`~repro.core.journal.DurableJournal`
    applies to its own file).
    """
    events: List[Dict[str, Any]] = []
    torn_lines = 0
    for segment in rotated_trace_paths(path):
        bad_line = None
        with open(segment, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                if bad_line is not None:
                    raise ValueError(
                        f"trace {segment} is corrupt at line {bad_line}"
                    )
                try:
                    events.append(json.loads(line))
                except ValueError:
                    bad_line = number
        if bad_line is not None:
            torn_lines += 1
    return events, torn_lines


def load_trace(path) -> List[Dict[str, Any]]:
    """The events of a JSONL trace, rotated or not (:func:`read_trace`
    without the torn-line count)."""
    return read_trace(path)[0]


def iter_job_events(
    events: Iterable[Dict[str, Any]], job_id: int
) -> List[Dict[str, Any]]:
    """Events concerning one job, in recorded (time) order."""
    return [event for event in events if event.get("job") == job_id]


__all__.append("iter_job_events")
