"""Unit tests for the trace bus: schema, config, sinks, tracer."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    EVENTS,
    LEVELS,
    JsonlSink,
    MemorySink,
    PerfettoSink,
    TraceConfig,
    Tracer,
    load_trace,
    message_job_id,
    validate_event,
)


# -- schema ------------------------------------------------------------
def test_every_event_declares_a_known_level():
    for name, (level, fields) in EVENTS.items():
        assert level in LEVELS and level != "off", name
        assert isinstance(fields, tuple), name


def test_validate_event_accepts_a_wellformed_event():
    event = {"t": 1.0, "ev": "job.submitted", "job": 1, "node": 2}
    assert validate_event(event) == []


def test_validate_event_flags_problems():
    assert validate_event({"t": 1.0}) == ["event has no 'ev' field"]
    assert "unknown event name" in validate_event({"ev": "nope"})[0]
    missing = validate_event({"t": 1.0, "ev": "job.submitted", "job": 1})
    assert any("node" in problem for problem in missing)
    extra = validate_event(
        {"t": 1.0, "ev": "job.submitted", "job": 1, "node": 2, "x": 3}
    )
    assert any("unexpected field 'x'" in problem for problem in extra)


def test_message_job_id_reads_either_shape():
    class WithId:
        job_id = 7

    class WithJob:
        class job:
            job_id = 9

    class Neither:
        pass

    assert message_job_id(WithId()) == 7
    assert message_job_id(WithJob()) == 9
    assert message_job_id(Neither()) is None


# -- config ------------------------------------------------------------
def test_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        TraceConfig(level="verbose")
    with pytest.raises(ConfigurationError):
        TraceConfig(sink="csv")
    with pytest.raises(ConfigurationError):
        TraceConfig(sink="jsonl", path=None)
    with pytest.raises(ConfigurationError):
        TraceConfig(sink="memory", events=("not.an.event",))
    with pytest.raises(ConfigurationError):
        TraceConfig(sink="memory", memory_capacity=0)


def test_config_resolves_seed_placeholder():
    config = TraceConfig(path="trace-{seed}.jsonl")
    assert config.resolved(3).path == "trace-3.jsonl"
    plain = TraceConfig(path="trace.jsonl")
    assert plain.resolved(3) is plain


def test_config_roundtrips_through_dict():
    config = TraceConfig(
        level="transport",
        sink="memory",
        events=("msg.sent", "msg.delivered"),
        telemetry=False,
    )
    assert TraceConfig.from_dict(config.to_dict()) == config
    assert json.dumps(config.to_dict())  # JSON-able (cache-key contract)


# -- tracer + sinks ----------------------------------------------------
def test_tracer_filters_by_level():
    tracer = Tracer(TraceConfig(level="protocol", sink="memory"))
    tracer.emit("job.submitted", 1.0, job=1, node=2)
    tracer.emit("msg.sent", 1.0, src=1, dst=2, type="Request")
    assert [e["ev"] for e in tracer.events] == ["job.submitted"]
    assert tracer.wants("job.submitted")
    assert not tracer.wants("msg.sent")
    assert tracer.wants_level("protocol")
    assert not tracer.wants_level("transport")


def test_tracer_honours_event_allowlist():
    config = TraceConfig(
        level="transport", sink="memory", events=("msg.sent",)
    )
    tracer = Tracer(config)
    tracer.emit("msg.sent", 1.0, src=1, dst=2, type="Request")
    tracer.emit("msg.delivered", 2.0, src=1, dst=2, type="Request")
    tracer.emit("job.submitted", 3.0, job=1, node=2)
    assert [e["ev"] for e in tracer.events] == ["msg.sent"]


def test_memory_sink_is_a_ring_buffer():
    sink = MemorySink(capacity=2)
    for index in range(5):
        sink.append({"t": float(index), "ev": "kernel.event"})
    assert len(sink) == 2
    assert [e["t"] for e in sink.events] == [3.0, 4.0]


def test_jsonl_sink_roundtrips_through_load_trace(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(path)
    sink.append({"t": 1.0, "ev": "job.submitted", "job": 1, "node": 2})
    sink.append({"t": 2.0, "ev": "job.finished", "job": 1, "node": 3})
    sink.close()
    events = load_trace(path)
    assert [e["ev"] for e in events] == ["job.submitted", "job.finished"]
    assert all(validate_event(e) == [] for e in events)


def _rotating_event(index):
    return {"t": float(index), "ev": "job.submitted", "job": index, "node": 0}


def test_rotating_sink_rotates_and_bounds_disk(tmp_path):
    path = tmp_path / "soak.jsonl"
    line = len(json.dumps(_rotating_event(0), separators=(",", ":"))) + 1
    # Room for two lines per file: every third append rotates.
    sink = JsonlSink(str(path), max_bytes=2 * line + 5, backups=2)
    for index in range(10):
        sink.append(_rotating_event(index))
    sink.close()

    assert sink.emitted == 10
    assert sink.rotations == 4
    # The newest events are always in the active file ...
    newest = [json.loads(l) for l in path.read_text().splitlines()]
    assert [e["job"] for e in newest] == [8, 9]
    # ... and the backup cascade keeps the next-newest, oldest dropped.
    backup1 = (tmp_path / "soak.jsonl.1").read_text().splitlines()
    backup2 = (tmp_path / "soak.jsonl.2").read_text().splitlines()
    assert [json.loads(l)["job"] for l in backup1] == [6, 7]
    assert [json.loads(l)["job"] for l in backup2] == [4, 5]
    assert not (tmp_path / "soak.jsonl.3").exists()  # backups=2 bound
    # The one reader stitches every surviving segment, oldest first.
    assert [e["job"] for e in load_trace(path)] == [4, 5, 6, 7, 8, 9]


def test_rotating_sink_without_overflow_is_a_plain_jsonl(tmp_path):
    path = tmp_path / "soak.jsonl"
    sink = JsonlSink(str(path), max_bytes=1 << 20, backups=3)
    for index in range(5):
        sink.append(_rotating_event(index))
    sink.close()
    assert sink.rotations == 0
    events = load_trace(path)
    assert [e["job"] for e in events] == [0, 1, 2, 3, 4]
    assert all(validate_event(e) == [] for e in events)


def test_reader_drops_a_torn_tail_and_raises_on_interior_corruption(tmp_path):
    from repro.obs import read_trace

    path = tmp_path / "killed.jsonl"
    good = json.dumps(_rotating_event(0), separators=(",", ":"))
    # What SIGKILL leaves: a complete rotated segment, and an active file
    # whose last line stopped mid-record.
    (tmp_path / "killed.jsonl.1").write_text(good + "\n")
    path.write_text(good + "\n" + good[:17])
    events, torn = read_trace(path)
    assert [e["job"] for e in events] == [0, 0]
    assert torn == 1
    assert load_trace(path) == events
    # A bad line with good lines after it is not a torn write.
    path.write_text(good[:17] + "\n" + good + "\n")
    with pytest.raises(ValueError, match="corrupt at line 1"):
        read_trace(path)
    with pytest.raises(FileNotFoundError):
        read_trace(tmp_path / "nope.jsonl")


def test_rotating_sink_validates_parameters(tmp_path):
    with pytest.raises(ConfigurationError):
        JsonlSink(str(tmp_path / "t.jsonl"), max_bytes=0)
    with pytest.raises(ConfigurationError):
        JsonlSink(str(tmp_path / "t.jsonl"), backups=0)


def test_config_rotate_bytes_makes_a_rotating_sink(tmp_path):
    config = TraceConfig(
        sink="jsonl", path=str(tmp_path / "t.jsonl"), rotate_bytes=1 << 20
    )
    sink = config.make_sink()
    try:
        assert isinstance(sink, JsonlSink)
        assert sink.max_bytes == 1 << 20
    finally:
        sink.close()
    with pytest.raises(ConfigurationError):
        TraceConfig(sink="memory", rotate_bytes=1 << 20)
    with pytest.raises(ConfigurationError):
        TraceConfig(
            sink="jsonl", path=str(tmp_path / "t.jsonl"), rotate_bytes=-1
        )
    # rotate_bytes participates in the cache-key contract.
    assert TraceConfig.from_dict(config.to_dict()) == config


def test_perfetto_sink_writes_trace_event_json(tmp_path):
    path = tmp_path / "trace.json"
    sink = PerfettoSink(path)
    sink.append(
        {"t": 1.0, "ev": "kernel.event", "name": "f", "wall_us": 10.0,
         "dur_us": 3.0}
    )
    sink.append({"t": 2.0, "ev": "job.submitted", "job": 1, "node": 2})
    sink.close()
    document = json.loads(path.read_text())
    phases = [entry["ph"] for entry in document["traceEvents"]]
    assert "X" in phases and "i" in phases


def test_file_tracer_rejects_events_property(tmp_path):
    tracer = Tracer(TraceConfig(path=str(tmp_path / "t.jsonl")))
    tracer.close()
    with pytest.raises(ConfigurationError):
        tracer.events


# -- end-to-end: a traced run obeys the published schema ---------------
def test_traced_run_events_all_validate():
    from repro.experiments import ScenarioScale, run

    result = run(
        "iMixed",
        ScenarioScale.tiny(),
        seed=0,
        trace=TraceConfig(level="transport", sink="memory"),
    )
    assert result.trace_events, "transport-level trace recorded nothing"
    for event in result.trace_events:
        assert validate_event(event) == [], event
    names = {event["ev"] for event in result.trace_events}
    assert "job.submitted" in names
    assert "assign.winner" in names
    assert "msg.delivered" in names
    assert result.telemetry["jobs.completed"] > 0


def test_tracing_does_not_change_the_simulated_outcome():
    from repro.experiments import ScenarioScale, run

    plain = run("iMixed", ScenarioScale.tiny(), seed=1).summary()
    traced = run(
        "iMixed",
        ScenarioScale.tiny(),
        seed=1,
        trace=TraceConfig(level="kernel", sink="memory"),
    ).summary()
    plain_dict = plain.to_dict()
    traced_dict = traced.to_dict()
    traced_dict.pop("telemetry", None)
    assert traced_dict == plain_dict
