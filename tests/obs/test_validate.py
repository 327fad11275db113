"""The importable trace validator behind ``scripts/validate_trace.py``."""

import json

from repro.obs.validate import main, validate_trace_file


def _write_jsonl(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")


GOOD = [
    {"t": 0.0, "ev": "job.submitted", "job": 1, "node": 0},
    {"t": 1.0, "ev": "request.broadcast", "job": 1, "node": 0, "retry": 0},
    {"t": 2.0, "ev": "job.finished", "job": 1, "node": 3, "wall": 1e9},
]


def test_clean_trace_has_no_problems(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write_jsonl(path, GOOD)
    problems, counts = validate_trace_file(str(path))
    assert problems == []
    assert counts == {
        "job.submitted": 1,
        "request.broadcast": 1,
        "job.finished": 1,
    }


def test_schema_violations_are_reported_with_line_numbers(tmp_path):
    path = tmp_path / "trace.jsonl"
    _write_jsonl(
        path,
        [
            {"t": 0.0, "ev": "job.submitted", "job": 1, "node": 0},
            {"t": 1.0, "ev": "no.such.event"},
            {"t": 2.0, "ev": "job.finished", "job": 2},  # missing node
            {"t": 3.0, "ev": "job.queued", "job": 2, "node": 1, "bogus": 9},
        ],
    )
    problems, counts = validate_trace_file(str(path))
    assert len(problems) == 3
    assert any(":2:" in p and "unknown event" in p for p in problems)
    assert any(":3:" in p and "'node'" in p for p in problems)
    assert any(":4:" in p and "'bogus'" in p for p in problems)
    assert counts["no.such.event"] == 1


def test_rotated_mode_stitches_backup_segments_oldest_first(tmp_path):
    active = tmp_path / "soak.jsonl"
    _write_jsonl(str(active) + ".2", GOOD[:1])
    _write_jsonl(str(active) + ".1", GOOD[1:2])
    _write_jsonl(active, GOOD[2:])
    problems, counts = validate_trace_file(str(active))
    assert problems == []
    assert sum(counts.values()) == 3


def test_torn_tail_is_reported_as_a_problem(tmp_path):
    path = tmp_path / "killed.jsonl"
    _write_jsonl(path, GOOD)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"t": 9.0, "ev": "job.fin')
    problems, counts = validate_trace_file(str(path))
    assert sum(counts.values()) == 3
    assert len(problems) == 1 and "torn" in problems[0]


def test_main_exits_zero_on_a_clean_trace(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    _write_jsonl(path, GOOD)
    assert main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "3 events, 0 problem(s)" in out
    assert "job.submitted" in out


def test_main_exits_nonzero_on_problems_and_caps_output(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    _write_jsonl(path, [{"t": float(i), "ev": "bad.event"} for i in range(5)])
    assert main([str(path), "--max-problems", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("unknown event") == 2
    assert "5 events, 5 problem(s)" in captured.out


def test_main_exits_nonzero_on_an_empty_trace(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main([str(path)]) == 1
    assert "no events" in capsys.readouterr().err
