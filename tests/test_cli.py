"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_prints_all_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("FCFS", "iMixed", "iInform30m", "iAccuracyBad"):
        assert name in out


def test_run_prints_summary(capsys):
    assert main(["run", "Mixed", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "completed jobs" in out
    assert "avg completion" in out
    assert "traffic Request" in out


def test_run_with_profile_prints_report_and_summary(capsys):
    assert main(["run", "Mixed", "--scale", "tiny", "--profile"]) == 0
    captured = capsys.readouterr()
    assert "completed jobs" in captured.out  # normal summary still printed
    assert "cumulative" in captured.err  # cProfile table on stderr
    assert "function calls" in captured.err


def test_run_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["run", "NotAScenario", "--scale", "tiny"])


def test_figure_renders(capsys):
    assert main(["figure", "fig4", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "iDeadline" in out


def test_baseline_runs(capsys):
    assert main(["baseline", "random", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "completion" in out


def test_multi_seed_run(capsys):
    assert main(
        ["run", "Mixed", "--scale", "tiny", "--seeds", "2", "--seed-base", "3"]
    ) == 0
    assert "seeds (3, 4)" in capsys.readouterr().out


def test_run_with_faults_reports_clean_invariants(capsys):
    assert main(
        ["run", "iMixed", "--scale", "tiny", "--faults", "--no-cache"]
    ) == 0
    out = capsys.readouterr().out
    assert "iMixed+faults+reliable" in out
    assert "invariants: OK" in out
    assert "net_reliable_delivered" in out


def test_run_with_faults_without_reliability_exits_nonzero(capsys):
    # Seed 0 of the default chaos plan strands jobs when the reliability
    # layer and fail-safe are off; the CLI must surface that and fail.
    assert main(
        [
            "run", "iMixed", "--scale", "tiny",
            "--faults", "--no-reliability", "--no-cache",
        ]
    ) == 1
    out = capsys.readouterr().out
    assert "iMixed+faults" in out
    assert "VIOLATION (seed 0)" in out


def test_run_with_inline_fault_plan(capsys):
    assert main(
        [
            "run", "iMixed", "--scale", "tiny", "--no-cache",
            "--faults", '{"loss": 0.1, "duplicate": 0.05}',
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "invariants: OK" in out
    assert "net_fault_iid_lost" in out


def test_run_with_fault_plan_file(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text('{"loss": 0.08, "partitions": [[1000, 1600]]}')
    assert main(
        [
            "run", "iMixed", "--scale", "tiny", "--no-cache",
            "--faults", str(plan_path),
        ]
    ) == 0
    assert "invariants: OK" in capsys.readouterr().out


def test_trace_generation(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(
        ["trace", str(path), "--jobs", "25", "--deadline-slack", "7.5"]
    ) == 0
    assert "wrote 25 jobs" in capsys.readouterr().out
    from repro.workload import WorkloadTrace

    trace = WorkloadTrace.load(path)
    assert len(trace) == 25
    assert all(entry.deadline is not None for entry in trace)


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_run_with_profile_out_saves_stats(tmp_path, capsys):
    import pstats

    out = tmp_path / "profile.pstats"
    assert main(
        ["run", "Mixed", "--scale", "tiny", "--profile-out", str(out)]
    ) == 0
    captured = capsys.readouterr()
    assert "completed jobs" in captured.out  # normal summary still printed
    assert "cumulative" not in captured.err  # no report without --profile
    assert pstats.Stats(str(out)).total_calls > 0


def test_run_with_trace_then_explain_job(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    assert main(
        ["run", "Mixed", "--scale", "tiny", "--trace", str(trace_path)]
    ) == 0
    capsys.readouterr()

    from repro.obs import load_trace

    events = load_trace(trace_path)
    job_id = next(e["job"] for e in events if e["ev"] == "job.finished")
    assert main(["explain-job", str(trace_path), str(job_id)]) == 0
    out = capsys.readouterr().out
    assert f"job {job_id}:" in out
    assert "timeline:" in out
    assert "broadcast REQUEST" in out


def test_explain_job_json_output(tmp_path, capsys):
    import json

    trace_path = tmp_path / "run.jsonl"
    assert main(
        ["run", "Mixed", "--scale", "tiny", "--trace", str(trace_path)]
    ) == 0
    capsys.readouterr()
    from repro.obs import load_trace

    events = load_trace(trace_path)
    job_id = next(e["job"] for e in events if e["ev"] == "job.finished")
    assert main(
        ["explain-job", str(trace_path), str(job_id), "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["job"] == job_id
    assert payload["decisions"]


def test_explain_job_unknown_job_errors(tmp_path, capsys):
    trace_path = tmp_path / "run.jsonl"
    assert main(
        ["run", "Mixed", "--scale", "tiny", "--trace", str(trace_path)]
    ) == 0
    capsys.readouterr()
    assert main(["explain-job", str(trace_path), "999999"]) == 1
    assert "no events for job 999999" in capsys.readouterr().err


def test_trace_level_requires_trace_path():
    with pytest.raises(SystemExit):
        main(["run", "Mixed", "--scale", "tiny", "--trace-level", "kernel"])


def test_multi_seed_trace_requires_seed_placeholder(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "run", "Mixed", "--scale", "tiny", "--seeds", "2",
                "--trace", str(tmp_path / "t.jsonl"),
            ]
        )


def test_run_progress_reports_on_stderr(capsys):
    assert main(
        ["run", "Mixed", "--scale", "tiny", "--seeds", "2", "--progress",
         "--no-cache"]
    ) == 0
    err = capsys.readouterr().err
    assert "[1/2] runs complete" in err
    assert "[2/2] runs complete" in err


def test_serve_with_faults_and_chaos_exits_clean(capsys):
    assert main(
        [
            "serve", "iMixed", "--nodes", "4", "--jobs", "2",
            "--duration", "2400", "--time-scale", "600",
            "--faults", "--chaos",
        ]
    ) == 0
    captured = capsys.readouterr()
    assert "faults on" in captured.err
    assert "lifecycle chaos on" in captured.err
    assert "invariants: OK" in captured.out


def test_soak_runs_clean_and_streams_a_trace(tmp_path, capsys):
    trace_path = tmp_path / "soak.jsonl"
    assert main(
        [
            "soak", "--nodes", "4", "--jobs", "2",
            "--wall-seconds", "4", "--time-scale", "600",
            "--trace", str(trace_path),
        ]
    ) == 0
    captured = capsys.readouterr()
    assert "invariant oracle armed" in captured.err
    assert "events checked online" in captured.out
    assert (
        "invariants: OK (every transition and trace event + end of run)"
        in captured.out
    )
    from repro.obs import load_trace, validate_event

    events = load_trace(trace_path)
    assert events
    assert all(validate_event(event) == [] for event in events)


def test_soak_seeded_violation_exits_nonzero(tmp_path, capsys):
    assert main(
        [
            "soak", "--nodes", "4", "--jobs", "2",
            "--wall-seconds", "4", "--time-scale", "600",
            "--trace", str(tmp_path / "soak.jsonl"),
            "--seed-violation",
        ]
    ) == 1
    captured = capsys.readouterr()
    assert "VIOLATION: job 999999999 finished twice" in captured.out
    assert "double execution" in captured.out


def test_explain_job_reads_rotated_soak_segments(tmp_path, capsys):
    trace_path = tmp_path / "soak.jsonl"
    assert main(
        ["run", "Mixed", "--scale", "tiny", "--trace", str(trace_path)]
    ) == 0
    # Simulate a soak rotation: every event lands in backup segment .1,
    # leaving a fresh (empty) active file — the explainer must stitch.
    (tmp_path / "soak.jsonl.1").write_text(trace_path.read_text())
    trace_path.write_text("")
    from repro.obs import load_trace

    job_id = next(
        event["job"]
        for event in load_trace(str(trace_path))
        if event["ev"] == "job.finished"
    )
    capsys.readouterr()
    assert main(["explain-job", str(trace_path), str(job_id)]) == 0
    assert "timeline:" in capsys.readouterr().out


def test_explain_job_missing_trace_errors(tmp_path, capsys):
    assert main(["explain-job", str(tmp_path / "nope.jsonl"), "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_top_renders_down_nodes_without_servers(capsys):
    assert main(
        [
            "top", "--targets", "127.0.0.1:9,127.0.0.1:13",
            "--iterations", "1", "--interval", "0",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "ARiA fleet (repro top)" in out
    assert "down" in out
    assert "scrape failures 2" in out
