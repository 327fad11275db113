"""Command-line interface.

Everything the library does is reachable from the shell::

    python -m repro list                         # Table II catalog
    python -m repro run iMixed --scale small     # one scenario
    python -m repro figure fig4 --scale small    # regenerate a figure
    python -m repro baseline centralized         # a comparison scheduler
    python -m repro trace out.json --jobs 200    # freeze a workload trace
    python -m repro run iMixed --faults          # chaos-test the protocol
    python -m repro run iMixed --failure-model   # crash/restart/fail-slow mix
    python -m repro run iMixed --trace t.jsonl   # record a protocol trace
    python -m repro explain-job t.jsonl 17       # why did job 17 land there?
    python -m repro serve --nodes 8              # live HTTP overlay run
    python -m repro serve --faults --chaos       # chaos on the live wire
    python -m repro soak --wall-seconds 600      # soak + online invariants
    python -m repro soak --top --chaos           # soak with live dashboard
    python -m repro top --port-base 18200        # watch a running overlay

All commands accept ``--scale tiny|small|medium|paper|large|huge`` and
``--seeds N``
(N seeds starting at ``--seed-base``, default 0; the paper averages 10).
Simulation commands also accept ``--parallel W`` (fan seeds out over W
worker processes; 0 = all cores) and ``--no-cache`` (skip the on-disk
result cache) — see :mod:`repro.experiments.engine`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .baselines import BASELINE_NAMES
from .experiments import (
    SCALES,
    SCENARIOS,
    FailureModel,
    FaultPlan,
    RunOptions,
    get_scenario,
    render_table,
    run,
    run_batch,
    summarize_runs,
)
from .experiments import figures as figures_module
from .experiments.report import fmt_hours, fmt_opt

__all__ = ["main"]

_FIGURES = {
    "fig1": figures_module.fig1_completed_jobs,
    "fig2": figures_module.fig2_completion_time,
    "fig3": figures_module.fig3_idle_nodes,
    "fig4": figures_module.fig4_deadlines,
    "fig5": figures_module.fig5_expanding,
    "fig6": figures_module.fig6_load_idle,
    "fig7": figures_module.fig7_load_completion,
    "fig8": figures_module.fig8_resched_policies,
    "fig9": figures_module.fig9_ert_accuracy,
    "fig10": figures_module.fig10_traffic,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="grid size (paper = 500 nodes / 1000 jobs)",
    )
    parser.add_argument(
        "--seeds", type=int, default=1, help="number of seeds to average"
    )
    parser.add_argument(
        "--seed-base", type=int, default=0, help="first seed value"
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="W",
        help="worker processes for the seed batch (0 = all cores)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache",
    )


def _scale_and_seeds(args) -> tuple:
    scale = SCALES[args.scale]()
    seeds = tuple(range(args.seed_base, args.seed_base + args.seeds))
    return scale, seeds


def _engine_kwargs(args) -> dict:
    """``run_batch`` keyword arguments from the common CLI flags."""
    return {
        "parallel": args.parallel,
        "cache": False if args.no_cache else None,
        "progress": True if getattr(args, "progress", False) else None,
    }


def _add_progress(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--progress",
        action="store_true",
        help="report per-seed batch progress on stderr",
    )


def _trace_config(args, seeds):
    """Build a :class:`TraceConfig` from ``--trace`` / ``--trace-level``.

    Returns ``None`` when tracing was not requested.  Multi-seed batches
    must embed a ``{seed}`` placeholder in the path so each seed writes
    its own trace file.
    """
    if args.trace is None:
        if args.trace_level is not None:
            raise SystemExit("--trace-level requires --trace PATH")
        return None
    from .obs import TraceConfig

    if len(seeds) > 1 and "{seed}" not in args.trace:
        raise SystemExit(
            "--trace with multiple seeds needs a {seed} placeholder "
            "in the path (e.g. trace-{seed}.jsonl)"
        )
    return TraceConfig(
        level=args.trace_level or "protocol", sink="jsonl", path=args.trace
    )


def _cmd_list(_args) -> int:
    rows = [
        [name, "yes" if scenario.rescheduling else "no", scenario.description]
        for name, scenario in SCENARIOS.items()
    ]
    print(render_table(["scenario", "resched", "description"], rows))
    return 0


def _add_wire(parser, *, jobs, trace, trace_level) -> None:
    """The flags ``serve`` and ``soak`` share; ``jobs`` / ``trace`` /
    ``trace_level`` are the ``(default, help)`` pairs that differ."""
    parser.add_argument(
        "scenario", nargs="?", default="iMixed", choices=sorted(SCENARIOS)
    )
    parser.add_argument(
        "--nodes", type=int, default=8, help="overlay size (default 8)"
    )
    parser.add_argument("--jobs", type=int, default=jobs[0], help=jobs[1])
    parser.add_argument(
        "--time-scale",
        type=float,
        default=300.0,
        metavar="X",
        help="protocol seconds per wall second (default 300)",
    )
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument(
        "--faults",
        nargs="?",
        const="default",
        default=None,
        metavar="PLAN",
        help="inject network faults on the live wire (same plan syntax as "
        "'run --faults'); arms the fail-safe extension so crashed "
        "deliveries are recovered",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="drive the representative live lifecycle schedule: one "
        "crash-restart, one mid-run join, one graceful leave",
    )
    parser.add_argument(
        "--trace", default=trace[0], metavar="PATH", help=trace[1]
    )
    parser.add_argument(
        "--trace-level",
        choices=("protocol", "transport", "kernel"),
        default=trace_level[0],
        help=trace_level[1],
    )
    parser.add_argument(
        "--port-base",
        type=int,
        default=None,
        metavar="PORT",
        help="bind node i's endpoint to PORT+i instead of ephemeral "
        "ports, so 'repro top' and external scrapers can find the "
        "fleet's /metrics pages",
    )
    parser.add_argument(
        "--top",
        action="store_true",
        help="render the streaming fleet dashboard while the run is live",
    )
    parser.add_argument(
        "--procs",
        action="store_true",
        help="run every node (group) as its own OS process under a "
        "supervisor with crash recovery and durable journals; --chaos "
        "then means real SIGKILL/SIGSTOP process chaos",
    )
    parser.add_argument(
        "--group-size",
        type=int,
        default=1,
        metavar="N",
        help="with --procs: nodes per worker process (default 1, full "
        "per-node isolation)",
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="with --procs: scratch directory for address files, "
        "journals and per-process traces (default: fresh temp dir)",
    )


def _parse_plan(cls, text: str, duration: float):
    """Build a ``cls`` plan (:class:`FaultPlan` for ``--faults``,
    :class:`FailureModel` for ``--failure-model``) from the flag's value.

    ``"default"`` (the bare-flag value) is the representative
    ``cls.chaos`` plan scaled to the run's protocol-time ``duration``; an
    inline ``{...}`` string is parsed as JSON; anything else is a path to
    a JSON file of the plan's fields.
    """
    if text == "default":
        return cls.chaos(duration)
    import json

    if text.lstrip().startswith("{"):
        data = json.loads(text)
    else:
        from pathlib import Path

        data = json.loads(Path(text).read_text())
    return cls(**data)


def _cmd_run(args) -> int:
    scale, seeds = _scale_and_seeds(args)
    scenario = get_scenario(args.scenario)
    trace = _trace_config(args, seeds)
    if args.failure_model is not None:
        spec = _parse_plan(FailureModel, args.failure_model, scale.duration)
        options = RunOptions(
            scenario_name=args.scenario,
            reliability=not args.no_reliability,
            adoption=not args.no_adoption,
            # Compose node failures with network faults in one run.
            fault_plan=(
                _parse_plan(FaultPlan, args.faults, scale.duration)
                if args.faults is not None
                else None
            ),
        )
    elif args.faults is not None:
        spec = _parse_plan(FaultPlan, args.faults, scale.duration)
        options = RunOptions(
            scenario_name=args.scenario,
            reliability=not args.no_reliability,
        )
    else:
        spec, options = scenario, None
    if args.profile or args.profile_out is not None:
        # Profiling must observe the actual simulation, so the seeds run
        # serially in-process and bypass the result cache.
        summaries = []
        for seed in seeds:
            profile_out = (
                args.profile_out.replace("{seed}", str(seed))
                if args.profile_out is not None
                else None
            )
            result = run(
                spec,
                scale,
                seed=seed,
                profile=args.profile,
                profile_out=profile_out,
                trace=trace,
                options=options,
            )
            summaries.append(result.summary())
    else:
        engine_kwargs = _engine_kwargs(args)
        if trace is not None:
            # A cached result would skip the run and leave no trace file,
            # so traced batches always execute.
            engine_kwargs["cache"] = False
        summaries = run_batch(
            spec, scale, seeds=seeds, trace=trace,
            options=options, **engine_kwargs,
        )
    chaos = args.faults is not None or args.failure_model is not None
    errors = dict(getattr(summaries, "errors", None) or {})
    completed_seeds = [seed for seed in seeds if seed not in errors]
    if not summaries:
        for seed, reason in sorted(errors.items()):
            print(f"SEED FAILED (seed {seed}): {reason}", file=sys.stderr)
        print("error: every seed failed", file=sys.stderr)
        return 1
    summary = summarize_runs(summaries)
    rows = [
        ["completed jobs", fmt_opt(summary.completed_jobs, ".1f")],
        ["unschedulable", fmt_opt(summary.unschedulable_jobs, ".1f")],
        ["avg completion", fmt_hours(summary.average_completion_time)],
        ["avg waiting", fmt_hours(summary.average_waiting_time)],
        ["avg execution", fmt_hours(summary.average_execution_time)],
        ["reschedules", fmt_opt(summary.reschedules, ".1f")],
        ["missed deadlines", fmt_opt(summary.missed_deadlines, ".1f")],
        ["avg lateness", fmt_hours(summary.average_lateness)],
        ["avg missed time", fmt_hours(summary.average_missed_time)],
        ["bandwidth/node", f"{summary.bandwidth_bps:.1f} bps"],
    ]
    for message_type, total in sorted(summary.traffic_bytes.items()):
        rows.append([f"traffic {message_type}", f"{total / 1e6:.2f} MB"])
    if chaos:
        import statistics

        net_keys = sorted(
            {k for s in summaries for k in s.extras if k.startswith("net_")}
        )
        for key in net_keys:
            mean = statistics.fmean(s.extras.get(key, 0.0) for s in summaries)
            rows.append([key, f"{mean:.1f}"])
    print(
        f"{summaries[0].name} @ {args.scale} "
        f"({scale.nodes} nodes, {scale.jobs} jobs), seeds {seeds}"
    )
    print(render_table(["metric", "value"], rows))
    exit_code = 0
    for seed, reason in sorted(errors.items()):
        print(f"SEED FAILED (seed {seed}): {reason}", file=sys.stderr)
        exit_code = 1
    if chaos:
        violations = [
            (seed, violation)
            for seed, run_summary in zip(completed_seeds, summaries)
            for violation in run_summary.violations
        ]
        if violations:
            for seed, violation in violations:
                print(f"VIOLATION (seed {seed}): {violation}")
            return 1
        print("invariants: OK")
    return exit_code


def _wire_fields(args, soak: bool, schedule_type) -> dict:
    """The run-config fields ``serve`` and ``soak`` (in one process or
    with ``--procs``) derive from their shared flags: ``serve`` fixes the
    protocol horizon, ``soak`` the wall time."""
    if soak:
        wall = args.wall_seconds
        duration = wall * args.time_scale
        # One job submitted roughly every wall second over the first ~70%
        # of the run, unless an explicit count was given.
        jobs = args.jobs if args.jobs is not None else max(5, int(wall * 0.7))
        submission_interval = args.time_scale
    else:
        duration = args.duration
        wall = duration / args.time_scale
        jobs = args.jobs
        submission_interval = 30.0
    return dict(
        scenario_name=args.scenario,
        nodes=args.nodes,
        jobs=jobs,
        seed=args.seed_base,
        time_scale=args.time_scale,
        duration=duration,
        submission_interval=submission_interval,
        reliability=not getattr(args, "no_reliability", False),
        port_base=args.port_base,
        dashboard=args.top,
        fault_plan=(
            _parse_plan(FaultPlan, args.faults, duration)
            if args.faults is not None
            else None
        ),
        failure_schedule=schedule_type.chaos(wall) if args.chaos else None,
    )


def _cmd_procs(args, soak: bool) -> int:
    """The ``--procs`` branch shared by ``serve`` and ``soak``: the
    process-isolated overlay under the supervisor."""
    from .experiments import OnlineInvariantChecker
    from .runtime import ProcRunConfig, ProcessFailureSchedule, run_procs

    config = ProcRunConfig(
        **_wire_fields(args, soak, ProcessFailureSchedule),
        group_size=args.group_size,
        run_dir=args.run_dir,
        trace_level=args.trace_level or "transport",
        rotate_bytes=int(getattr(args, "rotate_mb", 64.0) * 1024 * 1024),
        seed_violation=getattr(args, "seed_violation", False),
        merged_trace_path=args.trace,
    )
    checker = OnlineInvariantChecker(
        on_violation=lambda text: print(
            f"VIOLATION (merged trace): {text}", file=sys.stderr
        )
    )
    print(
        f"process overlay: {config.nodes} nodes in "
        f"{config.worker_count()} OS processes on {config.host}, "
        f"{config.jobs} jobs, scenario {config.scenario_name}, time scale "
        f"{config.time_scale:.0f}x (~{config.wall_duration():.0f}s wall), "
        f"supervisor armed (max {config.max_restarts} restarts/worker)"
        + (", faults on" if config.fault_plan is not None else "")
        + (
            ", process chaos on (SIGKILL/SIGSTOP)"
            if config.failure_schedule is not None
            else ""
        )
        + (
            ", SEEDED VIOLATION (self-test)"
            if config.seed_violation
            else ""
        ),
        file=sys.stderr,
    )
    result = run_procs(config, online_checker=checker)
    rows = [
        ["jobs submitted", str(result.submitted)],
        ["jobs completed", str(result.completed)],
        ["events checked (merged)", str(result.checked_events)],
        ["torn trace lines", str(result.torn_lines)],
        ["supervisor restarts", str(result.supervisor["restarts"])],
        ["worker states", " ".join(result.supervisor["states"])],
        ["journal recoveries", str(len(result.recovered))],
        ["run dir", result.run_dir],
        ["merged trace", result.merged_trace_path],
    ]
    print(render_table(["metric", "value"], rows))
    if result.interrupted:
        print(
            "interrupted: run cut short by signal; trace and journals "
            "flushed",
            file=sys.stderr,
        )
    if result.violations:
        for violation in result.violations:
            print(f"VIOLATION: {violation}")
        return 1
    print("invariants: OK (merged multi-process trace)")
    return 0


def _live_config(args, soak: bool):
    """The single-process :class:`LiveRunConfig` of ``serve`` / ``soak``."""
    from .runtime import LiveFailureSchedule, LiveRunConfig

    fields = _wire_fields(args, soak, LiveFailureSchedule)
    return LiveRunConfig(
        **fields, failsafe=args.chaos or fields["fault_plan"] is not None
    )


def _cmd_serve(args) -> int:
    from .obs import TraceConfig
    from .runtime import run_live

    if args.procs:
        return _cmd_procs(args, soak=False)
    config = _live_config(args, soak=False)
    trace = (
        TraceConfig(level=args.trace_level or "protocol",
                    sink="jsonl", path=args.trace)
        if args.trace is not None
        else None
    )
    print(
        f"live overlay: {config.nodes} HTTP nodes on {config.host}, "
        f"{config.jobs} jobs, scenario {config.scenario_name}, "
        f"time scale {config.time_scale:.0f}x "
        f"(~{config.wall_duration():.0f}s wall)"
        + (", faults on" if config.fault_plan is not None else "")
        + (", lifecycle chaos on" if args.chaos else ""),
        file=sys.stderr,
    )
    result = run_live(config, obs=trace)
    summary = result.summary()
    metrics = result.metrics
    rows = [
        ["completed jobs", str(metrics.completed_jobs)],
        ["unschedulable", str(metrics.unschedulable_count())],
        ["avg completion", fmt_hours(metrics.average_completion_time())],
        ["avg waiting", fmt_hours(metrics.average_waiting_time())],
        ["reschedules", str(metrics.reschedules)],
        ["final node count", str(result.final_node_count)],
        ["timer events", str(result.executed_events)],
    ]
    for message_type, total in sorted(result.traffic.count_by_type.items()):
        rows.append([f"messages {message_type}", str(total)])
    for key, value in sorted(result.network.items()):
        rows.append([f"net {key}", str(value)])
    print(render_table(["metric", "value"], rows))
    if summary.violations:
        for violation in summary.violations:
            print(f"VIOLATION: {violation}")
        return 1
    print("invariants: OK")
    return 0


def _cmd_soak(args) -> int:
    from .experiments import OnlineInvariantChecker
    from .obs import TraceConfig
    from .runtime import run_live

    if args.procs:
        return _cmd_procs(args, soak=True)
    config = _live_config(args, soak=True)
    trace = TraceConfig(
        level=args.trace_level,
        sink="jsonl",
        path=args.trace,
        rotate_bytes=int(args.rotate_mb * 1024 * 1024),
    )
    checker = OnlineInvariantChecker(
        on_violation=lambda text: print(
            f"VIOLATION (online): {text}", file=sys.stderr
        )
    )
    print(
        f"soak: {config.nodes} HTTP nodes, {config.jobs} jobs over "
        f"~{args.wall_seconds:.0f}s wall, scenario {config.scenario_name}, "
        f"time scale {config.time_scale:.0f}x, trace -> {args.trace} "
        f"(rotate at {args.rotate_mb} MB), online invariant checker armed"
        + (", faults on" if config.fault_plan is not None else "")
        + (", lifecycle chaos on" if args.chaos else "")
        + (", SEEDED VIOLATION (self-test)" if args.seed_violation else ""),
        file=sys.stderr,
    )
    result = run_live(
        config,
        obs=trace,
        online_checker=checker,
        seed_violation=args.seed_violation,
    )
    summary = result.summary()
    metrics = result.metrics
    rows = [
        ["completed jobs", str(metrics.completed_jobs)],
        ["unschedulable", str(metrics.unschedulable_count())],
        ["reschedules", str(metrics.reschedules)],
        ["final node count", str(result.final_node_count)],
        ["timer events", str(result.executed_events)],
        ["events checked online", str(checker.checked)],
    ]
    for key, value in sorted(result.network.items()):
        rows.append([f"net {key}", str(value)])
    print(render_table(["metric", "value"], rows))
    if result.interrupted:
        print(
            "interrupted: soak cut short by signal; trace flushed and "
            "closed, conservation checks relaxed",
            file=sys.stderr,
        )
    if summary.violations:
        for violation in summary.violations:
            print(f"VIOLATION: {violation}")
        return 1
    print("invariants: OK (online + post-run)")
    return 0


def _cmd_figure(args) -> int:
    scale, seeds = _scale_and_seeds(args)
    figure = _FIGURES[args.figure](scale, seeds, args.parallel)
    print(figure.render())
    return 0


def _cmd_baseline(args) -> int:
    scale, seeds = _scale_and_seeds(args)
    import statistics

    runs = run_batch(
        args.baseline, scale, seeds=seeds, **_engine_kwargs(args)
    )
    completion = statistics.fmean(
        r.average_completion_time
        for r in runs
        if r.average_completion_time is not None
    )
    waiting = statistics.fmean(
        r.average_waiting_time
        for r in runs
        if r.average_waiting_time is not None
    )
    revoked = statistics.fmean(
        r.extras.get("revoked_copies", 0.0) for r in runs
    )
    print(
        f"{args.baseline} @ {args.scale}: "
        f"completion {fmt_hours(completion)}, waiting {fmt_hours(waiting)}, "
        f"revoked copies {revoked:.1f}"
    )
    return 0


def _cmd_run_file(args) -> int:
    import json
    from pathlib import Path

    from .experiments import Scenario

    payload = json.loads(Path(args.path).read_text())
    scenario = Scenario.from_dict(payload)
    scale, seeds = _scale_and_seeds(args)
    summary = summarize_runs(
        run_batch(scenario, scale, seeds=seeds, **_engine_kwargs(args))
    )
    print(
        f"{scenario.name} (custom) @ {args.scale}: "
        f"completion {fmt_hours(summary.average_completion_time)}, "
        f"waiting {fmt_hours(summary.average_waiting_time)}, "
        f"completed {summary.completed_jobs:.1f}, "
        f"reschedules {summary.reschedules:.1f}"
    )
    return 0


def _cmd_sweep(args) -> int:
    from .experiments.sweep import sweep_config_field, sweep_scenario_field

    scale, seeds = _scale_and_seeds(args)
    values = [float(v) if "." in v or "e" in v else int(v) for v in args.values]
    sweep = (
        sweep_config_field
        if args.target == "config"
        else sweep_scenario_field
    )
    points = sweep(
        args.scenario, args.field, values, scale, seeds,
        parallel=args.parallel,
    )
    rows = [
        [
            str(point.value),
            fmt_hours(point.summary.average_completion_time),
            fmt_hours(point.summary.average_waiting_time),
            f"{sum(point.summary.traffic_bytes.values()) / 1e6:.1f}",
        ]
        for point in points
    ]
    print(f"sweep of {args.target}.{args.field} on {args.scenario}")
    print(
        render_table([args.field, "completion", "waiting", "traffic MB"], rows)
    )
    return 0


def _cmd_top(args) -> int:
    """Attach to an already-running live overlay and stream its dashboard."""
    import asyncio
    import time

    from .obs import MetricsRegistry
    from .runtime import TelemetryCollector, render_dashboard

    if args.targets:
        addresses = {}
        for index, spec in enumerate(args.targets.split(",")):
            host, _, port = spec.strip().rpartition(":")
            addresses[index] = (host or "127.0.0.1", int(port))
    else:
        addresses = {
            index: (args.host, args.port_base + index)
            for index in range(args.nodes)
        }
    start = time.monotonic()
    collector = TelemetryCollector(
        MetricsRegistry(),
        targets=lambda: addresses,
        now=lambda: time.monotonic() - start,
    )

    async def watch() -> int:
        while True:
            await collector.scrape()
            print(
                "\x1b[2J\x1b[H"
                + render_dashboard(collector, title="ARiA fleet (repro top)"),
                end="",
                flush=True,
            )
            if args.iterations and collector.rounds >= args.iterations:
                return 0
            await asyncio.sleep(args.interval)

    try:
        return asyncio.run(watch())
    except KeyboardInterrupt:
        return 0


def _cmd_explain_job(args) -> int:
    import json

    from .errors import ConfigurationError
    from .obs import explain_job, load_trace

    try:
        events = load_trace(args.trace)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not events:
        print(f"error: no events found at {args.trace}", file=sys.stderr)
        return 1
    try:
        timeline = explain_job(events, args.job_id)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(timeline.to_json(), indent=2, sort_keys=True))
    else:
        print(timeline.to_text())
    return 0


def _cmd_trace(args) -> int:
    import random

    from .types import HOUR
    from .workload import JobGenerator, SubmissionSchedule, WorkloadTrace

    generator = JobGenerator(
        random.Random(args.seed_base),
        deadline_slack_mean=args.deadline_slack * HOUR
        if args.deadline_slack
        else None,
    )
    schedule = SubmissionSchedule(
        job_count=args.jobs, interval=args.interval
    )
    trace = WorkloadTrace.from_generator(generator, schedule.times())
    trace.save(args.path)
    print(f"wrote {len(trace)} jobs to {args.path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ARiA grid meta-scheduling reproduction (ICDCS 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table II scenarios").set_defaults(
        func=_cmd_list
    )

    run_parser = sub.add_parser("run", help="simulate one scenario")
    run_parser.add_argument("scenario", choices=sorted(SCENARIOS))
    _add_common(run_parser)
    _add_progress(run_parser)
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a cProfile report (top 20 by cumulative time) per "
        "seed; runs serially in-process and bypasses the cache",
    )
    run_parser.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="save raw cProfile stats to PATH (loadable with pstats); "
        "use a {seed} placeholder with multiple seeds; runs serially "
        "in-process and bypasses the cache",
    )
    run_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL protocol trace to PATH (use a {seed} "
        "placeholder with multiple seeds); explore it afterwards with "
        "'repro explain-job PATH JOB_ID'",
    )
    run_parser.add_argument(
        "--trace-level",
        choices=("protocol", "transport", "kernel"),
        default=None,
        help="trace detail level (default protocol; transport adds "
        "per-message events, kernel adds per-event timing)",
    )
    run_parser.add_argument(
        "--faults",
        nargs="?",
        const="default",
        default=None,
        metavar="PLAN",
        help="inject network faults: bare flag = the representative chaos "
        "plan; otherwise inline JSON ('{...}') or a JSON file of "
        "FaultPlan fields; checks protocol invariants afterwards and "
        "exits nonzero on any violation",
    )
    run_parser.add_argument(
        "--failure-model",
        nargs="?",
        const="default",
        default=None,
        metavar="MODEL",
        help="inject node failures (crash-stop, crash-restart, fail-slow): "
        "bare flag = the representative chaos mix; otherwise inline JSON "
        "('{...}') or a JSON file of FailureModel fields; composes with "
        "--faults (network faults ride along in the same run); checks "
        "protocol invariants afterwards and exits nonzero on any "
        "violation",
    )
    run_parser.add_argument(
        "--no-adoption",
        action="store_true",
        help="with --failure-model: disable initiator-crash orphan "
        "adoption (demonstrates the orphaned-job leak it prevents)",
    )
    run_parser.add_argument(
        "--no-reliability",
        action="store_true",
        help="with --faults/--failure-model: disable the at-least-once "
        "reliability layer (demonstrates the invariant violations it "
        "prevents)",
    )
    run_parser.set_defaults(func=_cmd_run)

    serve_parser = sub.add_parser(
        "serve",
        help="run a scenario on a live localhost HTTP overlay "
        "(real sockets, wall-clock timers)",
    )
    _add_wire(
        serve_parser,
        jobs=(10, "workload size (default 10)"),
        trace=(None, "write a JSONL protocol trace of the live run to PATH"),
        trace_level=(None, "trace detail level (default protocol)"),
    )
    serve_parser.add_argument(
        "--duration",
        type=float,
        default=9000.0,
        metavar="SECONDS",
        help="protocol-time horizon (default 9000; at the default time "
        "scale a 2.5h scenario runs in ~30s)",
    )
    serve_parser.add_argument(
        "--no-reliability",
        action="store_true",
        help="detach the at-least-once reliability layer",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    soak_parser = sub.add_parser(
        "soak",
        help="long-running live overlay with streaming trace, /healthz "
        "endpoints and incremental invariant checking; exits nonzero "
        "on the first confirmed violation",
    )
    _add_wire(
        soak_parser,
        jobs=(None, "workload size (default: ~0.7 jobs per wall second)"),
        trace=(
            "soak-trace.jsonl",
            "JSONL trace stream (default soak-trace.jsonl; rotated, see "
            "--rotate-mb)",
        ),
        trace_level=(
            "transport",
            "trace detail level (default transport, which the online "
            "stale-delivery check needs)",
        ),
    )
    soak_parser.add_argument(
        "--wall-seconds",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="how long the soak runs in wall time (default 60; set "
        "minutes-to-hours for a real soak)",
    )
    soak_parser.add_argument(
        "--rotate-mb",
        type=float,
        default=64.0,
        metavar="MB",
        help="rotate the trace file at this size (default 64 MB)",
    )
    soak_parser.add_argument(
        "--seed-violation",
        action="store_true",
        help="self-test: forge a duplicate job.finished mid-run (with "
        "--procs: from two worker processes) and verify the online "
        "checker flags it (the run exits nonzero)",
    )
    soak_parser.set_defaults(func=_cmd_soak)

    figure_parser = sub.add_parser("figure", help="regenerate a paper figure")
    figure_parser.add_argument("figure", choices=sorted(_FIGURES))
    _add_common(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    baseline_parser = sub.add_parser(
        "baseline", help="run a comparison meta-scheduler"
    )
    baseline_parser.add_argument("baseline", choices=BASELINE_NAMES)
    _add_common(baseline_parser)
    _add_progress(baseline_parser)
    baseline_parser.set_defaults(func=_cmd_baseline)

    top_parser = sub.add_parser(
        "top",
        help="attach to a running live overlay and stream the fleet "
        "dashboard (scrapes every node's /metrics)",
    )
    top_parser.add_argument(
        "--port-base",
        type=int,
        default=18200,
        metavar="PORT",
        help="first node port of the overlay to watch (node i = PORT+i; "
        "match the serve/soak --port-base, default 18200)",
    )
    top_parser.add_argument(
        "--nodes", type=int, default=8, help="how many ports to scrape"
    )
    top_parser.add_argument("--host", default="127.0.0.1")
    top_parser.add_argument(
        "--targets",
        default=None,
        metavar="HOST:PORT,...",
        help="explicit scrape targets (overrides --port-base/--nodes)",
    )
    top_parser.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="wall seconds between scrape rounds (default 1)",
    )
    top_parser.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N rounds (default 0 = run until interrupted)",
    )
    top_parser.set_defaults(func=_cmd_top)

    explain_parser = sub.add_parser(
        "explain-job",
        help="reconstruct one job's timeline from a JSONL trace "
        "(rotated soak traces are stitched back together)",
    )
    explain_parser.add_argument("trace", help="trace file from 'run --trace'")
    explain_parser.add_argument("job_id", type=int)
    explain_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the timeline as JSON instead of text",
    )
    explain_parser.set_defaults(func=_cmd_explain_job)

    run_file_parser = sub.add_parser(
        "run-file", help="simulate a custom scenario from a JSON file"
    )
    run_file_parser.add_argument("path")
    _add_common(run_file_parser)
    run_file_parser.set_defaults(func=_cmd_run_file)

    sweep_parser = sub.add_parser(
        "sweep", help="sensitivity sweep over one scenario/config field"
    )
    sweep_parser.add_argument("scenario", choices=sorted(SCENARIOS))
    sweep_parser.add_argument(
        "target", choices=("scenario", "config"),
        help="whether the field lives on the Scenario or the AriaConfig",
    )
    sweep_parser.add_argument("field")
    sweep_parser.add_argument("values", nargs="+")
    _add_common(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    trace_parser = sub.add_parser(
        "trace", help="generate a workload trace file"
    )
    trace_parser.add_argument("path")
    trace_parser.add_argument("--jobs", type=int, default=1000)
    trace_parser.add_argument("--interval", type=float, default=10.0)
    trace_parser.add_argument(
        "--deadline-slack",
        type=float,
        default=None,
        help="mean deadline slack in hours (omit for batch jobs)",
    )
    trace_parser.add_argument("--seed-base", type=int, default=0)
    trace_parser.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early — not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
