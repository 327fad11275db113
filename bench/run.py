"""The repo's benchmark: six workloads over the simulator and the live
wire, end-to-end metrics of the full-size runs, per-layer numbers from a
traced pass.

    python3 bench/run.py                         # all workloads, untraced
    python3 bench/run.py --trace 1 --out F.json  # the traced pass
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat 5 --out A.json
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --selftest

With ``--workload`` and ``--trace`` the last line of standard output is
the JSON object the benchmark contract in ``BENCHMARK.json`` asks for.
Every pass of a workload runs in fresh child processes (``worker.py``);
this process never imports ``repro``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402  (bench/layers.py: names and units only)
import worker  # noqa: E402  (bench/worker.py: names only)

WORKLOADS = worker.WORKLOADS

#: Fresh processes that set a workload up in one untraced pass (one
#: goes on to run it); ``setup_s`` is the median of their set-up times.
SETUP_SAMPLES = 3

#: Share of the benchmark's work that ``--selftest`` runs.
SELFTEST_SCALE = 0.05

#: A child that runs longer than this is killed and the pass fails.
CHILD_TIMEOUT_S = 170

#: Every end-to-end metric a pass can report: unit and which direction is
#: better.  ``BENCHMARK.json`` lists, with their bounds, the ones that
#: every workload reports and that repeat on the reference sandbox; the
#: rest are printed and recorded, not gated.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "events_per_s": ("events/s", "higher"),
    "msgs_per_s": ("msgs/s", "higher"),
    "msgs_per_s_best": ("msgs/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p99": ("ms", "lower"),
    "failed_share": ("ratio", "lower"),
}

#: Spans that make up set-up.
SETUP_SPANS = ("import", "build_grid", "endpoints", "discover")

COUNT_UNITS = {
    "sim.kernel.events": "count",
    "net.transport.msgs_request": "count",
    "net.transport.msgs_accept": "count",
    "net.transport.msgs_inform": "count",
    "net.transport.msgs_assign": "count",
    "net.transport.bytes": "bytes",
    "net.transport.lost": "count",
    "net.transport.dropped": "count",
    "net.reliability.acks": "count",
    "net.reliability.retransmissions": "count",
    "core.protocol.jobs_completed": "count",
    "core.protocol.reschedules": "count",
    "core.protocol.inform_broadcasts": "count",
}
#: Harness spans reported as per-layer metrics: metric -> span names.
SPAN_METRICS = {
    "span.import_s": ("import",),
    "span.build_grid_s": ("build_grid",),
    "span.run_s": ("run", "run_batch", "send_phase"),
    "span.summary_s": ("summary",),
    "span.endpoints_s": ("endpoints",),
    "span.discover_s": ("discover",),
    "span.drain_s": ("drain",),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_spec():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def load_expected():
    return load_json(os.path.join(BENCH, "expected.json"))


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_env():
    """The parent's environment without the knobs that would change what
    the program runs; ``ARIA_ACCEL`` stays and is recorded in ``env``."""
    return {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("ARIA_") or key == "ARIA_ACCEL"
    }


def spawn(script, *arguments):
    """Run one child to its end; its last stdout line is a JSON record."""
    command = [sys.executable, os.path.join(BENCH, script), *arguments]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(command)} exceeded {CHILD_TIMEOUT_S} s")
    if done.returncode != 0:
        raise BenchError(f"{' '.join(command)} exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(command)} printed nothing")
    return json.loads(lines[-1])


def spawn_worker(workload, seed, scale, phase, profile=False):
    return spawn(
        "worker.py",
        "--workload", workload,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--phase", phase,
        *(["--profile"] if profile else []),
    )


def spawn_layers(scale):
    return spawn("layers.py", "--scale", repr(scale))


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
PINNED = ("events", "jobs_completed", "msgs")


def evaluate(record, expected):
    """``(attempted, failed, reasons)`` of one measured pass.

    Simulator: an op is one scenario run; it fails when it raised, when
    its RunSummary carries a violation, when a repetition of it in a
    unit gave another outcome, or when a count pinned in
    ``expected.json`` for its label differs.  Live: an op is one message;
    it fails when it was lost, rejected, dropped, given up, misdelivered,
    or not delivered when ``drain()`` returned.
    """
    reasons = []
    if "live" in record:
        live = record["live"]
        counters = live["counters"]
        bad = {
            key: counters.get(key, 0)
            for key in (
                "lost",
                "rejected",
                "dropped_detached",
                "dropped_unknown",
                "dropped_stale",
                "reliable_gave_up",
                "reliable_pending",
            )
        }
        bad["mismatched"] = live["mismatched"]
        bad["undelivered"] = live["planned"] - live["delivered"]
        if "reliable_delivered" in counters:
            bad["unacked"] = live["planned"] - counters["reliable_delivered"]
        reasons = [f"{key}={value}" for key, value in bad.items() if value]
        failed = min(live["planned"], sum(v for v in bad.values() if v > 0))
        return live["planned"], failed, reasons
    attempted = failed = 0
    for op in record["ops"]:
        attempted += 1
        problems = []
        if op["error"]:
            problems.append(op["error"].strip().splitlines()[-1])
        else:
            problems += [f"violation: {text}" for text in op["violations"]]
            pins = expected.get(op["label"], {})
            problems += [
                f"{key} is {op[key]}, pinned {pins[key]}"
                for key in PINNED
                if key in pins and pins[key] != op[key]
            ]
        if problems:
            failed += 1
            reasons += [f"{op['label']}: {text}" for text in problems]
    return attempted, failed, reasons


# ----------------------------------------------------------------------
# Metrics of one pass
# ----------------------------------------------------------------------
def counts_of(record):
    """Counts at the layer boundaries (exact and repeatable on sim_*)."""
    if "live" in record:
        live = record["live"]
        counters = live["counters"]
        msgs = live["msgs"]
        return {
            "sim.kernel.events": 0,
            "net.transport.msgs_request": msgs.get("Request", 0),
            "net.transport.msgs_accept": msgs.get("Accept", 0),
            "net.transport.msgs_inform": msgs.get("Inform", 0),
            "net.transport.msgs_assign": msgs.get("Assign", 0),
            "net.transport.bytes": live["bytes"],
            "net.transport.lost": counters["lost"],
            "net.transport.dropped": counters["dropped_detached"]
            + counters["dropped_unknown"]
            + counters["dropped_stale"],
            "net.reliability.acks": counters.get("reliable_acks", 0),
            "net.reliability.retransmissions": counters.get(
                "reliable_retransmissions", 0
            ),
            "core.protocol.jobs_completed": 0,
            "core.protocol.reschedules": 0,
            "core.protocol.inform_broadcasts": 0,
        }
    ops = [op for op in record["ops"] if "events" in op]

    def total(key):
        return sum(op[key] for op in ops)

    def messages(kind):
        return sum(op["msgs"].get(kind, 0) for op in ops)

    return {
        "sim.kernel.events": total("events"),
        "net.transport.msgs_request": messages("Request"),
        "net.transport.msgs_accept": messages("Accept"),
        "net.transport.msgs_inform": messages("Inform"),
        "net.transport.msgs_assign": messages("Assign"),
        "net.transport.bytes": total("bytes"),
        "net.transport.lost": total("lost"),
        "net.transport.dropped": total("dropped"),
        "net.reliability.acks": total("acks"),
        "net.reliability.retransmissions": total("retransmissions"),
        "core.protocol.jobs_completed": total("jobs_completed"),
        "core.protocol.reschedules": total("reschedules"),
        "core.protocol.inform_broadcasts": total("inform_broadcasts"),
    }


def span_total(record, names):
    return sum(
        span["end"] - span["start"]
        for span in record["spans"]
        if span["name"] in names
    )


def messages_of(record):
    """Protocol messages of one child: every simulated send, or on the
    live wire every message handed to its destination handler (acks are
    not counted: sending fewer of them must not read as a slowdown)."""
    if "live" in record:
        return record["live"]["delivered"]
    return sum(
        sum(op["msgs"].values()) for op in record["ops"] if not op["error"]
    )


def end_to_end_of(full, unit, setup_s, attempted, failed):
    """The end-to-end metrics of one pass.

    From the full-size run, as measured: ``wall_s`` (the measured phase
    alone — sim: every ``GridSetup.run`` + ``RunResult.summary``, or
    every ``run_batch``; live: first ``send`` to ``drain()`` returning),
    the rates over it, the latencies of all its messages, and the
    child's ``peak_rss_mb``.  From the unit (sim: its own child; live:
    the 50-message chunks of the same pass): ``msgs_per_s_best``, the
    rate with every repeated part at its fastest repetition.
    """
    def rate(count, seconds):
        # A run in which every op raised, or a unit that never completed
        # a part, has failed ops to show for it, and no rate.
        return count / seconds if seconds else 0.0

    wall = full["wall_s"]
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "msgs_per_s": rate(messages_of(full), wall),
        "msgs_per_s_best": rate(messages_of(unit), unit.get("best_s")),
        "peak_rss_mb": full["peak_rss_mb"],
        "failed_share": failed / attempted,
    }
    if "live" in full:
        metrics["latency_ms_p50"] = full["live"]["latency_ms_p50"]
        metrics["latency_ms_p99"] = full["live"]["latency_ms_p99"]
    else:
        metrics["events_per_s"] = rate(
            counts_of(full)["sim.kernel.events"], wall
        )
    return metrics


def shares_of(record):
    """Self time per layer as shares of their sum."""
    self_s = record["profile"]["self_s"]
    total = sum(self_s.values())
    return {layer: seconds / total for layer, seconds in self_s.items()}


def per_layer_of(full, profiled, unit_profiled, isolated):
    """Every per-layer metric of one traced pass."""
    metrics = {
        f"{layer}.self_s": seconds
        for layer, seconds in profiled["profile"]["self_s"].items()
    }
    metrics.update(counts_of(profiled))
    metrics.update(profiled["profile"]["calls"])
    for name, spans in SPAN_METRICS.items():
        metrics[name] = span_total(profiled, spans)
    metrics["span.send_call_us"] = profiled.get("live", {}).get(
        "send_call_us", 0.0
    )
    metrics["bench.trace_overhead_ratio"] = (
        profiled["wall_s"] / full["wall_s"]
    )
    # How alike the unit and the full-size run are: the self time they
    # spend in the same layers (sum over layers of the smaller share).
    ours, theirs = shares_of(profiled), shares_of(unit_profiled)
    metrics["unit.profile_overlap"] = sum(
        min(share, theirs[layer]) for layer, share in ours.items()
    )
    # End-to-end numbers of the live wire alone, from the unprofiled run
    # (0 on sim_*, where no message crosses a wire): the contract wants
    # every gated metric from every workload, so they are recorded here.
    live = full.get("live", {})
    metrics["latency_ms_p50"] = live.get("latency_ms_p50", 0.0)
    metrics["latency_ms_p99"] = live.get("latency_ms_p99", 0.0)
    metrics.update(isolated)
    return metrics


def per_layer_units():
    units = {f"{layer}.self_s": "s" for layer in worker.LAYERS}
    units.update(COUNT_UNITS)
    units.update(dict.fromkeys(worker.CALL_COUNTS.values(), "count"))
    units.update(dict.fromkeys(SPAN_METRICS, "s"))
    units["span.send_call_us"] = "us"
    units["bench.trace_overhead_ratio"] = "ratio"
    units["unit.profile_overlap"] = "ratio"
    units["latency_ms_p50"] = "ms"
    units["latency_ms_p99"] = "ms"
    units.update(layers.UNITS)
    return units


def measure(workload, seed, scale, traced=False, isolated=None, expected=None):
    """One pass of one workload: children, checks, metrics.

    Every pass runs the workload at full size once and, for a simulator
    workload, its repeated unit (a live pass is its own unit).  An
    untraced pass adds fresh processes that only set up, so that
    ``setup_s`` is the median of ``SETUP_SAMPLES``.  A traced pass adds
    the full-size run and one round of the unit under the profiler, and
    the isolated timings.
    """
    if expected is None:
        expected = load_expected()
    sim = workload in worker.SIM_WORKLOADS
    full = spawn_worker(workload, seed, scale, "full")
    unit = spawn_worker(workload, seed, scale, "unit") if sim else full
    checked = [full, unit] if sim else [full]
    if traced:
        profiled = spawn_worker(workload, seed, scale, "full", profile=True)
        unit_profiled = profiled
        if sim:
            unit_profiled = spawn_worker(
                workload, seed, scale, "unit", profile=True
            )
        # The profiled run is checked as well: its counts are reported.
        checked.append(profiled)
        setups = [full, profiled]
    else:
        setups = [full] + [
            spawn_worker(workload, seed, scale, "setup")
            for _ in range(SETUP_SAMPLES - 1)
        ]
    result = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "attempted": 0,
        "failed": 0,
        "failures": [],
    }
    for record in checked:
        attempted, failed, reasons = evaluate(record, expected)
        result["attempted"] += attempted
        result["failed"] += failed
        result["failures"] += reasons
    result["setup_samples"] = [
        span_total(record, SETUP_SPANS) for record in setups
    ]
    result["end_to_end"] = end_to_end_of(
        full,
        unit,
        statistics.median(result["setup_samples"]),
        result["attempted"],
        result["failed"],
    )
    result["counts"] = counts_of(full)
    result["ops"] = full.get("ops", [])
    result["unit_ops"] = unit.get("ops", []) if sim else []
    result["live"] = full.get("live")
    result["spans"] = full["spans"]
    if traced:
        if isolated is None:
            isolated = spawn_layers(scale)
        result["per_layer"] = per_layer_of(
            full, profiled, unit_profiled, isolated
        )
        result["layer_shares"] = {
            "full": shares_of(profiled),
            "unit": shares_of(unit_profiled),
        }
        result["traced_spans"] = profiled["spans"]
    return result


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def calibration_mops():
    """Millions of iterations per second of a fixed pure-Python loop,
    best of two: what "this machine" means next to every number."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for index in range(1_000_000):
            total += index & 3
        best = min(best, time.perf_counter() - start)
    return 1.0 / best


def env_block():
    import importlib.util

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "git_commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "ARIA_ACCEL": os.environ.get("ARIA_ACCEL", "auto"),
        "calibration_mops": calibration_mops(),
    }


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_metric(name, value, unit, note=""):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<42} {shown:>14} {unit:<9}{note}")


def print_result(result):
    print(
        f"== {result['workload']}  seed {result['seed']}, "
        f"scale {result['scale']:g} =="
    )
    for name, (unit, _better) in END_TO_END.items():
        if name not in result["end_to_end"]:
            continue
        note = ""
        if name == "setup_s":
            note = f"median of {len(result['setup_samples'])} fresh processes"
        elif name == "msgs_per_s_best":
            note = "every repeated part at its fastest repetition"
        elif name == "failed_share":
            note = f"{result['failed']} of {result['attempted']} ops"
        elif name == "latency_ms_p99":
            note = f"{result['live']['latency_samples']} samples"
        print_metric(name, result["end_to_end"][name], unit, note)
    for name, value in result["counts"].items():
        print_metric(name, value, COUNT_UNITS[name])
    for op in result["ops"] + result["unit_ops"]:
        print(f"  summary_sha256 {op['label']} {op.get('summary_sha256')}")
    if "per_layer" in result:
        units = per_layer_units()
        for name, value in result["per_layer"].items():
            print_metric(name, value, units[name])
    for reason in result["failures"]:
        print(f"  FAILED {reason}")


def contract_line(result, spec, traced):
    """The last line the benchmark contract asks for."""
    if traced:
        units = per_layer_units()
        values = result["per_layer"]
    else:
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        values = result["end_to_end"]
    names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": values[name], "unit": units[name]}
                for name in names
            },
        }
    )


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def spread_of(values):
    """Inter-quartile range as a share of the median (None below four
    samples, whose quartiles say nothing, and for a median of 0)."""
    median = statistics.median(values)
    if len(values) < 4 or not median:
        return None
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / median


def compare(path_a, path_b):
    """Print B against A per (workload, end-to-end metric); 1 if worse.

    The bounds are those of ``BENCHMARK.json``.  A metric it does not
    list is shown without a verdict, except ``failed_share``, which may
    not increase at all.
    """
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    bounds["failed_share"] = 0.0
    side_a, side_b = load_json(path_a), load_json(path_b)
    for label, side in (("A", side_a), ("B", side_b)):
        env = side["env"]
        print(
            f"{label}: {env['git_commit'][:12]}  python {env['python']}  "
            f"nproc {env['nproc']}  calibration {env['calibration_mops']:.2f}"
            " Mops"
        )
    worse = 0
    print(
        f"{'workload':<18} {'metric':<15} {'A':>12} {'B':>12} "
        f"{'B/A':>7} {'bound':>6}  verdict"
    )
    for workload in WORKLOADS:
        passes_a = side_a["workloads"].get(workload)
        passes_b = side_b["workloads"].get(workload)
        if not passes_a or not passes_b:
            continue
        for name, (_unit, better) in END_TO_END.items():
            if name not in passes_a[0]["end_to_end"]:
                continue
            values_a = [p["end_to_end"][name] for p in passes_a]
            values_b = [p["end_to_end"][name] for p in passes_b]
            base = statistics.median(values_a)
            new = statistics.median(values_b)
            bound = bounds.get(name)
            spreads = [
                s for s in (spread_of(values_a), spread_of(values_b))
                if s is not None
            ]
            if bound is None:
                verdict = "not gated"
            elif (
                new > base * (1 + bound)
                if better == "lower"
                else new < base * (1 - bound)
            ):
                verdict = "worse"
                worse += 1
            elif spreads and max(spreads) > bound:
                verdict = f"unresolved (spread {max(spreads):.3f})"
            else:
                verdict = "ok"
            ratio = f"{new / base:7.3f}" if base else "      -"
            shown = "     -" if bound is None else f"{bound:6.2f}"
            print(
                f"{workload:<18} {name:<15} {base:12.6g} {new:12.6g} "
                f"{ratio} {shown}  {verdict}  "
                f"(n={len(values_a)}/{len(values_b)})"
            )
        if workload in worker.SIM_WORKLOADS:
            exact = [
                (p["seed"], p["counts"], p["ops"], p["unit_ops"])
                for p in (passes_a[0], passes_b[0])
            ]
            print(
                f"{workload:<18} exact counts and summary_sha256: "
                + ("identical" if exact[0] == exact[1] else "DIFFERENT")
            )
    print("worse:", worse)
    return 1 if worse else 0


# ----------------------------------------------------------------------
# --selftest
# ----------------------------------------------------------------------
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def selftest():
    """All six workloads and the isolated timings at ``SELFTEST_SCALE``;
    returns the list of problems found (empty = pass)."""
    spec = load_spec()
    expected = load_expected()
    problems = []
    isolated = spawn_layers(SELFTEST_SCALE)
    for workload in WORKLOADS:
        # A traced pass reports the end-to-end metrics too.
        result = measure(
            workload, 0, SELFTEST_SCALE, traced=True, isolated=isolated,
            expected=expected,
        )
        if result["failed"] or result["failures"]:
            problems.append(f"{workload}: checks failed: {result['failures']}")
        unpinned = [
            op["label"]
            for op in result["ops"] + result["unit_ops"]
            if op["label"] not in expected
        ]
        if unpinned:
            problems.append(f"expected.json pins nothing for {unpinned}")
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(contract_line(result, spec, traced))
            for metric in spec[key]:
                name = metric["name"]
                if not NAME_PATTERN.fullmatch(name):
                    problems.append(f"bad metric name {name!r}")
                got = line["metrics"].get(name)
                if got is None:
                    problems.append(f"{workload}: {name} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(
                        f"{workload}: {name} in {got['unit']!r}, "
                        f"BENCHMARK.json says {metric['unit']!r}"
                    )
                elif key == "end_to_end" and not got["value"] > 0:
                    problems.append(f"{workload}: {name} is {got['value']}")
            extra = set(result[key]) - {m["name"] for m in spec[key]}
            extra -= set(END_TO_END)
            if extra:
                problems.append(f"{workload}: not in BENCHMARK.json: {extra}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from worker.WORKLOADS")

    # A wrong pinned count must turn into failed ops.
    record = spawn_worker("sim_paper_resched", 0, SELFTEST_SCALE, "full")
    label = record["ops"][0]["label"]
    corrupted = copy.deepcopy(expected)
    corrupted.setdefault(label, {})["events"] = record["ops"][0]["events"] + 1
    attempted, failed, _reasons = evaluate(record, corrupted)
    if not failed / attempted > 0:
        problems.append("a corrupted pinned count did not fail the op")
    return problems


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float,
        help="nominal length of the measured phase (default and full size:\n"
        "run_seconds of BENCHMARK.json; less shrinks the work in proportion)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1 = the traced pass: the workload once untraced and once\n"
        "under the profiler, and the isolated layer timings",
    )
    parser.add_argument("--repeat", type=int, default=1, help="passes per workload")
    parser.add_argument("--out", help="write the full record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.selftest:
        problems = selftest()
        for problem in problems:
            print("SELFTEST", problem)
        print("selftest:", "FAILED" if problems else "ok")
        return 1 if problems else 0

    spec = load_spec()
    scale = 1.0
    if args.seconds is not None:
        scale = min(1.0, args.seconds / spec["run_seconds"])
    traced = bool(args.trace)
    selected = [args.workload] if args.workload else list(WORKLOADS)
    env = env_block()
    print("env", json.dumps(env))
    record = {"env": env, "seed": args.seed, "scale": scale, "workloads": {}}
    isolated = spawn_layers(scale) if traced else None
    failed = 0
    result = None
    for workload in selected:
        passes = record["workloads"][workload] = []
        for _ in range(max(1, args.repeat)):
            result = measure(
                workload, args.seed, scale, traced=traced, isolated=isolated
            )
            print_result(result)
            failed += result["failed"]
            passes.append(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    if args.workload:
        print(contract_line(result, spec, traced))
    else:
        print("checks:", "FAILED" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        sys.exit(2)
