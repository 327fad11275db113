"""One child of a benchmark pass: a workload, in a fresh process.

``bench/run.py`` spawns this file several times per pass so that every
run pays its own ``import repro``, starts with an empty overlay cache
and owns its ``ru_maxrss``.  A child prints one JSON record on stdout.

Phases:

* ``setup`` — import + everything up to "ready to run", nothing else;
* ``full``  — set-up, then the named workload at full size, once;
* ``unit``  — a sim workload's short unit, repeated (the steady timing;
  a live pass times its own 50-message chunks).

With ``--profile`` the measured phase runs under ``cProfile``, whose
``tottime`` is folded per source file into layer buckets.

Every number is taken from outside the program: the harness times calls
into public functions and records spans around them; nothing under
``src/`` knows the benchmark exists.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from collections import namedtuple
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SIM_WORKLOADS = (
    "sim_paper_resched",
    "sim_paper_static",
    "sim_large_smoke",
    "sim_mix_medium",
)
LIVE_WORKLOADS = ("live_wire_plain", "live_wire_acked")
WORKLOADS = SIM_WORKLOADS + LIVE_WORKLOADS

#: Endpoints of the live fleet and messages kept in flight (= ``nproc``
#: of the reference sandbox; the loop is closed: a slot sends its next
#: message only when the previous one reached its destination handler).
LIVE_ENDPOINTS = 8
LIVE_IN_FLIGHT = 2
#: Messages of one live pass: 120 samples lie beyond p99.
LIVE_MESSAGES = 12_000
#: Delivered messages per timed chunk of a live pass (~20 ms): the unit
#: of the live workloads is a chunk of the pass itself.
LIVE_CHUNK = 50


class Spans:
    """Harness spans: name, start, end (seconds since process start of
    the harness clock) and the index of the enclosing span."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.records = []
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.records)
        record = {
            "name": name,
            "start": time.perf_counter() - self.origin,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def total(self, *names) -> float:
        return sum(
            r["end"] - r["start"] for r in self.records if r["name"] in names
        )


@contextmanager
def measured(spans, name, profiler):
    """A span of the measured phase; profiled in the traced pass."""
    with spans.span(name):
        if profiler is not None:
            profiler.enable()
        try:
            yield
        finally:
            if profiler is not None:
                profiler.disable()


def import_repro(spans, *modules):
    """Import the checkout's own ``repro`` (and nothing else's)."""
    import importlib

    sys.path.insert(0, SRC)
    try:
        with spans.span("import"):
            loaded = [importlib.import_module(name) for name in modules]
    except ImportError as error:
        raise SystemExit(f"cannot import the program under {SRC}: {error}")
    origin = os.path.abspath(sys.modules["repro"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {origin}, not from {SRC}")
    return loaded


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
#: One scenario run.  ``kind`` is ``grid`` (build_grid / GridSetup.run /
#: RunResult.summary, build time counted as set-up) or ``batch`` (one
#: run_batch call, which contains its own build).
Op = namedtuple("Op", "label kind spec size seed")

MIX_ARMS = ("Mixed", "iExpanding", "iDeadline", "iHighLoad", "chaos")

#: Timed slices per ``grid`` part of a unit (a part is 25-100 ms; most
#: slices are empty, the busy ones take well under a millisecond).
UNIT_SLICES = 512


def plan(workload, seed, scale, unit, experiments):
    """``(ops, repetitions)`` of one child: the named workload at full
    size, run once, or its short *unit*, repeated.

    The full-size runs are what a user runs, what ``expected.json`` pins
    and what the traced pass profiles; their timings are true but, on a
    shared sandbox, do not repeat (see README).  The unit is the same
    scenario on a grid small enough to run in 25-100 ms, over several
    seeds so that what one seed's workload happens to contain averages
    out; ``unit.profile_overlap`` says how alike the two are.

    ``scale`` (1 = the benchmark, 0.05 = the self-test) multiplies the
    jobs of a full-size run, or the repetitions of a unit, and nothing
    else: every size keeps its grid, its overlay and the code path that
    its node count selects.
    """
    size_cls = experiments.ScenarioScale
    if workload == "sim_paper_resched":
        names, kind = ["iMixed"], "grid"
        full = (size_cls.paper(), 1)
        part = (size_cls.tiny(), 12, 12)
    elif workload == "sim_paper_static":
        names, kind = ["Mixed"], "grid"
        full = (size_cls.paper(), 2)
        # The paper's own 500-node overlay: the first 30 REQUEST floods
        # of the full-size run (Mixed never sends an INFORM).
        part = (
            size_cls(
                nodes=500,
                jobs=40,
                duration=1500.0,
                expanding_start=500.0,
                expanding_end=1000.0,
            ),
            3,
            12,
        )
    elif workload == "sim_large_smoke":
        # Above 2 000 nodes build_grid forks to the chordal ring, the
        # 6-hop flood cap, 512-entry seen caches and gc.freeze.
        names, kind = ["iMixed"], "grid"
        full = (
            size_cls(nodes=2500, jobs=750, duration=30000, sample_interval=300),
            1,
        )
        # Sixteen jobs flooded over the same grid: the REQUEST floods
        # (most of the full run's messages), no queue to reschedule from.
        part = (
            size_cls(
                nodes=2500,
                jobs=16,
                duration=1260.0,
                expanding_start=100.0,
                expanding_end=200.0,
                sample_interval=300.0,
            ),
            3,
            8,
        )
    elif workload == "sim_mix_medium":
        names, kind = MIX_ARMS, "batch"
        full = (size_cls.medium(), 1)
        part = (size_cls.tiny(), 3, 6)
    else:
        raise SystemExit(f"unknown simulator workload {workload!r}")
    if unit:
        size, seeds, repetitions = part
        repetitions = max(2, round(repetitions * scale))
    else:
        size, seeds = full
        size = dataclasses.replace(size, jobs=max(2, round(size.jobs * scale)))
        repetitions = 1
    ops = [
        Op(
            f"{name}@{size.nodes}x{size.jobs}x{int(size.duration)}#{run_seed}",
            kind,
            name,
            size,
            run_seed,
        )
        for run_seed in range(seed, seed + seeds)
        for name in names
    ]
    return ops, repetitions


def op_record(op, summary):
    """The checked outputs of one scenario run, from its RunSummary."""
    extras = summary.extras
    payload = json.dumps(summary.to_dict(), sort_keys=True)
    return {
        "label": op.label,
        "events": summary.executed_events,
        "jobs_completed": summary.completed_jobs,
        "reschedules": summary.reschedules,
        "inform_broadcasts": summary.inform_broadcasts,
        "msgs": dict(summary.traffic_counts),
        "bytes": sum(summary.traffic_bytes.values()),
        "lost": int(extras.get("net_lost", 0)),
        "dropped": int(
            extras.get("net_dropped_detached", 0)
            + extras.get("net_dropped_unknown", 0)
            + extras.get("net_dropped_stale", 0)
        ),
        "acks": int(extras.get("net_reliable_acks", 0)),
        "retransmissions": int(extras.get("net_reliable_retransmissions", 0)),
        "violations": list(summary.violations),
        "summary_sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        "error": None,
    }


def execute(op, experiments, spans, profiler, slices=1):
    """Set up and run one op; returns its RunSummary and the measured
    seconds as a list with one entry per timed slice.

    With ``slices`` > 1 a ``grid`` op is advanced through that many equal
    stretches of simulated time, from the first job submission on
    (``Simulator.run_until``), before ``GridSetup.run`` finishes it: the
    same events in the same order, timed in pieces of a millisecond or so.
    """
    if op.kind == "grid":
        with spans.span("build_grid"):
            grid = experiments.build_grid(
                experiments.get_scenario(op.spec), op.size, op.seed
            )
        times = []
        first = grid.schedule.start
        step = (op.size.duration - first) / slices
        mark = time.perf_counter()
        for index in range(1, slices):
            grid.sim.run_until(first + step * index)
            now = time.perf_counter()
            times.append(now - mark)
            mark = now
        with measured(spans, "run", profiler):
            result = grid.run()
        with measured(spans, "summary", profiler):
            summary = result.summary()
        times.append(time.perf_counter() - mark)
        return summary, times
    spec, options = op.spec, None
    if spec == "chaos":
        spec = experiments.FaultPlan.chaos(op.size.duration)
        options = experiments.RunOptions(reliability=True, failsafe=True)
    started = time.perf_counter()
    with measured(spans, "run_batch", profiler):
        batch = experiments.run_batch(
            spec,
            op.size,
            seeds=[op.seed],
            options=options,
            parallel=1,
            cache=False,
        )
    elapsed = time.perf_counter() - started
    if batch.errors:
        raise RuntimeError(f"run_batch errors: {batch.errors}")
    return batch[0], [elapsed]


def run_sim(args, spans, profiler):
    """The ops of the plan, ``repetitions`` times, round-robin so that
    each is tried all along the pass.  Every slice of every op keeps the
    time of its fastest repetition (``best_s`` is their sum): on a shared
    machine interference only ever slows a repetition down.  ``wall_s``
    is the measured phase of the first round as it happened.
    """
    (experiments,) = import_repro(spans, "repro.experiments")
    unit = args.phase == "unit"
    ops, repetitions = plan(
        args.workload, args.seed, args.scale, unit, experiments
    )
    if args.phase == "setup":
        for op in ops:
            if op.kind == "grid":
                with spans.span("build_grid"):
                    experiments.build_grid(
                        experiments.get_scenario(op.spec), op.size, op.seed
                    )
        return {"wall_s": 0.0, "ops": []}
    slices = UNIT_SLICES if unit else 1
    if profiler is not None:
        # The profile covers GridSetup.run, so nothing runs ahead of it.
        repetitions = slices = 1
    records = [None] * len(ops)
    best = [None] * len(ops)
    for round_index in range(repetitions):
        # Only the first round's spans are kept: later ones would be
        # thousands and say nothing that the slice times do not.
        recorder = spans if round_index == 0 else Spans()
        for index, op in enumerate(ops):
            if records[index] is not None and records[index]["error"]:
                continue
            try:
                summary, times = execute(
                    op, experiments, recorder, profiler, slices
                )
                record = op_record(op, summary)
            except Exception:
                # An op that raises is a failed op, not a failed
                # benchmark: the others still run, the parent counts it.
                records[index] = {
                    "label": op.label,
                    "error": traceback.format_exc(),
                }
                continue
            if records[index] is None:
                records[index] = record
                best[index] = times
                continue
            best[index] = [min(pair) for pair in zip(best[index], times)]
            if record != records[index]:
                records[index]["error"] = (
                    "a repetition of the same run gave another outcome"
                )
    return {
        "wall_s": spans.total("run", "summary", "run_batch"),
        "best_s": sum(sum(times) for times in best if times),
        "repetitions": repetitions,
        "ops": records,
    }


# ----------------------------------------------------------------------
# Live-wire workloads
# ----------------------------------------------------------------------
def run_live(args, spans, profiler):
    runtime, reliability, messages, profiles, jobs = import_repro(
        spans,
        "repro.runtime",
        "repro.net.reliability",
        "repro.core.messages",
        "repro.grid.profiles",
        "repro.workload.jobs",
    )
    acked = args.workload == "live_wire_acked"
    total = max(LIVE_IN_FLIGHT, round(LIVE_MESSAGES * args.scale))
    rng = random.Random(args.seed)
    requirements = profiles.JobRequirements(
        architecture=profiles.Architecture.AMD64,
        memory_gb=2,
        disk_gb=2,
        os=profiles.OperatingSystem.LINUX,
    )

    def make_message(key):
        job = jobs.Job(job_id=key, requirements=requirements, ert=3600.0 + key)
        kind = 3 if acked else key % 4
        if kind == 0:
            return messages.Request(0, job, 5, (0, key))
        if kind == 1:
            return messages.Inform(0, job, 12.5, 5, (0, key))
        if kind == 2:
            return messages.Accept(0, key, 12.5)
        return messages.Assign(0, job, False)

    # The program under test only ever sees generated inputs.
    pairs = []
    for _ in range(total):
        src = rng.randrange(LIVE_ENDPOINTS)
        hop = 1 + rng.randrange(LIVE_ENDPOINTS - 1)
        pairs.append((src, (src + hop) % LIVE_ENDPOINTS))

    sent_at = {}
    latencies = []
    send_calls = []
    chunk_marks = []
    state = {"sent": 0, "delivered": 0, "mismatched": 0}
    out = {}

    async def main():
        loop = asyncio.get_running_loop()
        with spans.span("endpoints"):
            clock = runtime.WallClock(loop, seed=args.seed, time_scale=1.0)
            transport = runtime.LiveTransport(clock, loop=loop)
            layer = reliability.ReliabilityLayer(transport) if acked else None
            send = layer.send if acked else transport.send
            done = loop.create_future()

            def issue():
                key = state["sent"]
                if key >= total:
                    return
                state["sent"] = key + 1
                src, dst = pairs[key]
                message = make_message(key)
                start = time.perf_counter()
                sent_at[key] = (start, dst)
                send(src, dst, message)
                send_calls.append(time.perf_counter() - start)

            def handler_for(node_id):
                def handle(src, message):
                    now = time.perf_counter()
                    key = getattr(message, "job_id", None)
                    if key is None:
                        key = message.job.job_id
                    start, dst = sent_at.pop(key, (None, None))
                    if dst != node_id:
                        state["mismatched"] += 1
                        return
                    latencies.append(now - start)
                    state["delivered"] += 1
                    if state["delivered"] % LIVE_CHUNK == 0:
                        chunk_marks.append(now)
                    if state["delivered"] == total:
                        done.set_result(None)
                    else:
                        issue()

                return handle

            for node_id in range(LIVE_ENDPOINTS):
                # Ephemeral ports only (port=0 is the default).
                await transport.add_endpoint(node_id)
                transport.register(node_id, handler_for(node_id))
        try:
            with spans.span("discover"):
                await transport.discover()
            if args.phase == "setup":
                return
            with measured(spans, "send_phase", profiler):
                chunk_marks.append(time.perf_counter())
                for _ in range(LIVE_IN_FLIGHT):
                    issue()
                try:
                    await asyncio.wait_for(done, timeout=60.0)
                except asyncio.TimeoutError:
                    pass  # the undelivered rest is counted as failed
            with measured(spans, "drain", profiler):
                await transport.drain()
            out["counters"] = transport.network_counters()
            out["msgs"] = dict(transport.monitor.count_by_type)
            out["bytes"] = transport.monitor.total_bytes
        finally:
            clock.stop()
            await transport.drain()
            await transport.close()

    asyncio.run(main())
    record = {"wall_s": spans.total("send_phase", "drain")}
    if args.phase != "setup":
        chunk_times = [
            later - earlier
            for earlier, later in zip(chunk_marks, chunk_marks[1:])
        ]
        latencies.sort()
        if chunk_times:
            record["best_s"] = min(chunk_times) * total / LIVE_CHUNK
        record["live"] = {
            "planned": total,
            "delivered": state["delivered"],
            "mismatched": state["mismatched"],
            "counters": out["counters"],
            "msgs": out["msgs"],
            "bytes": out["bytes"],
            "latency_samples": len(latencies),
            # A pass that delivered nothing has failed every message;
            # its latencies read 0.
            "latency_ms_p50": (
                statistics.median(latencies) * 1e3 if latencies else 0.0
            ),
            "latency_ms_p99": (
                latencies[int(len(latencies) * 0.99)] * 1e3 if latencies else 0.0
            ),
            "send_call_us": (
                statistics.median(send_calls) * 1e6 if send_calls else 0.0
            ),
        }
    return record


# ----------------------------------------------------------------------
# Folding a cProfile run into layers
# ----------------------------------------------------------------------
#: Source files of the package that get a bucket of their own; every
#: other file goes to the bucket of its sub-package.
FILE_LAYERS = {
    "sim/kernel.py": "sim.kernel",
    "sim/events.py": "sim.events",
    "net/transport.py": "net.transport",
    "net/latency.py": "net.latency",
    "net/reliability.py": "net.reliability",
    "net/faults.py": "net.faults",
    "overlay/flooding.py": "overlay.flooding",
    "overlay/graph.py": "overlay.graph",
    "overlay/blatant.py": "overlay.blatant",
    "core/protocol.py": "core.protocol",
    "core/messages.py": "core.messages",
    "runtime/transport.py": "runtime.transport",
    "runtime/http.py": "runtime.http",
    "runtime/codec.py": "runtime.codec",
    "runtime/clock.py": "runtime.clock",
}
PACKAGE_LAYERS = (
    "scheduling",
    "grid",
    "workload",
    "metrics",
    "obs",
    "experiments",
)
#: Built-in functions are reported by cProfile without a file; these
#: substrings of their names decide the stdlib bucket.
BUILTIN_LAYERS = (
    ("_heapq", "stdlib.heapq"),
    ("_random", "stdlib.random"),
    ("_json", "stdlib.json"),
    ("_socket", "stdlib.socket"),
    ("socket.socket", "stdlib.socket"),
    ("select.", "stdlib.select"),
    ("_asyncio", "stdlib.asyncio"),
)
STDLIB_FILE_LAYERS = (
    ("/asyncio/", "stdlib.asyncio"),
    ("/selectors.py", "stdlib.asyncio"),
    ("/json/", "stdlib.json"),
    ("/heapq.py", "stdlib.heapq"),
    ("/random.py", "stdlib.random"),
    ("/socket.py", "stdlib.socket"),
)
LAYERS = (
    tuple(FILE_LAYERS.values())
    + PACKAGE_LAYERS
    + (
        "repro.other",
        "stdlib.heapq",
        "stdlib.random",
        "stdlib.json",
        "stdlib.asyncio",
        "stdlib.socket",
        "stdlib.select",
        "stdlib.other",
        "bench.harness",
    )
)
#: Call counts taken from the same profile: (layer, function name).
CALL_COUNTS = {
    ("scheduling", "cost_of"): "scheduling.cost_of.calls",
    ("overlay.flooding", "choose_targets"): (
        "overlay.flooding.choose_targets.calls"
    ),
}


def layer_of(filename, function):
    """The layer of one profiled function; ``None`` for a built-in that
    has no bucket of its own (its time belongs to whoever called it)."""
    if filename == "~":
        for needle, layer in BUILTIN_LAYERS:
            if needle in function:
                return layer
        return None
    path = filename.replace(os.sep, "/")
    package = SRC.replace(os.sep, "/") + "/repro/"
    if path.startswith(package):
        relative = path[len(package):]
        layer = FILE_LAYERS.get(relative)
        if layer is not None:
            return layer
        top = relative.split("/", 1)[0]
        return top if top in PACKAGE_LAYERS else "repro.other"
    if path.startswith(ROOT.replace(os.sep, "/") + "/bench/"):
        return "bench.harness"
    for needle, layer in STDLIB_FILE_LAYERS:
        if needle in path:
            return layer
    return "stdlib.other"


def fold_profile(profiler):
    """Self time (``tottime``) per layer and the two call counts.

    ``dict.get``, ``len`` and the other built-ins without a bucket are
    part of the Python function that called them, so their time is
    charged to the caller's layer, caller by caller.
    """
    import pstats

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(CALL_COUNTS.values(), 0)
    for function, row in pstats.Stats(profiler).stats.items():
        _primitive, ncalls, tottime, _cumulative, callers = row
        layer = layer_of(function[0], function[2])
        if layer is not None:
            self_s[layer] += tottime
        else:
            charged = 0.0
            for caller, caller_row in callers.items():
                caller_layer = layer_of(caller[0], caller[2])
                self_s[caller_layer or "stdlib.other"] += caller_row[2]
                charged += caller_row[2]
            self_s["stdlib.other"] += tottime - charged
        name = CALL_COUNTS.get((layer, function[2]))
        if name is not None:
            calls[name] += ncalls
    return {"self_s": self_s, "calls": calls}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="share of the benchmark's jobs / messages (self-test: 0.05)",
    )
    parser.add_argument(
        "--phase", default="full", choices=("setup", "full", "unit"),
        help="unit: the repeated short unit of a sim workload",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="the measured phase under cProfile, folded into layers",
    )
    args = parser.parse_args(argv)

    spans = Spans()
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    runner = run_live if args.workload in LIVE_WORKLOADS else run_sim
    record = runner(args, spans, profiler)
    record.update(
        workload=args.workload,
        seed=args.seed,
        phase=args.phase,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        spans=spans.records,
    )
    if profiler is not None:
        record["profile"] = fold_profile(profiler)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
