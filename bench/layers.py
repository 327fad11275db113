"""Isolated layer timings: one loop around one public call each.

Run as a fresh process by ``bench/run.py`` in a traced pass; prints one
JSON object ``{metric name: value}``.  Every timing is the median of
``BATCHES`` batches.  None of these is an end-to-end number: a gain here
counts only once a workload's ``wall_s`` / ``msgs_per_s`` shows it.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import random
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

BATCHES = 5
#: Depth of the queue the cost probes are quoted against.
QUEUE_DEPTH = 50

#: Every metric this file reports, with its unit.
UNITS = {
    "sim.kernel.dispatch_ns": "ns",
    "sim.kernel.cancel_ns": "ns",
    "sim.sampler.tick_ns": "ns",
    "net.transport.send_deliver_ns": "ns",
    "net.latency.sample_ns": "ns",
    "net.reliability.sim_acked_send_ns": "ns",
    "overlay.blatant.build_500_s": "s",
    "overlay.chordal_ring.build_2500_s": "s",
    "overlay.flooding.reach_500_us": "us",
    "scheduling.cost_of.fcfs_us": "us",
    "scheduling.cost_of.sjf_us": "us",
    "scheduling.cost_of.edf_us": "us",
    "scheduling.cost_of.aging_us": "us",
    "scheduling.queue_cost_of.sjf_us": "us",
    "runtime.codec.roundtrip_request_us": "us",
    "runtime.codec.roundtrip_accept_us": "us",
    "runtime.http.post_us": "us",
    "core.journal.append_fsync_us": "us",
    "core.journal.append_nofsync_us": "us",
    "core.journal.reload_1000_ms": "ms",
    "obs.trace.emit_ns": "ns",
    "obs.trace.protocol_overhead_pct": "%",
    "obs.exposition.render_us": "us",
    "experiments.summary.to_json_ms": "ms",
}


def median_of(batch):
    """Median of ``BATCHES`` calls of ``batch()``, which returns the
    time of one operation in seconds."""
    return statistics.median(batch() for _ in range(BATCHES))


def per_call(count, body):
    """Seconds per iteration of ``body(i)`` over ``count`` iterations."""
    start = time.perf_counter()
    for index in range(count):
        body(index)
    return (time.perf_counter() - start) / count


def sample_job(job_id, deadline=None, priority=0):
    from repro.grid.profiles import (
        Architecture,
        JobRequirements,
        OperatingSystem,
    )
    from repro.workload.jobs import Job

    requirements = JobRequirements(
        architecture=Architecture.AMD64,
        memory_gb=2,
        disk_gb=2,
        os=OperatingSystem.LINUX,
    )
    return Job(
        job_id=job_id,
        requirements=requirements,
        ert=3600.0 + job_id * 60.0,
        deadline=deadline,
        priority=priority,
    )


# ----------------------------------------------------------------------
def sim_layers(out, n):
    from repro.core.messages import Accept
    from repro.net import ConstantLatency, SimTransport
    from repro.net.latency import PairwiseLogNormalLatency
    from repro.net.reliability import ReliabilityLayer
    from repro.sim import PeriodicSampler, Simulator

    def noop(*_args):
        return None

    def dispatch():
        sim = Simulator(seed=0)
        start = time.perf_counter()
        for index in range(n):
            sim.call_at(float(index), noop)
        sim.run()
        return (time.perf_counter() - start) / n

    def cancel():
        sim = Simulator(seed=0)
        events = [sim.call_at(float(index), noop) for index in range(n)]
        return per_call(n, lambda index: sim.cancel(events[index]))

    def sampler_tick():
        sim = Simulator(seed=0)
        PeriodicSampler(sim, lambda: 1.0, interval=1.0, start=0.0, until=n)
        start = time.perf_counter()
        sim.run_until(float(n))
        return (time.perf_counter() - start) / n

    def transport(reliable):
        def batch():
            sim = Simulator(seed=0)
            wire = SimTransport(sim, latency=ConstantLatency(0.01))
            wire.register(0, noop)
            wire.register(1, noop)
            send = ReliabilityLayer(wire).send if reliable else wire.send
            message = Accept(0, 1, 12.5)
            start = time.perf_counter()
            for _ in range(n):
                send(0, 1, message)
            sim.run()
            return (time.perf_counter() - start) / n

        return batch

    def latency_sample():
        model = PairwiseLogNormalLatency()
        rng = random.Random(0)
        return per_call(
            n, lambda index: model.sample(index % 50, 50 + index % 37, rng)
        )

    out["sim.kernel.dispatch_ns"] = median_of(dispatch) * 1e9
    out["sim.kernel.cancel_ns"] = median_of(cancel) * 1e9
    out["sim.sampler.tick_ns"] = median_of(sampler_tick) * 1e9
    out["net.transport.send_deliver_ns"] = median_of(transport(False)) * 1e9
    out["net.reliability.sim_acked_send_ns"] = median_of(transport(True)) * 1e9
    out["net.latency.sample_ns"] = median_of(latency_sample) * 1e9


def overlay_layers(out, scale):
    from repro.overlay import build_blatant_overlay
    from repro.overlay.flooding import FloodPolicy, FloodReach
    from repro.overlay.topologies import chordal_ring

    # The sizes in the metric names; the self-test builds smaller ones.
    blatant_size = max(60, round(500 * scale))
    ring_size = max(300, round(2500 * scale))
    seeds = iter(range(1000))
    graphs = []

    def build_blatant():
        start = time.perf_counter()
        graphs.append(
            build_blatant_overlay(blatant_size, random.Random(next(seeds)))
        )
        return time.perf_counter() - start

    def build_ring():
        start = time.perf_counter()
        chordal_ring(ring_size, random.Random(next(seeds)))
        return time.perf_counter() - start

    out["overlay.blatant.build_500_s"] = median_of(build_blatant)
    out["overlay.chordal_ring.build_2500_s"] = median_of(build_ring)

    graph = graphs[-1]
    reach = FloodReach()
    # The paper's REQUEST flood (§IV-E): at most 9 hops, fan-out 4.
    policy = FloodPolicy(max_hops=9, fanout=4)
    rng = random.Random(0)
    out["overlay.flooding.reach_500_us"] = (
        median_of(
            lambda: per_call(
                40,
                lambda index: reach.reach(
                    graph, index % blatant_size, policy, rng
                ),
            )
        )
        * 1e6
    )


def scheduling_layers(out, n):
    from repro.scheduling import make_scheduler

    hour = 3600.0

    def queue(policy):
        scheduler = make_scheduler(policy)
        for job_id in range(1, QUEUE_DEPTH + 1):
            job = sample_job(
                job_id, deadline=40 * hour + job_id * 900.0, priority=job_id % 5
            )
            scheduler.enqueue(job, job.ert, now=float(job_id))
        return scheduler

    probe = sample_job(999, deadline=60 * hour, priority=2)
    for policy in ("FCFS", "SJF", "EDF", "AGING"):
        scheduler = queue(policy)
        out[f"scheduling.cost_of.{policy.lower()}_us"] = (
            median_of(
                lambda: per_call(
                    n,
                    lambda _index: scheduler.cost_of(
                        probe, 2 * hour, 100.0, 0.0
                    ),
                )
            )
            * 1e6
        )
    scheduler = queue("SJF")
    out["scheduling.queue_cost_of.sjf_us"] = (
        median_of(
            lambda: per_call(
                n,
                lambda index: scheduler.queue_cost_of(
                    1 + index % QUEUE_DEPTH, 100.0, 0.0
                ),
            )
        )
        * 1e6
    )


def runtime_layers(out, n):
    from repro.core.messages import Accept, Request
    from repro.runtime.codec import decode_envelope, encode_envelope
    from repro.runtime.http import HttpServer, http_post_json

    def roundtrip(message):
        def body(_index):
            wire = json.dumps(
                encode_envelope("send", 0, 1, message), separators=(",", ":")
            )
            decode_envelope(json.loads(wire))

        return lambda: per_call(n, body)

    out["runtime.codec.roundtrip_request_us"] = (
        median_of(roundtrip(Request(0, sample_job(7), 5, (0, 7)))) * 1e6
    )
    out["runtime.codec.roundtrip_accept_us"] = (
        median_of(roundtrip(Accept(0, 7, 12.5))) * 1e6
    )

    async def posts():
        server = HttpServer(lambda method, path, body: (200, "OK", b"{}"))
        await server.start()  # ephemeral port on 127.0.0.1
        try:
            batches = []
            for _ in range(BATCHES):
                start = time.perf_counter()
                for index in range(n // 10):
                    await http_post_json(
                        server.host, server.port, "/message", {"n": index}
                    )
                batches.append((time.perf_counter() - start) / (n // 10))
            return statistics.median(batches)
        finally:
            await server.close()

    out["runtime.http.post_us"] = asyncio.run(posts()) * 1e6


def journal_layers(out, n):
    from repro.core.journal import DurableJournal

    # Inside the checkout (the benchmark writes nowhere else); removed
    # on exit, also when a timing raises.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        counter = iter(range(10_000))

        def append(fsync, count):
            def batch():
                path = os.path.join(tmp, f"journal-{next(counter)}")
                with DurableJournal(path, fsync=fsync) as journal:
                    return per_call(
                        count,
                        lambda index: journal.record_completion(
                            index, float(index), 0
                        ),
                    )

            return batch

        out["core.journal.append_fsync_us"] = (
            median_of(append(True, max(20, n // 100))) * 1e6
        )
        out["core.journal.append_nofsync_us"] = (
            median_of(append(False, max(200, n // 10))) * 1e6
        )

        path = os.path.join(tmp, "journal-reload")
        with DurableJournal(path, fsync=False) as journal:
            for index in range(1000):
                journal.record_completion(index, float(index), 0)

        def reload():
            start = time.perf_counter()
            with DurableJournal(path, fsync=False) as journal:
                loaded = len(journal.completions)
            elapsed = time.perf_counter() - start
            if loaded != 1000:
                raise RuntimeError(f"journal reloaded {loaded} of 1000 records")
            return elapsed

        out["core.journal.reload_1000_ms"] = median_of(reload) * 1e3


def obs_layers(out, n, scale):
    from repro.experiments import ScenarioScale, build_grid, get_scenario, run
    from repro.obs import TraceConfig, Tracer
    from repro.obs.exposition import render_prometheus

    memory = TraceConfig(level="protocol", sink="memory", telemetry=False)

    def emit():
        tracer = Tracer(memory)
        return per_call(
            n, lambda index: tracer.emit("job.queued", 1.0, job=index, node=3)
        )

    out["obs.trace.emit_ns"] = median_of(emit) * 1e9

    # Off and on alternate so that drift of the machine hits both arms,
    # and each arm keeps its fastest run: the overhead is a few percent,
    # less than the run-to-run noise a median would carry.
    size = ScenarioScale.small()
    size = dataclasses.replace(size, jobs=max(2, round(size.jobs * scale)))
    best = {None: float("inf"), memory: float("inf")}
    for _ in range(BATCHES):
        for trace in best:
            start = time.perf_counter()
            run("iMixed", size, seed=0, trace=trace)
            best[trace] = min(best[trace], time.perf_counter() - start)
    out["obs.trace.protocol_overhead_pct"] = (
        best[memory] / best[None] - 1.0
    ) * 100.0

    grid = build_grid(get_scenario("iMixed"), size, 0)
    summary = grid.run().summary()
    out["obs.exposition.render_us"] = (
        median_of(
            lambda: per_call(20, lambda _index: render_prometheus(grid.registry))
        )
        * 1e6
    )
    out["experiments.summary.to_json_ms"] = (
        median_of(
            lambda: per_call(20, lambda _index: json.dumps(summary.to_dict()))
        )
        * 1e3
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="share of the benchmark's loop counts and sizes (self-test: 0.05)",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    n = max(100, round(20_000 * args.scale))
    out = {}
    sim_layers(out, n)
    overlay_layers(out, args.scale)
    scheduling_layers(out, n // 10)
    runtime_layers(out, n // 10)
    journal_layers(out, n // 10)
    obs_layers(out, n, args.scale)
    missing = sorted(set(UNITS) - set(out))
    if missing:
        raise SystemExit(f"isolated timings not produced: {missing}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
