"""The multi-process chaos gauntlet: SIGKILL + fail-slow + wire faults.

Runs the process-isolated overlay (one OS process per node under the
supervisor) across several seeds, each run under the full chaos stack:

* a SIGKILL crash-stop and a SIGSTOP/SIGCONT stall
  (``ProcessFailureSchedule.chaos``);
* the representative everything-on wire-fault plan
  (``FaultPlan.chaos``: loss, bursts, duplication, delay spikes);
* per-process rotated traces merged post-run and streamed through the
  invariant oracle's trace feed.

The gauntlet passes only if every seed holds **zero invariant
violations** over the merged cross-process trace AND at least one seed
demonstrates durable recovery — a respawned worker announcing
``journal.recovered`` with an incarnation past boot 0.

Usage::

    PYTHONPATH=src python scripts/proc_gauntlet.py
    PYTHONPATH=src python scripts/proc_gauntlet.py --seeds 5 --nodes 5 \
        --wall-seconds 20
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.experiments import FaultPlan
from repro.runtime import ProcRunConfig, ProcessFailureSchedule, run_procs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--nodes", type=int, default=5)
    parser.add_argument("--jobs", type=int, default=8)
    parser.add_argument("--wall-seconds", type=float, default=20.0)
    parser.add_argument("--time-scale", type=float, default=600.0)
    parser.add_argument("--scenario", default="iMixed")
    args = parser.parse_args(argv)

    duration = args.wall_seconds * args.time_scale
    failed = []
    recovered_seeds = []
    for seed in range(args.seeds):
        run_dir = tempfile.mkdtemp(prefix=f"aria-gauntlet-s{seed}-")
        config = ProcRunConfig(
            scenario_name=args.scenario,
            nodes=args.nodes,
            jobs=args.jobs,
            seed=seed,
            time_scale=args.time_scale,
            duration=duration,
            run_dir=run_dir,
            backoff_base=0.2,
            failure_schedule=ProcessFailureSchedule.chaos(args.wall_seconds),
            fault_plan=FaultPlan.chaos(duration),
        )
        started = time.monotonic()
        result = run_procs(config)
        elapsed = time.monotonic() - started
        reborn = any(
            event.get("incarnation", 0) >= 1 for event in result.recovered
        )
        if reborn:
            recovered_seeds.append(seed)
        status = "FAIL" if result.violations else "ok"
        print(
            f"seed {seed}: {status}  "
            f"jobs {result.completed}/{result.submitted}  "
            f"events {result.checked_events}  "
            f"restarts {result.supervisor['restarts']}  "
            f"recoveries {len(result.recovered)}"
            f"{' (reborn)' if reborn else ''}  "
            f"torn {result.torn_lines}  [{elapsed:.1f}s]"
        )
        for violation in result.violations:
            print(f"  VIOLATION: {violation}")
        if result.violations:
            failed.append(seed)

    print()
    if failed:
        print(f"gauntlet FAILED: violations on seeds {failed}")
        return 1
    if not recovered_seeds:
        print(
            "gauntlet FAILED: no seed demonstrated journal recovery past "
            "boot 0 — the SIGKILL arm did not exercise durable restart"
        )
        return 1
    print(
        f"gauntlet passed: {args.seeds} seeds, zero invariant violations, "
        f"journal recovery demonstrated on seeds {recovered_seeds}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
