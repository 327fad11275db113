"""Does a simulator workload's unit move with its full-size run?

The gated timing of a ``sim_*`` workload, ``msgs_per_s_best``, is taken
on a short unit, not on the full-size run a user waits for, because only
the unit repeats on a shared sandbox (see README, "How a timing is
taken").  This script checks the stand-in: it slows one layer down from
outside, by a spin loop wrapped around one public method, and measures
what that does to the unit's ``msgs_per_s_best`` and to the full-size
run's ``msgs_per_s``, in fresh processes, ``--pairs`` times, with and
without the handicap back to back.  If the unit is a fair stand-in, a
message costs the same number of microseconds more in both, and the
rates fall by shares that differ only as the rates themselves do.

    python3 bench/proxy_check.py [--pairs 3] [--workload NAME]

Not part of the benchmark's command; its results are in the README.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (bench/run.py)
import worker  # noqa: E402  (bench/worker.py)

#: name -> (module, class, method, spin iterations per call): about
#: 3 us on every simulated message, or on every flooded one.
HANDICAPS = {
    "net.transport": ("repro.net.transport", "SimTransport", "send", 150),
    "overlay.flooding": (
        "repro.overlay.flooding", "SeenCache", "seen_before", 150,
    ),
}


def handicap(name):
    """Wrap the method (and its overrides in subclasses that are already
    imported) so that every call first spins."""
    module_name, class_name, method, spins = HANDICAPS[name]
    sys.path.insert(0, worker.SRC)
    importlib.import_module("repro.experiments")  # defines every subclass
    base = getattr(importlib.import_module(module_name), class_name)

    def subclasses(cls):
        yield cls
        for sub in cls.__subclasses__():
            yield from subclasses(sub)

    for cls in subclasses(base):
        if method not in vars(cls):
            continue
        original = vars(cls)[method]

        def slowed(*args, _original=original, **kwargs):
            for _ in range(spins):
                pass
            return _original(*args, **kwargs)

        setattr(cls, method, slowed)


def cost_us(workload, seed, phase, name):
    """Microseconds per message of one fresh child: with every repeated
    part at its fastest for the unit, as measured for the full-size run."""
    command = [sys.executable, os.path.abspath(__file__), "--child", name or "",
               "--workload", workload, "--seed", str(seed), "--phase", phase]
    done = subprocess.run(
        command, env=run.child_env(), stdout=subprocess.PIPE, text=True,
        timeout=run.CHILD_TIMEOUT_S, check=True,
    )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    seconds = record["best_s"] if phase == "unit" else record["wall_s"]
    return seconds / run.messages_of(record) * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=worker.SIM_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--phase", choices=("full", "unit"))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--child", help="(internal) handicap of this child")
    args = parser.parse_args(argv)

    if args.child is not None:
        if args.child:
            handicap(args.child)
        return worker.main(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--phase", args.phase]
        )

    selected = [args.workload] if args.workload else worker.SIM_WORKLOADS
    print("us per message without -> with the handicap (added), rate kept;"
          " medians of the pairs, then the added us of each pair")
    for workload in selected:
        for name in HANDICAPS:
            pairs = {"unit": [], "full": []}
            for pair in range(args.pairs):
                for phase in pairs:
                    # Alternate which side of the pair runs first.
                    order = [None, name] if pair % 2 == 0 else [name, None]
                    cost = {
                        side: cost_us(workload, args.seed + pair, phase, side)
                        for side in order
                    }
                    pairs[phase].append((cost[None], cost[name]))
            line = f"{workload:<18} {name:<17}"
            for phase, costs in pairs.items():
                base = statistics.median(c[0] for c in costs)
                slowed = statistics.median(c[1] for c in costs)
                line += (
                    f" {phase} {base:5.2f} -> {slowed:5.2f} "
                    f"(+{slowed - base:4.2f}) kept {base / slowed:.2f}"
                    f" {[round(c[1] - c[0], 2) for c in costs]}"
                )
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
