"""Census of what importing one entry point costs a fresh process.

For each ENTRY it starts a fresh interpreter, imports the entry, and
prints the ``repro`` modules and all modules then loaded, the import's
wall time (median over ``--repeat`` interpreters) and the process's
``ru_maxrss``::

    PYTHONPATH=src python scripts/import_census.py repro.runtime repro.experiments
    PYTHONPATH=src python scripts/import_census.py repro.runtime:LiveTransport,WallClock
    PYTHONPATH=/other/checkout/src python scripts/import_census.py repro.core.messages

An entry ``module:Name,...`` also reads those names from the module, which
is what resolves a package's lazy re-exports (``docs/PERFORMANCE.md``,
"Import only what runs").  ``--names`` lists the ``repro`` modules loaded.
The package comes from ``PYTHONPATH`` (this checkout's ``src/`` is only
the fallback), so the one file measures any two trees against each other.
With ``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__`` in the tree —
a fresh checkout, as the benchmark runs one — every module imported is
compiled from source, so the module count is what the wall time follows.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CHILD = """
import importlib, json, resource, sys, time
module, _, names = sys.argv[1].partition(":")
start = time.perf_counter()
loaded = importlib.import_module(module)
for name in filter(None, names.split(",")):
    getattr(loaded, name)
seconds = time.perf_counter() - start
print(json.dumps({
    "origin": sys.modules["repro"].__file__,
    "repro": sorted(m for m in sys.modules if m == "repro" or m.startswith("repro.")),
    "modules": len(sys.modules),
    "seconds": seconds,
    "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""


def measure(entry: str, repeat: int) -> dict:
    """Import ``entry`` in ``repeat`` fresh interpreters; the last one's
    module census with the median wall time and ``ru_maxrss``."""
    path = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [path, SRC])))
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", CHILD, entry],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout
        )
        for _ in range(repeat)
    ]
    census = dict(runs[-1])
    census["seconds"] = statistics.median(run["seconds"] for run in runs)
    census["maxrss_mib"] = statistics.median(run["maxrss_mib"] for run in runs)
    return census


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("entries", nargs="+", metavar="ENTRY")
    parser.add_argument("--repeat", type=int, default=3, help="interpreters per entry")
    parser.add_argument("--names", action="store_true", help="list the repro modules")
    args = parser.parse_args(argv)
    print(f"{'entry':<44} {'repro':>5} {'all':>5} {'import ms':>10} {'maxrss MiB':>11}")
    origin = None
    for entry in args.entries:
        census = measure(entry, max(1, args.repeat))
        origin = census["origin"]
        print(
            f"{entry:<44} {len(census['repro']):>5} {census['modules']:>5} "
            f"{census['seconds'] * 1000:>10.1f} {census['maxrss_mib']:>11.1f}"
        )
        if args.names:
            for name in census["repro"]:
                print(f"    {name}")
    print(f"repro from {os.path.dirname(origin)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
