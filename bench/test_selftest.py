"""The benchmark's self-test under pytest: ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths`` is ``tests/``).  Runs all six
workloads, full size and unit, unprofiled and profiled, and the isolated
timings at 1/20 size, in about 50 s, and fails on any problem
``run.selftest()`` reports: a metric of ``BENCHMARK.json`` missing or in
another unit, an ill-formed name, a failed output check, or a corrupted
pinned count that goes unnoticed.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (bench/run.py)


def test_selftest_finds_no_problems():
    assert run.selftest() == []
