"""Ablation (the paper's §III-D sketch, evaluated): crash recovery.

Crashes 10 % of the grid mid-run.  Without the fail-safe extension the
jobs held by crashed nodes are lost; with it they are detected and
resubmitted.  The paper proposes the mechanism but never measures it —
this benchmark does.
"""

import statistics

from repro.experiments import CrashPlan, RunOptions, render_table, run_batch


def test_ablation_failsafe(benchmark, aria_scale, aria_seeds, report):
    def build():
        rows = []
        for failsafe in (False, True):
            runs = run_batch(
                CrashPlan(),
                aria_scale,
                seeds=aria_seeds,
                options=RunOptions(failsafe=failsafe),
            )
            rows.append(
                (
                    "failsafe" if failsafe else "baseline",
                    statistics.fmean(r.completed_jobs for r in runs),
                    statistics.fmean(r.incomplete_jobs for r in runs),
                    statistics.fmean(r.resubmissions for r in runs),
                )
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table = render_table(
        ["mode", "completed", "lost jobs", "resubmissions"],
        [
            [mode, f"{done:.1f}", f"{lost:.1f}", f"{resub:.1f}"]
            for mode, done, lost, resub in rows
        ],
    )
    report("Ablation: crash recovery via the fail-safe extension\n\n" + table)

    baseline, failsafe = rows
    # The fail-safe must eliminate (or at least strictly reduce) job loss
    # and complete strictly more jobs whenever the baseline lost any.
    assert failsafe[2] <= baseline[2]
    if baseline[2] > 0:
        assert failsafe[1] > baseline[1]
        assert failsafe[3] > 0
