"""Ablation (beyond the paper): sustained membership churn.

The paper's Expanding scenarios only grow the grid once.  This benchmark
keeps the membership turning over — joins, graceful leaves and crashes —
and measures how much of the workload survives, with and without the
fail-safe extension.
"""

import statistics

from repro.experiments import ChurnPlan, RunOptions, render_table, run_batch


def test_ablation_churn(benchmark, aria_scale, aria_seeds, report):
    plans = {
        "join+leave": ChurnPlan(),
        "join+leave+crash": ChurnPlan(crash_weight=0.5),
        "join+leave+crash+failsafe": ChurnPlan(crash_weight=0.5),
    }

    def build():
        rows = []
        for label, plan in plans.items():
            failsafe = "failsafe" in label
            runs = run_batch(
                plan,
                aria_scale,
                seeds=aria_seeds,
                options=RunOptions(failsafe=failsafe),
            )
            for run in runs:
                assert run.duplicate_executions == 0
            rows.append(
                (
                    label,
                    statistics.fmean(r.completed_jobs for r in runs),
                    statistics.fmean(r.incomplete_jobs for r in runs),
                    statistics.fmean(r.resubmissions for r in runs),
                )
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table = render_table(
        ["churn mix", "completed", "lost", "resubmissions"],
        [
            [label, f"{done:.1f}", f"{lost:.1f}", f"{resub:.1f}"]
            for label, done, lost, resub in rows
        ],
    )
    report("Ablation: sustained membership churn (iMixed workload)\n\n" + table)

    by_label = {row[0]: row for row in rows}
    # Graceful-only churn loses nothing; crashes lose jobs; the fail-safe
    # recovers most of them.
    assert by_label["join+leave"][2] == 0
    assert (
        by_label["join+leave+crash+failsafe"][2]
        <= by_label["join+leave+crash"][2]
    )
