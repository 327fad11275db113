#!/usr/bin/env python
"""Full reproduction driver: every figure of the paper at a chosen scale.

Renders Figures 1-10 plus the ablations and writes them under
``benchmarks/results/<scale>/``.  At paper scale with 3 seeds this takes
roughly 15-20 minutes on a laptop.

Usage::

    python scripts/reproduce_paper.py [scale] [seed_count]

``scale`` is any preset name in ``repro.experiments.scale.SCALES``
(default ``paper``).
"""

import sys
import time
from pathlib import Path

from repro.experiments import figures
from repro.experiments.scale import SCALES

FIGURES = [
    ("fig1_completed_jobs", figures.fig1_completed_jobs),
    ("fig2_completion_time", figures.fig2_completion_time),
    ("fig3_idle_nodes", figures.fig3_idle_nodes),
    ("fig4_deadlines", figures.fig4_deadlines),
    ("fig5_expanding", figures.fig5_expanding),
    ("fig6_load_idle", figures.fig6_load_idle),
    ("fig7_load_completion", figures.fig7_load_completion),
    ("fig8_resched_policies", figures.fig8_resched_policies),
    ("fig9_ert_accuracy", figures.fig9_ert_accuracy),
    ("fig10_traffic", figures.fig10_traffic),
]


def main() -> None:
    scale_name = sys.argv[1] if len(sys.argv) > 1 else "paper"
    seed_count = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    scale = SCALES[scale_name]()
    seeds = tuple(range(seed_count))
    out_dir = (
        Path(__file__).resolve().parent.parent
        / "benchmarks"
        / "results"
        / scale_name
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    print(
        f"scale={scale_name} ({scale.nodes} nodes, {scale.jobs} jobs), "
        f"seeds={seeds}",
        flush=True,
    )
    start = time.time()
    for name, builder in FIGURES:
        t0 = time.time()
        fig = builder(scale, seeds)
        text = fig.render()
        if hasattr(fig, "series"):  # zoom time-series figures into the load
            text += (
                "\n\nZoom (loaded phase, first quarter of the run):\n\n"
                + fig.render(points=12, until=scale.duration * 0.25)
            )
        (out_dir / f"{name}.txt").write_text(text + "\n")
        print(f"[{time.time() - start:7.1f}s] {name} ({time.time() - t0:.1f}s)")
        print(text, flush=True)
        print(flush=True)
    print(f"done in {time.time() - start:.1f}s; results in {out_dir}")


if __name__ == "__main__":
    main()
