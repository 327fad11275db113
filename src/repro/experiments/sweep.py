"""Parameter sweeps: sensitivity curves beyond the paper's sample points.

The paper probes its parameters at two or three values each (iInform1/4,
iInform15m/30m, Accuracy25/Bad).  :func:`sweep_scenario_field` and
:func:`sweep_config_field` generalize that: vary one field of the
:class:`~repro.experiments.Scenario` (or of the protocol
:class:`~repro.core.AriaConfig`) across arbitrary values and collect one
:class:`~repro.experiments.ScenarioSummary` per point.

Example — a full INFORM-cadence sensitivity curve::

    points = sweep_config_field(
        "iMixed", "inform_interval",
        [60, 150, 300, 600, 1200], scale, seeds=(0, 1))
    for p in points:
        print(p.value, p.summary.average_completion_time,
              p.summary.traffic_bytes.get("Inform", 0))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ConfigurationError
from .aggregate import ScenarioSummary, summarize_runs
from .catalog import get_scenario
from .engine import run_batch
from .options import RunOptions
from .scale import ScenarioScale

__all__ = ["SweepPoint", "sweep_scenario_field", "sweep_config_field"]


@dataclass
class SweepPoint:
    """One sampled point of a sweep."""

    field: str
    value: object
    summary: ScenarioSummary


def _sweep_point(
    scenario, scale, seeds, config_overrides=None, parallel=None
):
    """One sweep point via the batch engine (cached, optionally parallel)."""
    return summarize_runs(
        run_batch(
            scenario,
            scale,
            seeds=seeds,
            options=RunOptions(config_overrides=config_overrides),
            parallel=parallel,
        )
    )


def sweep_scenario_field(
    scenario_name: str,
    field: str,
    values: Sequence[object],
    scale: Optional[ScenarioScale] = None,
    seeds: Sequence[int] = (0,),
    parallel: Optional[int] = None,
) -> List[SweepPoint]:
    """Vary one :class:`Scenario` field (e.g. ``submission_interval``,
    ``inform_count``, ``epsilon``) across ``values``."""
    base = get_scenario(scenario_name)
    if field not in {f.name for f in dataclasses.fields(base)}:
        raise ConfigurationError(f"Scenario has no field {field!r}")
    points: List[SweepPoint] = []
    for value in values:
        scenario = dataclasses.replace(
            base, name=f"{base.name}[{field}={value}]", **{field: value}
        )
        points.append(
            SweepPoint(
                field,
                value,
                _sweep_point(scenario, scale, seeds, parallel=parallel),
            )
        )
    return points


def sweep_config_field(
    scenario_name: str,
    field: str,
    values: Sequence[object],
    scale: Optional[ScenarioScale] = None,
    seeds: Sequence[int] = (0,),
    parallel: Optional[int] = None,
) -> List[SweepPoint]:
    """Vary one protocol :class:`~repro.core.AriaConfig` field (e.g.
    ``inform_interval``, ``accept_wait``, ``improvement_threshold``)."""
    from ..core.config import AriaConfig

    base = get_scenario(scenario_name)
    if field not in {f.name for f in dataclasses.fields(AriaConfig)}:
        raise ConfigurationError(f"AriaConfig has no field {field!r}")
    points: List[SweepPoint] = []
    for value in values:
        scenario = dataclasses.replace(
            base, name=f"{base.name}[{field}={value}]"
        )
        points.append(
            SweepPoint(
                field,
                value,
                _sweep_point(
                    scenario,
                    scale,
                    seeds,
                    config_overrides={field: value},
                    parallel=parallel,
                ),
            )
        )
    return points
