"""Experiment framework: Table II catalog, engine, figures, reporting.

The unified entry points are :func:`run` (one experiment, live result)
and :func:`run_batch` (many seeds, cached + parallel, returning
:class:`RunSummary` objects in a :class:`BatchResult`).  The spec passed
to either may be a :class:`Scenario`, a baseline name, a
:class:`CrashPlan`, a :class:`FailureModel` (composed crash-stop /
crash-restart / fail-slow node failures), a :class:`ChurnPlan`, or a
:class:`FaultPlan` (network fault injection, judged by the invariant
oracle of :mod:`repro.metrics.oracle`).
"""

from ..metrics.oracle import validate_run
from ..obs.trace import TraceConfig
from .aggregate import ScenarioSummary, average_series, summarize_runs
from .catalog import SCENARIOS, get_scenario, scenario_names, with_rescheduling
from .churn import ChurnPlan
from .engine import BatchResult, ResultCache, run, run_batch
from .failures import CrashPlan, FailureModel
from .faults import FaultPlan, apply_fault_plan
from .options import RunOptions
from .report import fmt_hours, fmt_opt, render_series, render_table
from .runner import GridSetup, RunResult, build_grid
from .scale import SCALES, ScenarioScale, bench_scale_from_env
from .scenario import Scenario
from .summary import RunSummary

__all__ = [
    "BatchResult",
    "ChurnPlan",
    "CrashPlan",
    "FailureModel",
    "FaultPlan",
    "GridSetup",
    "ResultCache",
    "RunOptions",
    "RunResult",
    "RunSummary",
    "apply_fault_plan",
    "build_grid",
    "run",
    "run_batch",
    "SCALES",
    "SCENARIOS",
    "Scenario",
    "ScenarioScale",
    "ScenarioSummary",
    "TraceConfig",
    "average_series",
    "bench_scale_from_env",
    "fmt_hours",
    "fmt_opt",
    "get_scenario",
    "render_series",
    "render_table",
    "scenario_names",
    "summarize_runs",
    "validate_run",
    "with_rescheduling",
]
