"""Unified, parallel, cached experiment execution.

The paper's evaluation is 26 scenarios × 10 seeds × 41 h 40 m of simulated
grid activity (§IV) — embarrassingly parallel across ``(spec, scale,
seed)`` work units, since every run is a deterministic function of its
seed.  This module is the single entry point for all of it:

* :func:`run` — one run of *any* experiment spec: a
  :class:`~repro.experiments.scenario.Scenario`, a Table II scenario name,
  a baseline name (``"centralized"`` / ``"multirequest"`` / ``"random"`` /
  ``"gossip"``), a :class:`~repro.experiments.failures.CrashPlan`, a
  :class:`~repro.experiments.failures.FailureModel`, a
  :class:`~repro.experiments.churn.ChurnPlan`, or a
  :class:`~repro.experiments.faults.FaultPlan`.  Returns the full live
  result object (``RunResult`` / ``BaselineRunResult``).
* :func:`run_batch` — the same spec fanned over many seeds, optionally
  across spawned worker processes that each hold one work unit at a
  time, returning picklable
  :class:`~repro.experiments.summary.RunSummary` objects in a
  :class:`BatchResult`.  The parallel path survives crashed and hung
  worker processes: each work unit gets an optional ``seed_timeout`` and
  one automatic retry, and anything that still fails is recorded in
  ``BatchResult.errors`` instead of raising away the seeds that did
  finish.
* :class:`ResultCache` — a content-addressed on-disk cache keyed by the
  hash of (spec, scale, seed, options, code version), so re-running
  figures, sweeps and comparisons is incremental.

Determinism guarantee: a parallel batch produces summaries bit-identical
(``RunSummary.to_dict()``) to the serial path for the same seeds — both
paths execute the exact same worker function on the exact same canonical
payload, and every simulation draws only from seed-derived RNG streams
(:mod:`repro.sim.rng`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..errors import ConfigurationError
from ..obs.trace import TraceConfig
from .catalog import SCENARIOS, get_scenario
from .churn import ChurnPlan
from .failures import CrashPlan, FailureModel
from .faults import FaultPlan
from .options import RunOptions
from .runner import run_grid
from .scale import ScenarioScale
from .scenario import Scenario
from .summary import RunSummary

__all__ = [
    "BatchResult",
    "ExperimentSpec",
    "ResultCache",
    "cache_key",
    "code_version",
    "default_cache_dir",
    "run",
    "run_batch",
]

#: Anything :func:`run` / :func:`run_batch` accepts as a spec.
ExperimentSpec = Union[
    Scenario, str, CrashPlan, FailureModel, ChurnPlan, FaultPlan
]

#: Bump to invalidate every cached result regardless of code hash.
_CACHE_FORMAT = 1

#: Option keys accepted per spec kind (unknown keys are a hard error —
#: a typo must never silently change what gets simulated or cached).
_ALLOWED_OPTIONS = {
    "scenario": {"config_overrides"},
    "baseline": {"policies", "submission_interval", "multirequest_k"},
    "crash": {"failsafe", "scenario_name", "probe_interval"},
    "churn": {"failsafe", "scenario_name"},
    "faults": {"reliability", "failsafe", "scenario_name", "probe_interval"},
    "failures": {
        "failsafe",
        "adoption",
        "reliability",
        "scenario_name",
        "probe_interval",
        "deadline_slack",
        "fault_plan",
    },
}

#: What differs per grid spec kind — everything else is the one path of
#: :func:`~repro.experiments.runner.run_grid`.  ``failsafe`` / ``adoption``
#: / ``reliability`` / ``deadline_slack`` are the values in force when the
#: option is unset (or not accepted, see :data:`_ALLOWED_OPTIONS`);
#: ``suffix`` labels the scenario, extended by ``flag[1]`` when option
#: ``flag[0]`` resolves true; ``check`` runs the post-run invariant sweep.
_GRID_KINDS = {
    "scenario": dict(
        type=Scenario, failsafe=False, adoption=False, reliability=False,
        deadline_slack=0.0, suffix="", flag=None, check=False,
    ),
    "crash": dict(
        type=CrashPlan, failsafe=False, adoption=False, reliability=False,
        deadline_slack=0.0, suffix="+crash", flag=("failsafe", "+failsafe"),
        check=False,
    ),
    "churn": dict(
        type=ChurnPlan, failsafe=False, adoption=False, reliability=False,
        deadline_slack=0.0, suffix="+churn", flag=None, check=False,
    ),
    "faults": dict(
        type=FaultPlan, failsafe=True, adoption=False, reliability=True,
        deadline_slack=0.0, suffix="+faults", flag=("reliability", "+reliable"),
        check=True,
    ),
    "failures": dict(
        type=FailureModel, failsafe=True, adoption=True, reliability=True,
        deadline_slack=3.0, suffix="+failures", flag=("failsafe", "+failsafe"),
        check=True,
    ),
}

#: ``run_grid`` keyword of each plan a grid payload may carry → its type.
_PLAN_TYPES = {"failures": FailureModel, "churn": ChurnPlan, "faults": FaultPlan}

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Content hash of the installed ``repro`` sources (cache key input).

    Hashing file contents (not mtimes, not git state) means any source
    edit — including uncommitted ones — invalidates cached results, while
    re-checkouts of identical code keep hitting.

    Interpreter artifacts (``__pycache__`` directories, ``.pyc`` files) are
    excluded: they vary with the Python version and with *when* modules
    were imported, which would make the version hash unstable across
    otherwise identical checkouts.
    """
    global _code_version_cache
    if _code_version_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            if "__pycache__" in path.parts or path.suffix == ".pyc":
                continue
            digest.update(path.relative_to(package_root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def default_cache_dir() -> Path:
    """The on-disk cache location: ``$ARIA_CACHE_DIR`` or
    ``~/.cache/aria-repro``."""
    env = os.environ.get("ARIA_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "aria-repro"


def cache_key(payload: Dict[str, Any]) -> str:
    """Content address of one work unit: SHA-256 over the canonical JSON
    of the payload plus the cache format and code version."""
    canonical = json.dumps(
        {
            "format": _CACHE_FORMAT,
            "code": code_version(),
            "payload": payload,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Content-addressed on-disk store of :class:`RunSummary` payloads.

    One JSON file per work unit under ``root/<key[:2]>/<key>.json``; the
    file also embeds the originating payload for debuggability.  Writes
    are atomic (temp file + rename), so concurrent batches sharing a
    cache directory at worst redo work, never corrupt it.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        #: Lookup / store counters (reset per instance), for hit-ratio
        #: reporting in benchmarks and tests.
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[RunSummary]:
        """Return the cached summary for ``key``, or ``None`` on a miss
        (including unreadable/corrupt entries, which are treated as
        absent)."""
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
            summary = RunSummary.from_dict(data["summary"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return summary

    def store(
        self,
        key: str,
        summary: RunSummary,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist ``summary`` under ``key`` (atomically)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"key": key, "payload": payload, "summary": summary.to_dict()}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(document))
        os.replace(tmp, path)
        self.stores += 1

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if self.root.exists():
            for path in self.root.glob("*/*.json"):
                path.unlink()
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))


# ----------------------------------------------------------------------
# Spec normalization
# ----------------------------------------------------------------------
def _spec_payload(spec: ExperimentSpec, options: Dict[str, Any]) -> Dict[str, Any]:
    """Canonical JSON-able description of (spec, options).

    The payload is both the pickle-free unit shipped to worker processes
    and the content hashed for the cache key, so it must round-trip the
    spec exactly.  There are two shapes: a baseline, and a grid run with
    every :data:`_GRID_KINDS` default already resolved.
    """
    if isinstance(spec, str):
        from ..baselines.runner import BASELINE_NAMES

        if spec in SCENARIOS:
            spec = SCENARIOS[spec]
        elif spec in BASELINE_NAMES:
            _check_options("baseline", options, _ALLOWED_OPTIONS["baseline"])
            normalized = dict(options)
            if "policies" in normalized:
                normalized["policies"] = list(normalized["policies"])
            return {"kind": "baseline", "baseline": spec, "options": normalized}
        else:
            raise ConfigurationError(
                f"unknown experiment spec {spec!r}: not a Table II scenario "
                f"or baseline name"
            )
    kind = next(
        (k for k, row in _GRID_KINDS.items() if isinstance(spec, row["type"])),
        None,
    )
    if kind is None:
        raise ConfigurationError(
            f"unsupported experiment spec type {type(spec).__name__}; expected "
            f"Scenario, scenario/baseline name, CrashPlan, FailureModel, "
            f"ChurnPlan or FaultPlan"
        )
    _check_options(kind, options, _ALLOWED_OPTIONS[kind])
    row = _GRID_KINDS[kind]
    fault_plan = options.get("fault_plan")
    if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
        raise ConfigurationError(
            f"fault_plan must be a FaultPlan, got {type(fault_plan).__name__}"
        )
    if kind == "crash":
        # A crash plan is the crash-stop-only failure model (same
        # ``failures``-stream draws) under the crash row's defaults.
        kind, spec = "failures", FailureModel.from_crash_plan(spec)
    scenario = (
        spec
        if kind == "scenario"
        else get_scenario(options.get("scenario_name", "iMixed"))
    )
    args = {
        "config_overrides": dict(options.get("config_overrides") or {}) or None,
        "deadline_slack": options.get("deadline_slack", row["deadline_slack"]),
        "check": row["check"],
    }
    for name in ("failsafe", "adoption", "reliability"):
        args[name] = bool(options.get(name, row[name]))
    if "probe_interval" in options:
        args["probe_interval"] = options["probe_interval"]
    args["suffix"] = row["suffix"] + (
        row["flag"][1] if row["flag"] and args[row["flag"][0]] else ""
    )
    plans = {}
    if kind in _PLAN_TYPES:
        plans[kind] = dataclasses.asdict(spec)
    if fault_plan is not None:
        plans["faults"] = dataclasses.asdict(fault_plan)
    return {
        "kind": "grid",
        "scenario": scenario.to_dict(),
        "plans": plans,
        "args": args,
    }


def _check_options(kind: str, options: Dict[str, Any], allowed) -> None:
    unknown = set(options) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown option(s) {sorted(unknown)} for {kind} spec; "
            f"allowed: {sorted(allowed)}"
        )


def _attach_trace(payload: Dict[str, Any], trace, seed: int) -> None:
    """Embed a seed-resolved :class:`TraceConfig` into one work unit.

    The trace config joins the canonical payload — and therefore the
    cache key — so a traced run is never silently served from (or stored
    as) an untraced cache entry.  Untraced payloads carry no ``trace``
    key at all, keeping their keys identical to pre-observability ones.
    """
    if trace is None:
        return
    if not isinstance(trace, TraceConfig):
        raise ConfigurationError(
            f"trace must be a repro.obs.TraceConfig, got "
            f"{type(trace).__name__}"
        )
    if payload["kind"] == "baseline":
        raise ConfigurationError(
            "tracing is not supported for baseline runs (baselines bypass "
            "the ARiA grid; there is no protocol activity to record)"
        )
    payload["trace"] = trace.resolved(seed).to_dict()


def _run_payload(payload: Dict[str, Any]):
    """Execute one canonical work unit, returning the live result object."""
    scale = ScenarioScale(**payload["scale"])
    seed = payload["seed"]
    kind = payload["kind"]
    obs = (
        TraceConfig.from_dict(payload["trace"])
        if payload.get("trace") is not None
        else None
    )
    if kind == "baseline":
        from ..baselines.runner import _run_baseline

        options = dict(payload.get("options") or {})
        if "policies" in options:
            options["policies"] = tuple(options["policies"])
        return _run_baseline(payload["baseline"], scale, seed, **options)
    if kind == "grid":
        plans = {
            name: _PLAN_TYPES[name](**fields)
            for name, fields in payload["plans"].items()
        }
        return run_grid(
            Scenario.from_dict(payload["scenario"]),
            scale,
            seed,
            obs=obs,
            **plans,
            **payload["args"],
        )
    raise ConfigurationError(f"unknown work-unit kind {kind!r}")


def _inject_worker_fault(spec: str, seed: int) -> None:
    """Test hook: make this worker misbehave for a designated seed.

    ``$ARIA_TEST_WORKER_FAULT`` formats (exercised by the batch-hardening
    tests; a no-op for every other seed):

    * ``crash:<seed>`` — hard-exit the worker process (simulates a
      segfault / OOM kill) every time that seed runs.
    * ``hang:<seed>`` — sleep forever (simulates a wedged worker; only a
      ``seed_timeout`` can recover the batch).
    * ``crash_once:<seed>:<marker-path>`` — hard-exit the first time,
      succeed on the retry (the marker file records the first strike).
    """
    parts = spec.split(":")
    kind = parts[0]
    if kind not in ("crash", "hang", "crash_once") or int(parts[1]) != seed:
        return
    if kind == "crash":
        os._exit(53)
    if kind == "hang":
        import time

        while True:  # pragma: no cover - killed by the batch timeout
            time.sleep(3600)
    marker = Path(parts[2])
    if not marker.exists():
        marker.write_text("struck")
        os._exit(53)


def _execute_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one unit, return ``RunSummary.to_dict()``.

    Dict-in / dict-out, and called both in-process by the serial path and
    by :func:`_worker_loop` in a worker process, so both paths traverse
    the exact same code — the basis of the bit-identical determinism
    guarantee.
    """
    fault = os.environ.get("ARIA_TEST_WORKER_FAULT")
    if fault:
        _inject_worker_fault(fault, payload["seed"])
    return _run_payload(payload).summary().to_dict()


def _worker_loop(conn) -> None:
    """Body of one batch worker process: run units until told to stop.

    Receives one payload at a time over ``conn`` and replies ``(True,
    summary dict)`` or ``(False, "Type: message")``; ``None`` ends the
    loop.  Holding a single unit at a time is what lets the parent blame
    a dead or wedged worker on exactly that unit.  Ctrl-C is left to the
    parent, which stops every worker on its way out.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with conn:
        for payload in iter(conn.recv, None):
            try:
                reply = (True, _execute_payload(payload))
            except Exception as exc:
                reply = (False, f"{type(exc).__name__}: {exc}")
            conn.send(reply)


def _resolve_parallel(parallel: Optional[int], pending: int) -> int:
    """Number of worker processes to use for ``pending`` cache misses."""
    if parallel is None:
        env = os.environ.get("ARIA_PARALLEL")
        parallel = int(env) if env else 1
    if parallel <= 0:
        parallel = os.cpu_count() or 1
    return max(1, min(parallel, pending))


def _resolve_cache(cache) -> Optional[ResultCache]:
    """Map the ``cache`` argument to a :class:`ResultCache` or ``None``.

    ``None`` (the default) enables the default on-disk cache; ``False``
    disables caching; a :class:`ResultCache` instance is used as-is.
    """
    if cache is None:
        return ResultCache()
    if cache is False:
        return None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def run(
    spec: ExperimentSpec,
    scale: Optional[ScenarioScale] = None,
    *,
    seed: int = 0,
    options: Optional[RunOptions] = None,
    profile: bool = False,
    profile_out: Optional[str] = None,
    trace: Optional[TraceConfig] = None,
):
    """One run of any experiment spec; returns the live result object.

    ``spec`` is a :class:`Scenario` (or Table II scenario name), a
    baseline name, a :class:`CrashPlan`, a :class:`ChurnPlan`, or a
    :class:`FaultPlan`.  ``options`` is a :class:`RunOptions` carrying
    the per-kind spec options — ``config_overrides`` (scenario);
    ``policies`` / ``submission_interval`` / ``multirequest_k``
    (baseline); ``failsafe`` / ``scenario_name`` / ``probe_interval``
    (crash); ``failsafe`` / ``scenario_name`` (churn); ``reliability`` /
    ``failsafe`` / ``scenario_name`` / ``probe_interval`` (faults) — the
    engine rejects options that do not apply to the spec's kind.

    With ``profile=True`` the run executes under :mod:`cProfile` and the
    top 20 functions by cumulative time are printed to stderr afterwards
    (the simulated outcome is unaffected — profiling only observes).
    ``profile_out`` saves the raw stats to a file instead (loadable with
    :class:`pstats.Stats`); it implies profiling and composes with
    ``profile=True`` (print *and* save).

    ``trace`` is a :class:`~repro.obs.TraceConfig`: events are recorded
    to its sink and the metrics-registry snapshot is surfaced as
    ``RunSummary.telemetry`` (not supported for baseline specs).

    Returns a :class:`~repro.experiments.runner.RunResult` (scenario,
    crash, churn) or :class:`~repro.baselines.runner.BaselineRunResult`
    (baseline); call ``.summary()`` on either for the picklable hand-off.
    """
    opts = options if options is not None else RunOptions()
    scale = scale if scale is not None else ScenarioScale.paper()
    payload = _spec_payload(spec, opts.spec_options())
    payload["scale"] = dataclasses.asdict(scale)
    payload["seed"] = seed
    _attach_trace(payload, trace, seed)
    if not profile and profile_out is None:
        return _run_payload(payload)
    import cProfile
    import pstats
    import sys

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = _run_payload(payload)
    finally:
        profiler.disable()
        if profile_out is not None:
            pstats.Stats(profiler).dump_stats(profile_out)
        if profile:
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(20)
    return result


def _resolve_progress(progress, total: int):
    """Map the ``progress`` argument to a ``callback(done, total)``.

    ``None``/``False`` disables reporting; ``True`` prints
    ``[done/total]`` lines to stderr; a callable is used as-is.
    """
    if progress is None or progress is False:
        return None
    if callable(progress):
        return progress
    import sys

    def printer(done: int, total: int = total) -> None:
        print(f"[{done}/{total}] runs complete", file=sys.stderr, flush=True)

    return printer


class BatchResult(List[RunSummary]):
    """Per-seed summaries of a batch, plus any per-seed failures.

    A plain list of :class:`RunSummary` in ``seeds`` order (failed seeds
    omitted), so every existing consumer of ``run_batch`` keeps working
    unchanged.  ``errors`` maps each failed seed to a human-readable
    reason (worker crash, hang past ``seed_timeout``, or a raised
    exception) — a batch with one poisoned seed degrades to one missing
    summary instead of throwing away the other nine.
    """

    def __init__(self, summaries=(), errors: Optional[Dict[int, str]] = None):
        super().__init__(summaries)
        #: seed → failure description, for seeds with no summary.
        self.errors: Dict[int, str] = dict(errors or {})

    @property
    def ok(self) -> bool:
        """True when every seed produced a summary."""
        return not self.errors


def run_batch(
    spec: ExperimentSpec,
    scale: Optional[ScenarioScale] = None,
    *,
    seeds: Sequence[int] = (0,),
    options: Optional[RunOptions] = None,
    parallel: Optional[int] = None,
    cache=None,
    trace: Optional[TraceConfig] = None,
    progress=None,
    seed_timeout: Optional[float] = None,
) -> BatchResult:
    """Run ``spec`` once per seed; returns a :class:`BatchResult` of
    :class:`RunSummary` objects.

    ``parallel`` — worker processes for cache misses: ``None`` (default)
    honours ``$ARIA_PARALLEL`` (else serial in-process), ``0`` uses every
    core, ``n`` uses ``n`` spawn-context workers.  ``cache`` — ``None``
    uses the default on-disk :class:`ResultCache`, ``False`` disables
    caching, a :class:`ResultCache` (or path) selects a specific store.

    ``trace`` — a :class:`~repro.obs.TraceConfig` applied to every seed;
    give file sinks a ``{seed}`` placeholder in ``path`` so each work
    unit writes its own trace.  The config joins the cache key, so
    traced and untraced results never mix.  ``progress`` — ``True``
    prints ``[done/total]`` lines to stderr as work units finish (cache
    hits count immediately); a ``callback(done, total)`` receives the
    same notifications.

    The parallel path is hardened against misbehaving workers.  Each
    worker holds one unit at a time, so a unit that raises, whose worker
    dies, or that runs past ``seed_timeout`` (wall-clock seconds; that
    one worker is killed) is charged alone and retried once alongside
    the others.  A second strike records the seed in
    ``BatchResult.errors`` instead of raising, so the surviving seeds'
    summaries still come back.  No worker outlives the call, Ctrl-C
    included.  On the serial path (``workers <= 1``) exceptions propagate
    as before — ``seed_timeout`` needs a killable worker process to
    enforce.

    Summaries come back in ``seeds`` order and are bit-identical
    (``to_dict()``) whether they were computed serially, in parallel, or
    served from the cache.

    Like :func:`run`, spec options come via ``options`` (a
    :class:`RunOptions`).
    """
    opts = options if options is not None else RunOptions()
    scale = scale if scale is not None else ScenarioScale.paper()
    base_payload = _spec_payload(spec, opts.spec_options())
    cache_store = _resolve_cache(cache)

    seeds = list(seeds)
    report = _resolve_progress(progress, len(seeds))
    done = 0
    results: Dict[int, RunSummary] = {}
    failures: Dict[int, str] = {}
    pending: List[tuple] = []
    for index, seed in enumerate(seeds):
        payload = dict(base_payload)
        payload["scale"] = dataclasses.asdict(scale)
        payload["seed"] = seed
        _attach_trace(payload, trace, seed)
        key = cache_key(payload)
        if cache_store is not None:
            cached = cache_store.load(key)
            if cached is not None:
                results[index] = cached
                done += 1
                if report is not None:
                    report(done, len(seeds))
                continue
        pending.append((index, key, payload))

    if pending:
        workers = _resolve_parallel(parallel, len(pending))
        outputs: List[Optional[Dict[str, Any]]] = [None] * len(pending)
        if workers <= 1:
            for position, (_, _, payload) in enumerate(pending):
                outputs[position] = _execute_payload(payload)
                done += 1
                if report is not None:
                    report(done, len(seeds))
        else:
            import multiprocessing
            import time
            from collections import deque
            from multiprocessing.connection import wait

            context = multiprocessing.get_context("spawn")
            attempts = [0] * len(pending)
            queue = deque(range(len(pending)))
            spawned: List[tuple] = []  # every (process, conn) started
            idle: List[tuple] = []  # (process, conn) awaiting a unit
            busy: Dict[Any, tuple] = {}  # conn → (process, position, start)

            def finish(position: int, ok: bool, output) -> None:
                """Keep a summary, or retry a failure once, or record it."""
                nonlocal done
                if not ok and attempts[position] < 2:
                    queue.append(position)
                    return
                if ok:
                    outputs[position] = output
                else:
                    failures[seeds[pending[position][0]]] = output
                done += 1
                if report is not None:
                    report(done, len(seeds))

            try:
                while queue or busy:
                    while queue and len(busy) < workers:
                        if idle:
                            process, conn = idle.pop()
                        else:
                            conn, child = context.Pipe()
                            process = context.Process(
                                target=_worker_loop, args=(child,)
                            )
                            process.start()
                            child.close()
                            spawned.append((process, conn))
                        try:
                            conn.send(pending[queue[0]][2])
                        except OSError:
                            continue  # died while idle: replace, no charge
                        position = queue.popleft()
                        attempts[position] += 1
                        busy[conn] = (process, position, time.monotonic())
                    timeout = None
                    if seed_timeout is not None:
                        oldest = min(start for _, _, start in busy.values())
                        timeout = max(0.0, oldest + seed_timeout - time.monotonic())
                    for conn in wait(list(busy), timeout):
                        process, position, _ = busy.pop(conn)
                        try:
                            reply = conn.recv()
                        except EOFError:
                            process.join()
                            reply = (
                                False,
                                f"worker process died "
                                f"(exit code {process.exitcode})",
                            )
                        else:
                            idle.append((process, conn))
                        finish(position, *reply)
                    if seed_timeout is None:
                        continue
                    cutoff = time.monotonic() - seed_timeout
                    for conn, (process, position, start) in list(busy.items()):
                        if start <= cutoff:
                            del busy[conn]
                            process.kill()
                            reason = f"timed out after {seed_timeout:.0f}s"
                            finish(position, False, reason)
            finally:
                for process, conn in spawned:
                    if conn in busy:
                        process.kill()
                    else:
                        try:
                            conn.send(None)
                        except OSError:
                            pass  # already dead
                for process, conn in spawned:
                    process.join()
                    conn.close()
        for (index, key, payload), output in zip(pending, outputs):
            if output is None:
                continue
            summary = RunSummary.from_dict(output)
            if cache_store is not None:
                cache_store.store(key, summary, payload)
            results[index] = summary

    return BatchResult(
        (
            results[index]
            for index in range(len(seeds))
            if index in results
        ),
        errors=failures,
    )
