"""One frozen spec for everything a ``run`` / ``run_batch`` call can vary.

Everything an engine call can vary travels in one frozen, validated
:class:`RunOptions`:

* **Spec options** — the per-kind knobs that join the experiment payload
  and therefore the on-disk **cache key**.  Every field defaults to
  ``None`` (= unset) and :meth:`spec_options` excludes unset fields, so
  a ``RunOptions()`` run produces byte-identical payloads — and
  therefore identical cache keys and golden summaries — to a bare
  ``run(spec, scale)`` call.
* **Mechanics** — how the run executes (``trace``, ``profile``,
  ``parallel``, ``cache``, ``progress``, ``seed_timeout``).  These never
  join spec payloads; the trace config joins the cache key separately,
  exactly as before.

The engine still validates spec options *per kind* (``failsafe`` on a
plain scenario is still an error): :class:`RunOptions` guards the field
*names*, the engine guards their applicability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..obs.trace import TraceConfig

__all__ = ["RunOptions"]

#: RunOptions fields that belong to the experiment payload (cache key).
_SPEC_FIELDS = (
    "config_overrides",
    "policies",
    "submission_interval",
    "multirequest_k",
    "failsafe",
    "adoption",
    "reliability",
    "scenario_name",
    "probe_interval",
    "deadline_slack",
    "fault_plan",
)


@dataclass(frozen=True)
class RunOptions:
    """Validated options for one engine invocation.

    Spec options (cache-key relevant; ``None`` = unset, leave the
    experiment's own default in force):

    * ``config_overrides`` — scenario runs: :class:`AriaConfig` patches.
    * ``policies`` / ``submission_interval`` / ``multirequest_k`` —
      baseline runs.
    * ``failsafe`` / ``probe_interval`` / ``scenario_name`` — crash,
      churn and fault experiments.
    * ``adoption`` / ``reliability`` / ``deadline_slack`` /
      ``fault_plan`` — failure-model experiments.

    Mechanics (never part of the experiment payload):

    * ``trace`` — :class:`~repro.obs.TraceConfig` (joins the cache key
      on its own, as before).
    * ``profile`` / ``profile_out`` — cProfile the run (single-run only).
    * ``parallel`` / ``cache`` / ``progress`` / ``seed_timeout`` — batch
      execution knobs (see :func:`~repro.experiments.engine.run_batch`).
    """

    config_overrides: Optional[Dict[str, object]] = None
    policies: Optional[Tuple[str, ...]] = None
    submission_interval: Optional[float] = None
    multirequest_k: Optional[int] = None
    failsafe: Optional[bool] = None
    adoption: Optional[bool] = None
    reliability: Optional[bool] = None
    scenario_name: Optional[str] = None
    probe_interval: Optional[float] = None
    deadline_slack: Optional[float] = None
    fault_plan: Optional[object] = None

    trace: Optional[TraceConfig] = None
    profile: bool = False
    profile_out: Optional[str] = None
    parallel: Optional[int] = None
    cache: object = None
    progress: object = None
    seed_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.policies is not None:
            object.__setattr__(self, "policies", tuple(self.policies))

    def spec_options(self) -> Dict[str, Any]:
        """The set spec options, as the engine's per-kind option dict.

        Unset (``None``) fields are excluded, so the resulting payload —
        and with it the cache key — is byte-identical to a call that
        never mentioned them.
        """
        return {
            name: getattr(self, name)
            for name in _SPEC_FIELDS
            if getattr(self, name) is not None
        }
