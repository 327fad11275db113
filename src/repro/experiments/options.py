"""One frozen spec for what a ``run`` / ``run_batch`` call computes.

Every per-kind knob that joins the experiment payload — and therefore
the on-disk **cache key** — travels in one frozen, validated
:class:`RunOptions`.  Every field defaults to ``None`` (= unset) and
:meth:`spec_options` excludes unset fields, so a ``RunOptions()`` run
produces byte-identical payloads — and therefore identical cache keys
and golden summaries — to a bare ``run(spec, scale)`` call.

*How* a run executes (``trace``, ``profile``, ``parallel``, ``cache``,
``progress``, ``seed_timeout``) is not here: those are arguments of
:func:`~repro.experiments.engine.run` / ``run_batch`` and never join
spec payloads (the trace config joins the cache key separately).

The engine still validates spec options *per kind* (``failsafe`` on a
plain scenario is still an error): :class:`RunOptions` guards the field
*names*, the engine guards their applicability.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

__all__ = ["RunOptions"]


@dataclass(frozen=True)
class RunOptions:
    """Validated spec options for one engine invocation (cache-key
    relevant; ``None`` = unset, leave the experiment's own default in
    force):

    * ``config_overrides`` — scenario runs: :class:`AriaConfig` patches.
    * ``policies`` / ``submission_interval`` / ``multirequest_k`` —
      baseline runs.
    * ``failsafe`` / ``probe_interval`` / ``scenario_name`` — crash,
      churn and fault experiments.
    * ``adoption`` / ``reliability`` / ``deadline_slack`` /
      ``fault_plan`` — failure-model experiments.
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
            field.name: getattr(self, field.name)
            for field in fields(self)
            if getattr(self, field.name) is not None
        }
