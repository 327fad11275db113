"""ARiA protocol configuration.

Defaults reproduce the paper's baseline evaluation settings (§IV-E):

* REQUEST flooding: ≤ 9 hops, ≤ 4 random neighbours per step;
* INFORM flooding: ≤ 8 hops, ≤ 2 neighbours ("a more lightweight approach");
* INFORM cadence: at most 2 scheduled jobs every 5 minutes;
* rescheduling improvement threshold: 3 minutes (the baseline the
  iInform15m / iInform30m scenarios vary).

The acceptance *timelapse* (how long an initiator collects ACCEPT replies,
§III-B) is not quantified in the paper; the default of 5 s comfortably
covers a 9-hop flood at WAN latencies while staying negligible against
multi-hour job runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..overlay.flooding import FloodPolicy
from ..types import MINUTE

__all__ = ["AriaConfig"]


@dataclass(frozen=True)
class AriaConfig:
    """Tunable parameters of the ARiA protocol."""

    #: Whether the dynamic rescheduling phase (INFORM traffic) is active.
    #: Scenarios prefixed with ``i`` in the paper enable it.
    rescheduling: bool = True
    #: Flood bounds for REQUEST messages.
    request_flood: FloodPolicy = field(
        default_factory=lambda: FloodPolicy(max_hops=9, fanout=4)
    )
    #: Flood bounds for INFORM messages.
    inform_flood: FloodPolicy = field(
        default_factory=lambda: FloodPolicy(max_hops=8, fanout=2)
    )
    #: How long an initiator collects ACCEPT offers before assigning.
    accept_wait: float = 5.0
    #: Period of the per-node INFORM generation activity.
    inform_interval: float = 5 * MINUTE
    #: Maximum jobs advertised per INFORM round (paper baseline: 2).
    inform_count: int = 2
    #: Minimum cost improvement a rescheduling must provide (batch: seconds
    #: of ETTC; deadline: NAL units).  Paper baseline: 3 minutes.
    improvement_threshold: float = 3 * MINUTE
    #: If no ACCEPT arrives, re-broadcast the REQUEST after this long.
    request_retry_interval: float = 2 * MINUTE
    #: Give up on a job after this many fruitless REQUEST broadcasts.
    max_request_retries: int = 24
    #: Send Track notifications to initiators on reschedules (§III-D
    #: "may be notified"; off by default to match Figure 10's traffic).
    notify_initiator: bool = False
    #: Fail-safe mode (§III-D's crash-recovery sketch): initiators track
    #: their jobs' current assignees (implies Track notifications), probe
    #: them periodically, and resubmit jobs whose assignee looks dead for
    #: two consecutive probe rounds.
    failsafe: bool = False
    #: Period of the fail-safe probing activity.
    probe_interval: float = 10 * MINUTE
    #: How long to wait for a ProbeReply before counting a miss.
    probe_timeout: float = 30.0
    #: Grace period a gracefully leaving node lingers after its plate is
    #: clean, so in-flight ASSIGNs still find it (and get re-delegated)
    #: instead of vanishing with the departure.
    departure_grace: float = 60.0
    #: Initiator-crash orphan recovery: an assignee that holds a job but
    #: has not been probed for ``adoption_windows`` consecutive probe
    #: intervals concludes the initiator is gone and adopts the job
    #: (self-tracks it, suppresses the unreachable Done).  Only
    #: meaningful with ``failsafe`` on; off by default so the baseline
    #: §III-D scope is unchanged.
    adoption: bool = False
    #: How many silent probe windows an assignee waits before adopting.
    adoption_windows: int = 3
    #: Per-agent flood-dedup window size: ids per SeenCache generation,
    #: so a window remembers its last N to 2N - 1 first-seen ids.  Every
    #: duplicate measured, at every scale and under chaos, arrived while
    #: its id was among the last 7 (docs/PERFORMANCE.md, "The dedup
    #: windows, sized by their reuse distance"); 64 is ≥ 8× that.
    seen_cache_capacity: int = 64
    #: Straggler defense: when > 0, an assignee gives every accepted job
    #: an execution deadline of ``estimate × slack`` and, once overdue,
    #: advertises the job with a cost penalty that grows with the delay,
    #: so the normal INFORM path pulls it off fail-slow nodes.  0
    #: disables the defense (the default).
    exec_deadline_slack: float = 0.0

    def __post_init__(self) -> None:
        if self.accept_wait <= 0:
            raise ConfigurationError("accept_wait must be positive")
        if self.inform_interval <= 0:
            raise ConfigurationError("inform_interval must be positive")
        if self.inform_count < 1:
            raise ConfigurationError("inform_count must be >= 1")
        if self.improvement_threshold < 0:
            raise ConfigurationError("improvement_threshold must be >= 0")
        if self.request_retry_interval <= 0:
            raise ConfigurationError("request_retry_interval must be positive")
        if self.max_request_retries < 0:
            raise ConfigurationError("max_request_retries must be >= 0")
        if self.probe_interval <= 0:
            raise ConfigurationError("probe_interval must be positive")
        if self.probe_timeout <= 0:
            raise ConfigurationError("probe_timeout must be positive")
        if self.departure_grace < 0:
            raise ConfigurationError("departure_grace must be >= 0")
        if self.adoption_windows < 1:
            raise ConfigurationError("adoption_windows must be >= 1")
        if self.seen_cache_capacity < 1:
            raise ConfigurationError("seen_cache_capacity must be >= 1")
        if self.exec_deadline_slack < 0:
            raise ConfigurationError("exec_deadline_slack must be >= 0")
