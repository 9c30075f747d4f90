"""The elastic control plane: a load-aware autoscaler over the runtimes.

The paper's bridges are meant to run *always-on* between legacy
deployments, where load is bursty: discovery storms when a building full
of devices wakes up, near-silence at night.  PRs 2–3 gave the runtime
parallel capacity at a *fixed* worker count; the drain protocol
(:meth:`~repro.runtime.runtime.ShardedRuntime.scale_to`) made resizing
loss-free.  This module closes the loop:

* :class:`AutoscalerPolicy` — the declarative knobs: a target in-flight
  sessions-per-worker, high/low watermarks with a hysteresis band between
  them, min/max shard bounds, an action cooldown and a scale-down
  patience (consecutive low observations required);
* :class:`Autoscaler` — the pure decision function: feed it
  :class:`~repro.runtime.metrics.ShardMetrics` snapshots, it answers with
  a desired worker count or ``None``.  No network, no threads — directly
  unit-testable (the flapping tests exercise exactly this object);
* :class:`ElasticController` — drives the loop as a
  :class:`~repro.network.engine.ControlLoop` on the network's timer: the
  virtual clock on the **simulated** runtime, the event loop on the
  **live** one (no thread of its own either way).

Dataflow: metrics → policy → ``scale_to``.  The controller never scales
while a drain is in progress (``scaling_in_progress``), so decisions are
always made against a settled pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from ..core.errors import ConfigurationError
from ..network.engine import ControlLoop
from .metrics import ShardMetrics
from .runtime import VICTIM_STRATEGIES, ShardedRuntime

__all__ = [
    "AutoscalerPolicy",
    "Autoscaler",
    "AutoscaleDecision",
    "ElasticController",
]

#: Default seconds between controller ticks (virtual on the simulation,
#: wall on the live runtime).
DEFAULT_TICK_INTERVAL = 0.05


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Declarative autoscaling knobs.

    The watermarks bracket a hysteresis band: in-flight sessions per
    ring-active worker above ``scale_up_at`` grows the pool, below
    ``scale_down_at`` (for ``scale_down_patience`` consecutive
    observations) shrinks it, and anything in between does nothing — an
    oscillating load that stays inside the band never flaps the pool.
    ``cooldown`` additionally spaces any two actions apart, so even a load
    that crosses both watermarks cannot thrash.
    """

    #: In-flight sessions per worker the pool is sized for.
    target_sessions_per_worker: float = 6.0
    #: Per-worker load above which the pool grows.
    scale_up_at: float = 10.0
    #: Per-worker load below which the pool may shrink.
    scale_down_at: float = 2.0
    min_workers: int = 1
    max_workers: int = 4
    #: Seconds between any two scaling actions.
    cooldown: float = 0.25
    #: Consecutive below-watermark observations required before shrinking
    #: (scale-up reacts immediately; scale-down must be sure).
    scale_down_patience: int = 3
    #: Weight of the serialised-compute backlog (seconds) in the load
    #: signal: each weighted backlog second counts like that many
    #: in-flight sessions.  0.0 (the default) keeps the historical
    #: sessions-only signal.  Session counts miss a worker whose few
    #: sessions each carry expensive translations; the backlog does not.
    busy_backlog_weight: float = 0.0
    #: Weight of the live worker loops' queue depth in the load signal:
    #: each weighted queued job counts like that many in-flight sessions.
    #: 0.0 (the default) keeps the historical behaviour; the signal is
    #: always 0 on the simulation (no queues there).
    queue_depth_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.min_workers <= 0 or self.max_workers < self.min_workers:
            raise ConfigurationError(
                f"invalid worker bounds [{self.min_workers}, {self.max_workers}]"
            )
        if not 0 <= self.scale_down_at <= self.scale_up_at:
            raise ConfigurationError(
                "watermarks must satisfy 0 <= scale_down_at <= scale_up_at, "
                f"got [{self.scale_down_at}, {self.scale_up_at}]"
            )
        if self.target_sessions_per_worker <= 0:
            raise ConfigurationError("target_sessions_per_worker must be positive")
        if self.scale_down_patience < 1:
            raise ConfigurationError("scale_down_patience must be >= 1")
        if self.busy_backlog_weight < 0 or self.queue_depth_weight < 0:
            raise ConfigurationError(
                "load-signal weights must be >= 0, got "
                f"busy_backlog_weight={self.busy_backlog_weight}, "
                f"queue_depth_weight={self.queue_depth_weight}"
            )

    def effective_load(self, snapshot: ShardMetrics) -> float:
        """The weighted load the pool is sized against.

        In-flight sessions plus (optionally) weighted busy-backlog
        seconds and queued jobs — signals already carried by every
        snapshot but historically unused, so a worker drowning in
        expensive translations (or a live loop with a deep queue) now
        registers as load even while its session count looks modest.
        """
        return (
            snapshot.total_active_sessions
            + self.busy_backlog_weight * snapshot.total_busy_backlog
            + self.queue_depth_weight * snapshot.total_queue_depth
        )


class AutoscaleDecision(NamedTuple):
    """One scaling decision, for the audit log."""

    at: float
    current_workers: int
    desired_workers: int
    sessions_per_worker: float


class Autoscaler:
    """The pure metrics → desired-worker-count policy function.

    Stateful only in what hysteresis needs (last action time, low-load
    streak); everything else comes from the snapshot, so the object can be
    driven by the controller on either runtime — or by a test feeding
    synthetic snapshots.
    """

    def __init__(self, policy: Optional[AutoscalerPolicy] = None) -> None:
        self.policy = policy if policy is not None else AutoscalerPolicy()
        #: Decisions taken, in order (the control plane's audit log).
        self.decisions: List[AutoscaleDecision] = []
        self._last_action_at: Optional[float] = None
        self._low_streak = 0

    def desired_workers(self, snapshot: ShardMetrics) -> Optional[int]:
        """The worker count the pool should move to, or ``None`` to hold.

        A returned value is always different from the snapshot's active
        worker count and inside the policy bounds; returning it counts as
        an action for cooldown purposes (callers are expected to act).
        """
        policy = self.policy
        now = snapshot.at
        current = snapshot.active_workers or snapshot.worker_count
        load = policy.effective_load(snapshot)
        per_worker = load / max(1, current)

        in_cooldown = (
            self._last_action_at is not None
            and now - self._last_action_at < policy.cooldown
        )

        if per_worker > policy.scale_up_at:
            self._low_streak = 0
            if in_cooldown or current >= policy.max_workers:
                return None
            desired = min(
                policy.max_workers,
                max(
                    current + 1,
                    math.ceil(load / policy.target_sessions_per_worker),
                ),
            )
            return self._act(now, current, desired, per_worker)

        if per_worker < policy.scale_down_at and current > policy.min_workers:
            self._low_streak += 1
            if in_cooldown or self._low_streak < policy.scale_down_patience:
                return None
            desired = max(
                policy.min_workers,
                math.ceil(load / policy.target_sessions_per_worker),
            )
            if desired >= current:
                return None
            self._low_streak = 0
            return self._act(now, current, desired, per_worker)

        # Inside the hysteresis band: hold, and restart the low streak.
        self._low_streak = 0
        return None

    def _act(
        self, now: float, current: int, desired: int, per_worker: float
    ) -> Optional[int]:
        if desired == current:
            return None
        self._last_action_at = now
        self.decisions.append(AutoscaleDecision(now, current, desired, per_worker))
        return desired


class ElasticController(ControlLoop):
    """Drives an :class:`Autoscaler` against a deployed runtime.

    Each tick (a :class:`~repro.network.engine.ControlLoop` timer, on
    either runtime) snapshots ``runtime.metrics()``, asks the autoscaler,
    and issues ``scale_to``.  A shrink only *starts* a drain — the tick
    returns at once, live as on the simulation — and later ticks hold
    while ``scaling_in_progress``.
    """

    def __init__(
        self,
        runtime: ShardedRuntime,
        autoscaler: Optional[Autoscaler] = None,
        interval: float = DEFAULT_TICK_INTERVAL,
        victim_strategy: Optional[str] = None,
    ) -> None:
        super().__init__(interval)
        self.runtime = runtime
        self.autoscaler = autoscaler if autoscaler is not None else Autoscaler()
        if victim_strategy is not None and victim_strategy not in VICTIM_STRATEGIES:
            # Fail at construction, not at the first scale-down tick —
            # that tick's error would land in `errors` and the pool would
            # silently never shrink.
            raise ConfigurationError(
                f"unknown victim strategy {victim_strategy!r}; "
                f"choose one of {VICTIM_STRATEGIES}"
            )
        #: How scale-down picks the workers to drain (see
        #: :meth:`ShardedRuntime.select_victims`): ``None`` keeps the
        #: historical pool-suffix choice; ``"least-loaded"`` retires the
        #: emptiest workers (fastest drain) wherever they sit in the pool.
        self.victim_strategy = victim_strategy

    def _step(self) -> None:
        """One observe-decide-act cycle."""
        runtime = self.runtime
        if runtime.scaling_in_progress or runtime.router is None:
            return
        desired = self.autoscaler.desired_workers(runtime.metrics())
        if desired is None or desired == runtime.worker_count:
            return
        victims = None
        if desired < runtime.worker_count and self.victim_strategy is not None:
            victims = runtime.select_victims(
                runtime.worker_count - desired, self.victim_strategy
            )
        runtime.scale_to(desired, victims=victims)

    @property
    def decisions(self) -> List[AutoscaleDecision]:
        return list(self.autoscaler.decisions)
