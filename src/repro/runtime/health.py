"""Self-healing fleet: a failure detector driving worker replacement.

PR 5 gave the runtime loss-free membership surgery — ``begin_drain``,
``remove_worker``, ``replace_worker`` — but nothing *called* it: a wedged
worker would stall its pinned sessions forever, silently.  This module
closes the loop the way the elastic control plane closed the sizing loop:

* :class:`HealthPolicy` — the declarative knobs: one ceiling per probe
  signal (heartbeat age, queue depth, busy-backlog seconds, per-worker
  loop errors, substrate socket errors), the hysteresis constants
  (``suspect_after`` / ``fail_after`` consecutive bad probes) and a
  cooldown spacing replacements apart;
* :class:`FailureDetector` — the pure snapshot → actions function: feed
  it :class:`~repro.runtime.metrics.ShardMetrics` snapshots, it scores
  every worker (max of normalised signal ratios, so the score is monotone
  in each input), tracks per-worker bad-probe streaks, and answers with
  ``quarantine`` / ``release`` / ``replace`` actions.  No network, no
  threads — directly unit-testable, like the :class:`Autoscaler`;
* :class:`HealthController` — drives the loop as a
  :class:`~repro.network.engine.ControlLoop` on the network's timer, on
  either runtime.  Each tick asks the runtime to probe its workers'
  heartbeats (``ping_workers``): one ping record per worker, stamped
  when it runs — at once on a healthy worker, idle or busy, and only
  after the pause on a wedged one, whose heartbeat goes stale.

Escalation: ``suspect_after`` consecutive bad probes **quarantines** the
worker (``router.begin_drain([id])`` — new keys route elsewhere, pinned
sessions keep draining, fully reversible); ``fail_after`` consecutive bad
probes **replaces** it (``runtime.replace_worker(id)`` — grow-first, so
capacity never dips).  A good probe while merely suspect **releases** the
quarantine.  Replacement is rate-limited by ``cooldown``; quarantine is
not (it is cheap and reversible).  Controllers never probe or act while a
drain is in progress, so decisions are always made against a settled
pool; a grow inside ``replace_worker`` transiently clears the router's
drain marks, which the controller re-asserts on its next tick.

The detector is tested against one wedge on either runtime,
:meth:`~repro.runtime.runtime.ShardedRuntime.wedge_worker`: the victim's
records queue behind a pause and its heartbeat goes stale, while the
queued records survive to run after it, so correctness is preserved
while every probe signal degrades.  The network-side injector
(:class:`~repro.network.aio.AsyncFaultyNetwork`) lives with the socket
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from ..core.errors import ConfigurationError
from ..network.engine import ControlLoop
from ..obs.timeseries import counter_delta
from .metrics import ShardMetrics
from .runtime import ShardedRuntime

__all__ = [
    "HealthPolicy",
    "HealthProbe",
    "HealthAction",
    "FailureDetector",
    "HealthController",
    "HEALTHY",
    "SUSPECT",
    "FAILED",
]

#: Worker health states, in escalation order.
HEALTHY = "healthy"
SUSPECT = "suspect"
FAILED = "failed"

#: Default seconds between health probes (virtual on the simulation, wall
#: on the live runtime).
DEFAULT_PROBE_INTERVAL = 0.05


@dataclass(frozen=True)
class HealthPolicy:
    """Declarative failure-detection knobs.

    Each ceiling normalises one probe signal; a worker's score is the
    *maximum* of the signal/ceiling ratios, so any single signal crossing
    its ceiling makes the probe bad (score >= 1.0) and the score is
    monotone in every input.  Hysteresis: ``suspect_after`` consecutive
    bad probes quarantine, ``fail_after`` replace — a single bad probe
    (one clock-skewed heartbeat, one load spike) never trips anything.
    """

    #: Seconds without a heartbeat before the probe reads as a wedge.
    heartbeat_wedge_threshold: float = 0.25
    #: Worker-loop queue depth the probe tolerates (live runtime).
    queue_depth_ceiling: int = 128
    #: Seconds of serialised-compute backlog the probe tolerates.
    busy_backlog_ceiling: float = 0.75
    #: New worker-loop errors per probe window the probe tolerates.
    error_ceiling: int = 3
    #: New substrate (socket-layer) errors per probe window tolerated.
    #: Substrate errors cannot be attributed to one worker, so this
    #: signal raises *every* worker's score — it marks the deployment
    #: sick, and the detector then retires whichever worker also shows
    #: the highest local signals.
    network_error_ceiling: int = 8
    #: Seconds of per-worker windowed worst-stage p99 latency the probe
    #: tolerates — the grey-failure on-ramp.  **Default off** (``None``):
    #: the latency term then contributes nothing and detector decisions
    #: are bit-identical to the gauge-only policy, so existing heal seeds
    #: are unaffected.  Enable it with a telemetry collector attached
    #: (the controller feeds ``MetricsCollector.latency_signal()``).
    latency_p99_ceiling: Optional[float] = None
    #: Consecutive bad probes before a worker is quarantined.
    suspect_after: int = 2
    #: Consecutive bad probes before a worker is replaced.
    fail_after: int = 4
    #: Seconds between any two replacements (quarantine is reversible
    #: and cheap, so it is deliberately not rate-limited).
    cooldown: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "heartbeat_wedge_threshold",
            "queue_depth_ceiling",
            "busy_backlog_ceiling",
            "error_ceiling",
            "network_error_ceiling",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.latency_p99_ceiling is not None and self.latency_p99_ceiling <= 0:
            raise ConfigurationError(
                "latency_p99_ceiling must be positive when set (None disables)"
            )
        if self.suspect_after < 1 or self.fail_after < self.suspect_after:
            raise ConfigurationError(
                "hysteresis must satisfy 1 <= suspect_after <= fail_after, "
                f"got [{self.suspect_after}, {self.fail_after}]"
            )
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be >= 0")

    def score(
        self,
        heartbeat_age: float,
        queue_depth: int,
        busy_backlog: float,
        errors: int = 0,
        network_errors: int = 0,
        latency_p99: float = 0.0,
    ) -> float:
        """One worker's health score: max of normalised signal ratios.

        0.0 is perfectly healthy, >= 1.0 is a bad probe.  Monotone
        non-decreasing in every input (the property tests pin this), and
        an all-zero probe always scores 0.0 — a healthy worker can never
        trip the detector.  ``latency_p99`` (the worker's windowed
        worst-stage p99, seconds) only contributes when
        :attr:`latency_p99_ceiling` is set.
        """
        score = max(
            max(0.0, heartbeat_age) / self.heartbeat_wedge_threshold,
            max(0, queue_depth) / self.queue_depth_ceiling,
            max(0.0, busy_backlog) / self.busy_backlog_ceiling,
            max(0, errors) / self.error_ceiling,
            max(0, network_errors) / self.network_error_ceiling,
        )
        if self.latency_p99_ceiling is not None:
            score = max(score, max(0.0, latency_p99) / self.latency_p99_ceiling)
        return score


class HealthProbe(NamedTuple):
    """One scored observation of one worker (the probe audit trail)."""

    at: float
    worker_id: int
    score: float
    streak: int
    state: str


class HealthAction(NamedTuple):
    """One detector decision: ``quarantine`` | ``release`` | ``replace``."""

    at: float
    worker_id: int
    kind: str
    score: float


class FailureDetector:
    """The pure metrics → health-actions policy function.

    Stateful only in what hysteresis and conservation need: per-worker
    bad-probe streaks and states, previous error counters (the probes
    score *deltas*, not lifetime totals), the last replacement time, and
    a probe ledger.  Everything else comes from the snapshot, so the
    object can be driven by the controller on either runtime — or by a
    test feeding synthetic snapshots.

    The probe ledger is **conserved across replacement**: when a worker
    id disappears from the snapshot (drained away by ``replace_worker``),
    its per-worker probe count moves to :attr:`retired_probes` instead of
    vanishing, so ``probes == sum(probe_counts.values()) +
    retired_probes`` holds through arbitrary churn.
    """

    def __init__(self, policy: Optional[HealthPolicy] = None) -> None:
        self.policy = policy if policy is not None else HealthPolicy()
        #: Total probes scored / probes that scored >= 1.0.
        self.probes = 0
        self.bad_probes = 0
        #: Transitions into the failed state.
        self.trips = 0
        #: Actions emitted, by kind.
        self.quarantines = 0
        self.releases = 0
        self.replaces = 0
        #: Probes inherited from workers that left the pool.
        self.retired_probes = 0
        #: The most recent observe() call's probe rows.
        self.last_probes: List[HealthProbe] = []
        self._probe_counts: Dict[int, int] = {}
        self._streaks: Dict[int, int] = {}
        self._states: Dict[int, str] = {}
        self._errors_seen: Dict[int, int] = {}
        self._network_errors_seen = 0
        self._quarantine_marked: Set[int] = set()
        self._last_replace_at: Optional[float] = None

    # ------------------------------------------------------------------
    def state_of(self, worker_id: int) -> str:
        return self._states.get(worker_id, HEALTHY)

    @property
    def probe_counts(self) -> Dict[int, int]:
        """Probes scored per current worker id."""
        return dict(self._probe_counts)

    def counters(self) -> Dict[str, int]:
        """The conserved counter row (see the class docstring)."""
        return {
            "probes": self.probes,
            "bad_probes": self.bad_probes,
            "trips": self.trips,
            "quarantines": self.quarantines,
            "releases": self.releases,
            "replaces": self.replaces,
            "retired_probes": self.retired_probes,
        }

    # ------------------------------------------------------------------
    def observe(
        self,
        snapshot: ShardMetrics,
        latency: Optional[Dict[int, float]] = None,
    ) -> List[HealthAction]:
        """Score every worker row; return the actions the caller should take.

        At most one ``replace`` per call (the worst-scoring failed
        worker): replacement resizes the pool, and the controllers skip
        probing entirely while a drain is in flight, so batching more
        would only act on stale state.  ``quarantine`` and ``release``
        carry no such limit — they are ring-membership marks, not
        membership surgery.

        ``latency`` optionally maps worker id → windowed worst-stage p99
        seconds (``MetricsCollector.latency_signal()``); it feeds the
        score's latency term, which is inert unless the policy sets
        ``latency_p99_ceiling`` — so passing it never changes decisions
        under a gauge-only policy.
        """
        policy = self.policy
        now = snapshot.at
        net_delta = counter_delta(snapshot.router.network_errors, self._network_errors_seen)
        self._network_errors_seen = snapshot.router.network_errors
        in_cooldown = (
            self._last_replace_at is not None
            and now - self._last_replace_at < policy.cooldown
        )
        actions: List[HealthAction] = []
        replace: Optional[HealthAction] = None
        probes: List[HealthProbe] = []
        seen: Set[int] = set()
        for row in snapshot.workers:
            worker_id = row.worker_id
            seen.add(worker_id)
            error_delta = counter_delta(row.errors, self._errors_seen.get(worker_id, 0))
            self._errors_seen[worker_id] = row.errors
            score = policy.score(
                row.heartbeat_age,
                row.queue_depth,
                row.busy_backlog,
                error_delta,
                net_delta,
                latency.get(worker_id, 0.0) if latency is not None else 0.0,
            )
            self.probes += 1
            self._probe_counts[worker_id] = (
                self._probe_counts.get(worker_id, 0) + 1
            )
            if score >= 1.0:
                self.bad_probes += 1
                streak = self._streaks.get(worker_id, 0) + 1
            else:
                streak = 0
            self._streaks[worker_id] = streak
            previous_state = self._states.get(worker_id, HEALTHY)
            if streak >= policy.fail_after:
                state = FAILED
            elif streak >= policy.suspect_after:
                state = SUSPECT
            else:
                state = HEALTHY
            self._states[worker_id] = state
            if state == FAILED and previous_state != FAILED:
                self.trips += 1
            probes.append(HealthProbe(now, worker_id, score, streak, state))
            if state == FAILED and not in_cooldown:
                candidate = HealthAction(now, worker_id, "replace", score)
                if replace is None or candidate.score > replace.score:
                    replace = candidate
            elif (
                state in (SUSPECT, FAILED)
                and worker_id not in self._quarantine_marked
            ):
                # A failed worker inside the replacement cooldown is at
                # least contained: quarantined until it may be replaced.
                self._quarantine_marked.add(worker_id)
                self.quarantines += 1
                actions.append(HealthAction(now, worker_id, "quarantine", score))
            elif state == HEALTHY and worker_id in self._quarantine_marked:
                self._quarantine_marked.discard(worker_id)
                self.releases += 1
                actions.append(HealthAction(now, worker_id, "release", score))
        # Workers that left the pool (replaced or drained away): move
        # their probe counts to the retired ledger so totals stay
        # conserved, and drop their transient state.
        for worker_id in list(self._probe_counts):
            if worker_id not in seen:
                self.retired_probes += self._probe_counts.pop(worker_id)
                self._streaks.pop(worker_id, None)
                self._states.pop(worker_id, None)
                self._errors_seen.pop(worker_id, None)
                self._quarantine_marked.discard(worker_id)
        if replace is not None:
            self._last_replace_at = now
            self._quarantine_marked.discard(replace.worker_id)
            self.replaces += 1
            actions.append(replace)
        self.last_probes = probes
        return actions


class HealthController(ControlLoop):
    """Drives a :class:`FailureDetector` against a deployed runtime.

    Each tick (a :class:`~repro.network.engine.ControlLoop` timer, on
    either runtime) re-asserts quarantine marks, probes heartbeats
    (``runtime.ping_workers``), snapshots ``runtime.metrics()`` and
    executes the detector's actions.  A replacement only *starts* the
    victim's drain; later ticks hold while ``scaling_in_progress``.

    :meth:`skew_probes` is the matching time-fault injector: it delays a
    worker's next N heartbeat pings by a fixed skew, modelling a
    clock-skewed timer.  A skew below ``fail_after`` consecutive probes
    must never cause a replacement — that is exactly what the hysteresis
    is for, and the chaos schedules exercise it.
    """

    def __init__(
        self,
        runtime: ShardedRuntime,
        detector: Optional[FailureDetector] = None,
        interval: float = DEFAULT_PROBE_INTERVAL,
        collector: Optional[object] = None,
        journal: Optional[object] = None,
        flight_recorder: Optional[object] = None,
    ) -> None:
        super().__init__(interval)
        self.runtime = runtime
        self.detector = detector if detector is not None else FailureDetector()
        #: Optional telemetry hookups (duck-typed so ``repro.runtime``
        #: never needs more of :mod:`repro.obs` than it already imports):
        #: a ``MetricsCollector`` whose ``latency_signal()`` feeds the
        #: probe scores, an ``EventJournal`` mirroring executed actions,
        #: and a ``FlightRecorder`` capturing a postmortem bundle on
        #: every quarantine/replace.  All default off.
        self.collector = collector
        self.journal = journal
        self.flight_recorder = flight_recorder
        #: Actions actually executed, in order (the healing audit log).
        self.actions: List[HealthAction] = []
        #: Worker ids this controller currently holds in quarantine.
        self.quarantined: Set[int] = set()
        self._skew: Dict[int, Tuple[float, int]] = {}

    def skew_probes(self, worker_id: int, delay: float, probes: int = 1) -> None:
        """Fault injection: delay ``worker_id``'s next ``probes`` heartbeat
        pings by ``delay`` seconds (a clock-skewed timer)."""
        if delay < 0 or probes < 1:
            raise ConfigurationError(
                f"invalid skew (delay={delay!r}, probes={probes!r})"
            )
        self._skew[worker_id] = (delay, probes)

    def _step(self) -> None:
        """One probe-score-act cycle."""
        runtime = self.runtime
        if runtime.router is None or runtime.scaling_in_progress:
            return
        self._reassert_quarantine()
        runtime.ping_workers(self._take_skews())
        latency = (
            self.collector.latency_signal() if self.collector is not None else None
        )
        for action in self.detector.observe(runtime.metrics(), latency=latency):
            self._execute(action)

    # ------------------------------------------------------------------
    def _reassert_quarantine(self) -> None:
        """Re-apply quarantine marks a pool resize cleared.

        ``set_workers`` (the grow step inside ``replace_worker``) resets
        the router's drain marks wholesale; the controller owns the
        quarantine set, so it re-asserts it once the pool settles.
        """
        runtime = self.runtime
        router = runtime.router
        if router is None:
            return
        self.quarantined &= set(runtime.worker_ids)
        if not self.quarantined or self.quarantined <= router.draining_ids:
            return
        try:
            router.begin_drain(self.quarantined)
        except ConfigurationError:
            # Quarantining would empty the ring (every worker sick):
            # containment is denied, replacement will still fire.
            self.quarantined &= router.draining_ids

    def _take_skews(self) -> Dict[int, float]:
        """This tick's extra ping delay per worker id, consuming one
        skewed probe of each pooled worker."""
        skews: Dict[int, float] = {}
        for worker_id in self.runtime.worker_ids:
            skew = self._skew.get(worker_id)
            if skew is None:
                continue
            extra, remaining = skew
            skews[worker_id] = extra
            if remaining <= 1:
                del self._skew[worker_id]
            else:
                self._skew[worker_id] = (extra, remaining - 1)
        return skews

    def _execute(self, action: HealthAction) -> None:
        runtime = self.runtime
        router = runtime.router
        if router is None:
            return
        if action.kind == "replace":
            if runtime.scaling_in_progress or action.worker_id not in runtime.worker_ids:
                return
            self.quarantined.discard(action.worker_id)
            runtime.replace_worker(action.worker_id)
        elif action.kind == "quarantine":
            if runtime.scaling_in_progress or action.worker_id not in runtime.worker_ids:
                return
            proposed = (self.quarantined | {action.worker_id}) & set(
                runtime.worker_ids
            )
            try:
                router.begin_drain(proposed)
            except ConfigurationError:
                # Refusing to empty the ring: containment denied, the
                # escalation to replace still proceeds on later probes.
                return
            self.quarantined = proposed
        elif action.kind == "release":
            if action.worker_id not in self.quarantined:
                return
            self.quarantined.discard(action.worker_id)
            if not runtime.scaling_in_progress:
                if self.quarantined:
                    router.begin_drain(set(self.quarantined))
                else:
                    router.cancel_drain()
        self.actions.append(action)
        if self.journal is not None:
            self.journal.append(
                "health",
                at=action.at,
                action=action.kind,
                worker_id=action.worker_id,
                score=round(action.score, 6),
            )
        if self.flight_recorder is not None and action.kind in (
            "quarantine",
            "replace",
        ):
            self.flight_recorder.capture(
                f"health:{action.kind}",
                detail={"worker_id": action.worker_id},
                at=action.at,
            )

    @property
    def replaced_ids(self) -> List[int]:
        """Worker ids this controller has replaced, in order."""
        return [a.worker_id for a in self.actions if a.kind == "replace"]
