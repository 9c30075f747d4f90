"""Windowed telemetry time-series over ``ShardMetrics`` snapshots.

The metrics layer (PR 4) answers *"what does the deployment look like
right now?"* with one immutable snapshot; the tracing layer (PR 7)
answers *"where did one datagram's time go?"* with cumulative histograms.
Neither answers the fleet question a postmortem (or a grey-failure
detector) actually asks: *"what changed over the last few seconds, per
worker?"*  This module closes that gap with a :class:`MetricsCollector`
that periodically folds snapshots into fixed-size per-worker ring
**time-series windows**:

* **counters** are stored as windowed deltas (and rates over the window
  elapsed time) — ``completed_sessions`` jumping by 40 in one window is
  load; the same cumulative total sitting still is a stall;
* **gauges** (queue depth, busy backlog, heartbeat age, active sessions)
  are point-in-time samples on the window boundary;
* **latency quantiles** are *windowed*: each window takes a
  :meth:`~repro.obs.tracing.LatencyHistogram.snapshot` per worker per
  stage and publishes p50/p95/p99 of the **delta** since the previous
  window, so warmup never pollutes steady state (the footgun the
  cumulative ``stage_latency()`` table had since PR 7).

Clock domains follow the PR 7/PR 8 convention: window positions and
elapsed times are on the **timeline clock** (virtual seconds on the
simulated runtime, the monotonic wall clock live).  Either way the
collector is a :class:`~repro.network.engine.ControlLoop` driven by
``network.call_later`` timers — on the live runtime that is the event
loop itself, so collecting adds no thread.  Quantile *values* are always
``perf_counter``-derived and thus nondeterministic even on the
simulation; the flight recorder
(:mod:`repro.obs.recorder`) strips them when a byte-stable bundle is
required.

The collector only ever *reads* (``runtime.metrics()`` builds a frozen
snapshot; histogram snapshots copy bucket counts), so attaching one to a
deployment cannot change engine behaviour — the heal harness relies on
this to keep detector decisions bit-identical with telemetry on or off.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..network.engine import ControlLoop
from .tracing import Tracer

__all__ = [
    "DEFAULT_WINDOW_SECONDS",
    "DEFAULT_WINDOW_CAPACITY",
    "MetricsCollector",
]

#: Default collection cadence (timeline seconds between windows).  On the
#: simulation this is virtual time — fast and free; live it is the wall
#: clock, where four windows a second keeps the collector invisible next
#: to the 5 % overhead gate.
DEFAULT_WINDOW_SECONDS = 0.25

#: Windows retained per collector before the ring overwrites the oldest.
#: 64 windows × 0.25 s ≈ 16 s of history — several detector reaction
#: times' worth, which is what a postmortem bundle needs.
DEFAULT_WINDOW_CAPACITY = 64

#: Stage-quantile probes published per window.
_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50_us", 0.50),
    ("p95_us", 0.95),
    ("p99_us", 0.99),
)


class MetricsCollector(ControlLoop):
    """Folds periodic ``ShardMetrics`` snapshots into windowed series.

    One collector per deployment.  ``runtime`` is duck-typed: anything
    with ``metrics()`` (returning a ``ShardMetrics``-shaped snapshot),
    an optional ``tracer`` and an optional ``scaling_in_progress`` flag
    works, so the module never imports :mod:`repro.runtime` (which
    imports this package).

    Driving: :meth:`start` schedules a self-rescheduling
    ``network.call_later`` chain (the :class:`ControlLoop` every
    controller shares) — windows land on deterministic virtual times on
    the simulation and on the event loop live, where a collection that
    raises is recorded in :attr:`errors` and the chain keeps going.  Or
    call :meth:`collect` yourself (tests, one-shot tables).
    """

    def __init__(
        self,
        runtime: Any,
        window: float = DEFAULT_WINDOW_SECONDS,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if window <= 0.0:
            raise ValueError(f"collector window must be positive, got {window}")
        if capacity <= 0:
            raise ValueError(f"collector capacity must be positive, got {capacity}")
        super().__init__(window)
        self.runtime = runtime
        self.capacity = capacity
        self.tracer: Optional[Tracer] = (
            tracer if tracer is not None else getattr(runtime, "tracer", None)
        )
        self._ring: List[Optional[dict]] = [None] * capacity
        self._head = 0
        self._ring_lock = threading.Lock()
        #: Previous window's closing position on the timeline (None until
        #: the first window closes).
        self._last_at: Optional[float] = None
        #: Per-worker-id counter baselines: (completed, evicted, errors).
        self._worker_marks: Dict[int, Tuple[int, int, int]] = {}
        #: Router counter baselines, keyed by field name.
        self._router_marks: Dict[str, int] = {}
        #: Per-recorder per-stage histogram snapshots for windowed deltas.
        self._hist_marks: Dict[str, Dict[str, tuple]] = {}
        #: Windows collected over the collector's lifetime (>= retained).
        self.samples = 0
        #: Windows skipped because the runtime was mid-rescale/undeployed.
        self.skipped = 0
        #: Whether runtime.metrics() accepts include_latency=False (the
        #: lean snapshot); duck-typed runtimes without the keyword flip
        #: this off on the first collect and get the full snapshot.
        self._lean_metrics = True

    @property
    def window(self) -> float:
        """Timeline seconds between windows (the control-loop interval)."""
        return self.interval

    # -- one window ----------------------------------------------------
    def _snapshot(self) -> Any:
        if self._lean_metrics:
            try:
                return self.runtime.metrics(include_latency=False)
            except TypeError:
                self._lean_metrics = False
        return self.runtime.metrics()

    def collect(self) -> Optional[dict]:
        """Close one window now; returns it (or ``None`` when skipped).

        Skips — without disturbing the baselines — when the runtime is
        not deployed or a rescale is in flight, mirroring the health
        controller's "never probe a pool mid-surgery" rule.
        """
        if getattr(self.runtime, "_router", None) is None:
            self.skipped += 1
            return None
        if getattr(self.runtime, "scaling_in_progress", False):
            self.skipped += 1
            return None
        snapshot = self._snapshot()
        at = snapshot.at
        elapsed = 0.0 if self._last_at is None else max(0.0, at - self._last_at)
        self._last_at = at
        window = {
            "at": at,
            "elapsed": elapsed,
            "workers": [self._worker_window(row, elapsed) for row in snapshot.workers],
            "router": self._router_window(snapshot.router, elapsed),
        }
        with self._ring_lock:
            self._ring[self._head % self.capacity] = window
            self._head += 1
        self.samples += 1
        return window

    def _worker_window(self, row: Any, elapsed: float) -> dict:
        completed = row.completed_sessions
        evicted = row.evicted_sessions
        errors = row.errors
        mark = self._worker_marks.get(row.worker_id, (0, 0, 0))
        self._worker_marks[row.worker_id] = (completed, evicted, errors)
        deltas = (
            max(0, completed - mark[0]),
            max(0, evicted - mark[1]),
            max(0, errors - mark[2]),
        )
        window = {
            "worker_id": row.worker_id,
            "name": row.name,
            # gauges: point-in-time on the window boundary
            "active_sessions": row.active_sessions,
            "queue_depth": row.queue_depth,
            "busy_backlog": row.busy_backlog,
            "heartbeat_age": row.heartbeat_age,
            "draining": row.draining,
            "spans_dropped": getattr(row, "spans_dropped", 0),
            "span_seq_high": getattr(row, "span_seq_high", 0),
            # counters: windowed deltas (+ a rate when the window has width)
            "completed_delta": deltas[0],
            "evicted_delta": deltas[1],
            "errors_delta": deltas[2],
            "completed_rate": (deltas[0] / elapsed) if elapsed > 0.0 else 0.0,
            "stages": self._stage_quantiles(row.name),
        }
        return window

    def _stage_quantiles(self, recorder_name: str) -> List[dict]:
        """Windowed per-stage quantiles for one worker's recorder.

        Worker recorders are keyed by the worker's engine name (the same
        string ``WorkerMetrics.name`` carries), so the lookup is exact.
        Only stages that recorded during the window appear — idle stages
        would be 64 zero buckets of noise.
        """
        tracer = self.tracer
        if tracer is None:
            return []
        recorder = tracer.find(recorder_name)
        if recorder is None:
            return []
        marks = self._hist_marks.setdefault(recorder_name, {})
        stages: List[dict] = []
        for stage, hist in recorder.hists.items():
            mark = marks.get(stage)
            if mark is not None and hist.count == mark[0]:
                continue  # idle stage: no records since the last window
            delta = hist.delta(mark)
            marks[stage] = hist.snapshot()
            if delta.count <= 0:
                continue
            entry = {"stage": stage, "count": delta.count}
            for key, q in _QUANTILES:
                entry[key] = delta.percentile(q) * 1e6
            stages.append(entry)
        stages.sort(key=lambda entry: entry["stage"])
        return stages

    def _router_window(self, router: Any, elapsed: float) -> dict:
        fields = (
            "routed_datagrams",
            "unrouted_datagrams",
            "echoes_dropped",
            "classify_count",
            "discriminator_misses",
            "garbage_rejects",
            "network_errors",
            "tcp_replies_dropped",
            "udp_wakeups",
            "udp_datagrams",
            "tcp_accepts",
            "tcp_dials",
        )
        window: dict = {"sticky_entries": router.sticky_entries}
        for field in fields:
            value = getattr(router, field)
            delta = max(0, value - self._router_marks.get(field, 0))
            self._router_marks[field] = value
            window[f"{field}_delta"] = delta
        routed = window["routed_datagrams_delta"]
        window["routed_rate"] = (routed / elapsed) if elapsed > 0.0 else 0.0
        return window

    # -- series reads --------------------------------------------------
    def windows(self, last: Optional[int] = None) -> List[dict]:
        """The retained windows, oldest first (optionally only the last N)."""
        with self._ring_lock:
            head = self._head
            if head <= self.capacity:
                retained = [w for w in self._ring[:head] if w is not None]
            else:
                start = head % self.capacity
                retained = [
                    w
                    for w in self._ring[start:] + self._ring[:start]
                    if w is not None
                ]
        if last is not None:
            retained = retained[-last:]
        return retained

    def latest(self) -> Optional[dict]:
        windows = self.windows(last=1)
        return windows[0] if windows else None

    @property
    def dropped_windows(self) -> int:
        """Windows overwritten because the ring wrapped."""
        return max(0, self._head - self.capacity)

    def latency_signal(self) -> Dict[int, float]:
        """Per-worker worst-stage p99 (seconds) from the latest window.

        This is the grey-failure on-ramp the ROADMAP names: the detector
        feeds these through ``HealthPolicy.score`` when (and only when)
        a latency ceiling is configured.  The *worst* stage is the
        signal because a grey worker is typically slow in one stage
        (a stalling upstream leg, a contended parse) while the rest
        stay healthy — averaging across stages would dilute exactly the
        evidence the detector needs.
        """
        latest = self.latest()
        if latest is None:
            return {}
        signal: Dict[int, float] = {}
        for row in latest["workers"]:
            worst = 0.0
            for stage in row["stages"]:
                if stage["p99_us"] > worst:
                    worst = stage["p99_us"]
            signal[row["worker_id"]] = worst * 1e-6
        return signal

    def _step(self) -> None:
        self.collect()
