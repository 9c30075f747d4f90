"""Shard metrics: the observation side of the elastic control plane.

Scaling decisions need numbers.  This module defines the immutable
snapshot types the control plane consumes:

* :class:`WorkerMetrics` — one worker engine's load at a point in time:
  session-table size, completed/evicted counts, the serialised-compute
  backlog (how far the busy-until clock is ahead of *now*), and — on the
  live runtime — the worker loop's queue depth;
* :class:`RouterMetrics` — the shard router's own counters: routed /
  unrouted / echo totals, sticky-table size, and the measured wall-clock
  cost of its classify-and-place step, which is what makes the "router is
  the bottleneck" question answerable with data instead of intuition;
* :class:`ShardMetrics` — one coherent snapshot of the whole deployment
  (``runtime.metrics()``), carrying the worker rows, the router row and
  the active-vs-total worker split (draining workers still hold sessions
  but receive no new keys).

Snapshots are plain frozen dataclasses: producing one never blocks the
data path, and consuming one (the :class:`~repro.runtime.elastic.Autoscaler`)
is pure computation that can be unit-tested without a network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["StageLatency", "WorkerMetrics", "RouterMetrics", "ShardMetrics"]


@dataclass(frozen=True)
class StageLatency:
    """Per-stage latency distribution aggregated across every recorder.

    Built from the always-on power-of-two-bucket histograms of
    :mod:`repro.obs` — unlike span capture these are unconditional, so
    the percentiles cover *every* datagram, not the sampled subset.
    Percentiles are bucket upper bounds in seconds (factor-of-two
    resolution by construction).
    """

    stage: str
    count: int
    total_seconds: float
    p50: float
    p95: float
    p99: float

    @property
    def mean_us(self) -> float:
        if self.count == 0:
            return 0.0
        return 1e6 * self.total_seconds / self.count

    def as_row(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "count": self.count,
            "mean_us": round(self.mean_us, 2),
            "p50_us": round(self.p50 * 1e6, 2),
            "p95_us": round(self.p95 * 1e6, 2),
            "p99_us": round(self.p99 * 1e6, 2),
        }


@dataclass(frozen=True)
class WorkerMetrics:
    """One worker engine's load at snapshot time."""

    index: int
    name: str
    #: In-flight sessions in the worker's session table.
    active_sessions: int
    #: Sessions completed (respectively evicted) since deployment.
    completed_sessions: int
    evicted_sessions: int
    #: Seconds of serialised translation compute already committed beyond
    #: *now* (the busy-until clock's backlog); 0.0 when the worker does not
    #: serialise processing.
    busy_backlog: float = 0.0
    #: Whether the worker is draining (pinned sessions only, no new keys).
    draining: bool = False
    #: Live runtime only: jobs waiting in the worker loop's queue.
    queue_depth: int = 0
    #: The worker's stable membership id (survives pool compaction after
    #: an arbitrary-worker drain; ``index`` is just the list position).
    worker_id: int = -1
    #: Classifications that fell back to trial parsing (no discriminator,
    #: an ambiguous prefix, or a matched prefix whose parse still failed).
    discriminator_misses: int = 0
    #: Datagrams rejected by the first-bytes discriminators alone, without
    #: running any parser (garbage floods become cheap rejects).
    garbage_rejects: int = 0
    #: Live runtime only: exceptions the worker loop caught while running
    #: jobs (``AsyncWorkerLoop.errors``); always 0 on the simulation.
    errors: int = 0
    #: Seconds since the worker last proved liveness: on the live runtime,
    #: since its loop last finished a job; on the simulation, since the
    #: health controller's last heartbeat pulse came back through the
    #: worker's busy clock.  0.0 when no heartbeat has ever been recorded
    #: (a fresh worker is presumed healthy until probed).
    heartbeat_age: float = 0.0
    #: Spans overwritten in the worker's trace ring because it wrapped
    #: (``SpanRecorder.dropped``); a climbing value under default
    #: sampling means the ring is undersized for the traffic.
    spans_dropped: int = 0
    #: Highest trace sequence number the worker's recorder has seen on a
    #: sampled span (``SpanRecorder.seq_high``).  Read next to
    #: ``spans_dropped`` it bounds how much history the ring holds.
    span_seq_high: int = 0

    def as_row(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "worker_id": self.worker_id,
            "name": self.name,
            "active_sessions": self.active_sessions,
            "completed_sessions": self.completed_sessions,
            "evicted_sessions": self.evicted_sessions,
            "busy_backlog_s": round(self.busy_backlog, 6),
            "draining": self.draining,
            "queue_depth": self.queue_depth,
            "discriminator_misses": self.discriminator_misses,
            "garbage_rejects": self.garbage_rejects,
            "errors": self.errors,
            "heartbeat_age_s": round(self.heartbeat_age, 6),
            "spans_dropped": self.spans_dropped,
            "span_seq_high": self.span_seq_high,
        }


@dataclass(frozen=True)
class RouterMetrics:
    """The shard router's own counters and measured dispatch cost."""

    routed_datagrams: int
    unrouted_datagrams: int
    echoes_dropped: int
    #: Live sticky key → shard entries (in-flight session pins).
    sticky_entries: int
    #: Datagrams the router classified (parse + placement decisions).
    classify_count: int
    #: Cumulative wall-clock seconds spent in classify-and-place.  Real
    #: seconds even on the simulation: the router's compute is what this
    #: measures, not the virtual clock.
    classify_seconds: float
    #: Simulated router only: cumulative *virtual* seconds of modelled
    #: router compute charged by the ``routing_delay`` busy-until clock
    #: (0.0 when the router cost is measured but not modelled).
    charged_routing_seconds: float = 0.0
    #: Router-edge classifications that fell back to trial parsing
    #: (accumulated from the classify core's discriminator counters).
    discriminator_misses: int = 0
    #: Datagrams the router's classify rejected on first bytes alone,
    #: before any parser ran.
    garbage_rejects: int = 0
    #: Live runtime only: socket-layer errors the network recorded
    #: (``AsyncSocketNetwork.errors``); always 0 on the simulation.
    network_errors: int = 0
    #: Live runtime only: TCP replies dropped because the client
    #: connection was already gone
    #: (``AsyncSocketNetwork.tcp_replies_dropped``).
    tcp_replies_dropped: int = 0
    #: Live runtime only: UDP reader wake-ups and the datagrams they
    #: drained (``AsyncSocketNetwork.udp_wakeups`` / ``udp_datagrams``).
    #: Their ratio is the mean batch per wake-up — near 1 on an idle loop,
    #: approaching the drain bound on a saturated one.
    udp_wakeups: int = 0
    udp_datagrams: int = 0
    #: Live runtime only: TCP connections accepted and exchanges dialled
    #: (``AsyncSocketNetwork.tcp_accepts`` / ``tcp_dials``).  With both ends
    #: of every exchange in one network they are equal.
    tcp_accepts: int = 0
    tcp_dials: int = 0

    @property
    def classify_cost_avg_us(self) -> float:
        """Mean classify-and-place cost per datagram, microseconds."""
        if self.classify_count == 0:
            return 0.0
        return 1e6 * self.classify_seconds / self.classify_count

    def as_row(self) -> Dict[str, object]:
        return {
            "routed": self.routed_datagrams,
            "unrouted": self.unrouted_datagrams,
            "echoes_dropped": self.echoes_dropped,
            "sticky_entries": self.sticky_entries,
            "classify_count": self.classify_count,
            "classify_cost_avg_us": round(self.classify_cost_avg_us, 2),
            "charged_routing_s": round(self.charged_routing_seconds, 6),
            "discriminator_misses": self.discriminator_misses,
            "garbage_rejects": self.garbage_rejects,
            "network_errors": self.network_errors,
            "tcp_replies_dropped": self.tcp_replies_dropped,
            "udp_wakeups": self.udp_wakeups,
            "udp_datagrams": self.udp_datagrams,
            "tcp_accepts": self.tcp_accepts,
            "tcp_dials": self.tcp_dials,
        }


@dataclass(frozen=True)
class ShardMetrics:
    """One coherent load snapshot of a sharded deployment."""

    #: Snapshot time: virtual seconds on the simulation, monotonic wall
    #: seconds on the live runtime.  Only differences matter to consumers.
    at: float
    workers: Tuple[WorkerMetrics, ...] = field(default_factory=tuple)
    router: RouterMetrics = field(
        default_factory=lambda: RouterMetrics(0, 0, 0, 0, 0, 0.0)
    )
    #: Workers the hash ring currently routes *new* keys to.  Less than
    #: ``worker_count`` while a drain is in progress (the tail workers
    #: serve only their pinned sessions).
    active_workers: int = 0
    #: Per-stage latency distributions (stages with at least one sample),
    #: aggregated across the router and every worker recorder.
    latency: Tuple[StageLatency, ...] = field(default_factory=tuple)

    @property
    def worker_count(self) -> int:
        return len(self.workers)

    @property
    def total_active_sessions(self) -> int:
        return sum(worker.active_sessions for worker in self.workers)

    @property
    def sessions_per_worker(self) -> float:
        """Mean in-flight sessions per ring-active worker (the autoscaler's
        primary load signal)."""
        active = max(1, self.active_workers or self.worker_count)
        return self.total_active_sessions / active

    @property
    def total_busy_backlog(self) -> float:
        return sum(worker.busy_backlog for worker in self.workers)

    @property
    def total_queue_depth(self) -> int:
        """Jobs waiting across every worker loop (0 on the simulation)."""
        return sum(worker.queue_depth for worker in self.workers)

    def as_row(self) -> Dict[str, object]:
        return {
            "at": round(self.at, 6),
            "active_workers": self.active_workers,
            "worker_count": self.worker_count,
            "total_active_sessions": self.total_active_sessions,
            "sessions_per_worker": round(self.sessions_per_worker, 2),
            "workers": [worker.as_row() for worker in self.workers],
            "router": self.router.as_row(),
            "latency": [stage.as_row() for stage in self.latency],
        }
