"""Shard metrics: the observation side of the elastic control plane.

Scaling decisions need numbers.  This module defines the immutable
snapshot types the control plane consumes:

* :class:`WorkerMetrics` — one worker engine's load at a point in time:
  session-table size, completed/evicted counts, the busy backlog (a
  wedge's remaining pause plus how far the worker's send clock is ahead
  of *now*), its queued records and its heartbeat age;
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

**This module is the only place a deployment counter or gauge is
declared**: a ``counter(...)`` / ``gauge(...)`` field carries its kind,
help text, source and (only for names exported before the rule) a
rename.  :func:`declared` derives the ``as_row`` key (the field name),
the ``/metrics`` family (``<prefix>_<field>``, ``_total`` for counters)
and the collector's window key (``<field>_delta``, or the gauge's
``<field>``); :func:`sourced` builds rows and the runtime's
retirement.  Adding a counter is one declaration plus its increment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from typing import Any, Dict, List, NamedTuple, Tuple

__all__ = ["StageLatency", "WorkerMetrics", "RouterMetrics", "ShardMetrics", "declared", "sourced"]

#: Metric kinds: a counter only grows over its owner's lifetime; a gauge
#: is a point-in-time sample.
COUNTER, GAUGE = "counter", "gauge"
#: Metric sources: an attribute of the same name on the worker engine, the
#: shard router or the socket network — or computed by the code building
#: the row (record counts, loop and recorder state, clocks).
ENGINE, ROUTER, NETWORK, COMPUTED = "engine", "router", "network", "computed"


def _metric(kind: str, help_text: str, source: str = COMPUTED, default: Any = 0, **rename: str) -> Any:
    """A declared metric field; ``rename`` may override the derived
    ``row`` key or ``family`` stem of a name exported before the rule."""
    metadata = {"kind": kind, "help": help_text, "source": source, "rename": rename}
    return field(default=default, metadata=metadata)


counter = partial(_metric, COUNTER)
gauge = partial(_metric, GAUGE)


class Declared(NamedTuple):
    """One declared metric field and the names derived from it."""

    field: str
    kind: str
    help: str
    source: str
    row_key: str  # the key in ``as_row``
    family: str  # the Prometheus family, without the namespace


@lru_cache(maxsize=None)
def declared(cls: type) -> Tuple[Declared, ...]:
    """The declared metric fields of a row class, in field order."""
    metrics = []
    for item in fields(cls):
        meta = item.metadata
        if "kind" in meta:
            rename, total = meta["rename"], "_total" if meta["kind"] == COUNTER else ""
            family = f"{cls.family_prefix}_{rename.get('family', item.name)}{total}"
            row_key = rename.get("row", item.name)
            metrics.append(Declared(item.name, meta["kind"], meta["help"], meta["source"], row_key, family))
    return tuple(metrics)


@lru_cache(maxsize=None)
def _sourced_fields(source: str) -> Tuple[str, ...]:
    rows = declared(WorkerMetrics) + declared(RouterMetrics)
    return tuple(m.field for m in rows if m.source == source)


def sourced(source: str, owner: Any) -> Dict[str, Any]:
    """Every field declared with ``source``, read off ``owner``: engine
    fields are worker-row fields, router and network fields router-row."""
    return {name: getattr(owner, name) for name in _sourced_fields(source)}


def _declared_row(row: Any) -> Dict[str, object]:
    """``row``'s declared fields under their row keys, floats rounded."""
    values = {}
    for metric in declared(type(row)):
        value = getattr(row, metric.field)
        values[metric.row_key] = round(value, 6) if isinstance(value, float) else value
    return values


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

    family_prefix = "worker"

    index: int
    name: str
    #: In-flight sessions in the worker's session table.
    active_sessions: int = gauge("Sessions currently open on the worker.")
    #: Sessions completed (respectively evicted) since deployment.
    completed_sessions: int = counter("Sessions completed by the worker.")
    evicted_sessions: int = counter("Idle sessions evicted by the worker.")
    #: Seconds the worker is committed beyond *now*: a wedge's remaining
    #: pause plus the translated sends queued on its serial send clock.
    busy_backlog: float = gauge("Seconds of wedge pause and queued sends ahead of the worker.",
                                default=0.0, row="busy_backlog_s", family="busy_backlog_seconds")
    #: Whether the worker is draining (pinned sessions only, no new keys).
    draining: bool = gauge("1 while the worker is draining, else 0.", default=False)
    #: Records waiting behind the running record or a wedge's pause.
    queue_depth: int = gauge("Records waiting in the worker's loop.")
    #: The worker's stable membership id (survives pool compaction after
    #: an arbitrary-worker drain; ``index`` is just the list position).
    worker_id: int = -1
    #: Classifications that fell back to trial parsing (no discriminator,
    #: an ambiguous prefix, or a matched prefix whose parse still failed).
    discriminator_misses: int = counter("Classify discriminator misses on the worker.", ENGINE)
    #: Datagrams rejected by the first-bytes discriminators alone, without
    #: running any parser (garbage floods become cheap rejects).
    garbage_rejects: int = counter("Unparseable datagrams rejected by the worker.", ENGINE)
    #: Exceptions the worker caught while running its records
    #: (``ShardWorker.errors``).
    errors: int = counter("Exceptions raised on the worker's loop.")
    #: Seconds since the worker last proved liveness: since the health
    #: controller's last heartbeat ping ran as one of its records.  0.0
    #: when it was never pinged (a fresh worker, or a runtime without a
    #: health controller, is presumed healthy until probed).
    heartbeat_age: float = gauge("Seconds since the worker's last heartbeat.",
                                 default=0.0, row="heartbeat_age_s", family="heartbeat_age_seconds")
    #: Spans overwritten in the worker's trace ring because it wrapped
    #: (``SpanRecorder.dropped``); a climbing value under default
    #: sampling means the ring is undersized for the traffic.
    spans_dropped: int = counter("Spans overwritten in the worker's trace ring.")
    #: Highest trace sequence number the worker's recorder has seen on a
    #: sampled span (``SpanRecorder.seq_high``).  Read next to
    #: ``spans_dropped`` it bounds how much history the ring holds.
    span_seq_high: int = gauge("Highest trace sequence number seen by the worker's span ring.")
    discriminator_hits: int = counter("Classify discriminator hits on the worker.", ENGINE)
    unrouted_datagrams: int = counter("Parsed datagrams the worker found no session for.", ENGINE)
    ignored_datagrams: int = counter("Datagrams a worker session was not receptive to.", ENGINE)
    ephemeral_hits: int = counter("Upstream replies attributed via an ephemeral port.", ENGINE)

    def as_row(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "worker_id": self.worker_id,
            "name": self.name,
            **_declared_row(self),
        }


@dataclass(frozen=True)
class RouterMetrics:
    """The shard router's own counters and measured dispatch cost."""

    family_prefix = "router"

    routed_datagrams: int = counter("Datagrams routed to a worker.", ROUTER, row="routed")
    unrouted_datagrams: int = counter("Datagrams no worker accepted.", ROUTER, row="unrouted")
    echoes_dropped: int = counter("Worker echoes dropped at the router.", ROUTER)
    #: Live sticky key → shard entries (in-flight session pins).
    sticky_entries: int = gauge("Live sticky-routing table entries.")
    #: Datagrams the router classified (parse + placement decisions).
    classify_count: int = counter("Edge classify passes at the router.", ROUTER, family="classify")
    #: Cumulative wall-clock seconds spent in classify-and-place.  Real
    #: seconds even on the simulation: the router's compute is what this
    #: measures, not the virtual clock.  Not a declared metric: it
    #: surfaces only in ``as_row``.
    classify_seconds: float = 0.0
    #: Router-edge classifications that fell back to trial parsing
    #: (accumulated from the classify core's discriminator counters).
    discriminator_misses: int = counter("Classify discriminator misses at the router.", ROUTER)
    #: Datagrams the router's classify rejected on first bytes alone,
    #: before any parser ran.
    garbage_rejects: int = counter("Unparseable datagrams rejected at the router.", ROUTER)
    #: Live runtime only: socket-layer errors the network recorded
    #: (``len(AsyncSocketNetwork.errors)``); always 0 on the simulation.
    network_errors: int = counter("Socket-substrate errors observed by the deployment.")
    #: Live runtime only: TCP replies dropped because the client
    #: connection was already gone.
    tcp_replies_dropped: int = counter("TCP replies whose client connection had gone away.", NETWORK)
    #: Live runtime only: UDP reader wake-ups and the datagrams they
    #: drained.  Their ratio is the mean batch per wake-up — near 1 on an
    #: idle loop, approaching the drain bound on a saturated one.
    udp_wakeups: int = counter("UDP reader wake-ups on the asyncio substrate.", NETWORK)
    udp_datagrams: int = counter("Datagrams the UDP reader wake-ups drained.", NETWORK)
    #: Live runtime only: TCP connections accepted and exchanges dialled.
    #: With both ends of every exchange in one network they are equal.
    tcp_accepts: int = counter("TCP connections accepted on the asyncio substrate.", NETWORK)
    tcp_dials: int = counter("TCP exchanges dialled on the asyncio substrate.", NETWORK)
    discriminator_hits: int = counter("Classify discriminator hits at the router.", ROUTER)

    @property
    def classify_cost_avg_us(self) -> float:
        """Mean classify-and-place cost per datagram, microseconds."""
        if self.classify_count == 0:
            return 0.0
        return 1e6 * self.classify_seconds / self.classify_count

    def as_row(self) -> Dict[str, object]:
        return {
            **_declared_row(self),
            "classify_cost_avg_us": round(self.classify_cost_avg_us, 2),
        }


@dataclass(frozen=True)
class ShardMetrics:
    """One coherent load snapshot of a sharded deployment."""

    #: Snapshot time: virtual seconds on the simulation, monotonic wall
    #: seconds on the live runtime.  Only differences matter to consumers.
    at: float
    workers: Tuple[WorkerMetrics, ...] = field(default_factory=tuple)
    router: RouterMetrics = field(default_factory=RouterMetrics)
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

    def families(self) -> List[tuple]:
        """Every declared metric as ``(Prometheus family without namespace,
        kind, help, [(labels, value), ...])``; worker samples carry a
        ``worker`` label."""
        router = [(None, self.router)]
        workers = [({"worker": row.name}, row) for row in self.workers]
        return [
            (m.family, m.kind, m.help, [(labels, getattr(row, m.field)) for labels, row in rows])
            for cls, rows in ((RouterMetrics, router), (WorkerMetrics, workers))
            for m in declared(cls)
        ]

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
