"""The shard router: the bridge's public face in a sharded deployment.

The :class:`ShardRouter` is the only node that binds the bridge's
advertised unicast endpoints and joins its multicast colour groups.  Every
datagram the outside world addresses to the bridge lands here first; the
router classifies it once (parse + component-automaton selection, via
:meth:`~repro.core.engine.automata_engine.AutomataEngine.classify` on its
workers' shared read-only model) and hands
the parsed message to the worker engine that owns the session:

* **client-facing traffic** (the merged automaton's initial leg) carries a
  session correlation key; the router maps the key to a worker by
  consistent hash, remembers the choice in a sticky table, and from then
  on every datagram of that session goes to the same worker — including
  across :meth:`set_workers` rebalances, which only re-home *new* keys;
* **upstream legs** mostly bypass the router entirely: workers send
  translated requests from their own (or per-session ephemeral) source
  endpoints, so unicast replies flow straight back to the owning worker.
  What does arrive here is multicast on a non-initial colour group and
  later client legs addressed to the public endpoints (e.g. a UPnP control
  point's HTTP GET); those fan out across the shards — a strict pass first
  (reply token or client-host evidence only), then a lenient FIFO pass —
  and count as unrouted only when *no* shard claims them;
* **the bridge's own upstream multicast** (a worker's translated M-SEARCH
  or mDNS question echoing back into the group the router joined) is
  recognised by its worker source host and dropped, mirroring a disabled
  ``IP_MULTICAST_LOOP``.

Membership is **identity-based**: every worker is known by a stable id
(the runtime hands out monotone integers), the hash ring is built over the
ids of the non-draining workers, and the sticky table maps correlation
keys to ids — never to list positions.  Removing an **arbitrary** worker
therefore never remaps a surviving worker's keys: :meth:`begin_drain`
takes the *set of ids* to exclude from the ring, the victims' pinned
sessions keep routing to them via the sticky table, and
:meth:`set_workers` (once they are empty and detached) drops exactly the
retired ids' bookkeeping and nothing else.

Hand-off to a worker is scheduled as a fresh network event
(``call_later``), so each worker drains its own queue of deliveries on the
shared virtual clock — the simulated analogue of one event loop per worker
process.  Completed sessions are unpinned from the sticky table
*promptly*: workers report every close through
:meth:`ShardRouter.note_session_closed` and the entries are dropped at the
next routing operation, prune sweep or drain check (the periodic sweep
remains as the backstop for entries whose close was never reported).

The router also serves the control plane: it measures its own
classify-and-place cost per datagram (:meth:`ShardRouter.metrics`), and —
with ``routing_delay`` set — additionally *models* that cost on the
simulated virtual clock: a busy-until clock charges ``routing_delay``
seconds of serial router compute per classified datagram (mirroring the
workers' ``serialize_processing``), so a simulated sweep can exhibit
router saturation instead of assuming an infinitely fast edge.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Deque, Dict, Hashable, Iterable, List, Optional, Sequence, Set

from ..core.engine.automata_engine import AutomataEngine
from ..core.errors import ConfigurationError
from ..network.addressing import Endpoint
from ..network.engine import NetworkEngine, NetworkNode
from ..obs.tracing import (
    STAGE_CLASSIFY,
    STAGE_FANOUT,
    STAGE_INGRESS,
    STAGE_PLACE,
    STAGE_QUEUE_WAIT,
    Tracer,
)
from .metrics import ROUTER, RouterMetrics, sourced
from .sharding import HashRing

__all__ = ["ShardRouter"]

#: Seconds between sticky-table prune sweeps while entries remain.
DEFAULT_PRUNE_INTERVAL = 15.0


class ShardRouter(NetworkNode):
    """Routes bridge traffic to the worker engine owning each session."""

    def __init__(
        self,
        workers: Sequence[AutomataEngine],
        public_endpoints: Dict[str, Endpoint],
        hop_delay: float = 0.0,
        prune_interval: float = DEFAULT_PRUNE_INTERVAL,
        name: str = "shard-router",
        worker_ids: Optional[Sequence[Hashable]] = None,
        routing_delay: float = 0.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not workers:
            raise ConfigurationError("a shard router needs at least one worker")
        self.name = name
        self.hop_delay = hop_delay
        self.prune_interval = prune_interval
        #: Virtual seconds of serial router compute charged per classified
        #: datagram (0.0 = unmodelled, the router is an infinitely fast
        #: edge as before).  Mirrors the workers' ``serialize_processing``.
        self.routing_delay = routing_delay
        self._public_endpoints = dict(public_endpoints)
        self._workers: List[AutomataEngine] = []
        self._ids: List[Hashable] = []
        self._by_id: Dict[Hashable, AutomataEngine] = {}
        #: Worker ids excluded from the ring by an in-progress drain.
        self._draining: Set[Hashable] = set()
        self._ring: Optional[HashRing] = None
        #: Session key -> worker id, pinned for the session's lifetime.
        self._sticky: Dict[Hashable, Hashable] = {}
        #: Keys whose session a worker reported closed, awaiting removal
        #: from the sticky table.  Appended from worker engines and
        #: consumed at the next routing operation, prune sweep or drain
        #: check — so completed sessions unpin promptly instead of waiting
        #: for the periodic sweep.
        self._closed_keys: Deque[Hashable] = deque()
        #: Datagrams no shard claimed (aggregate of the fan-out passes).
        self.unrouted_datagrams = 0
        #: Datagrams routed (client-keyed plus fan-out claims).
        self.routed_datagrams = 0
        #: Worker upstream multicast echoes dropped at the edge.
        self.echoes_dropped = 0
        #: Datagrams classified, and the cumulative wall-clock seconds the
        #: classify-and-place step cost — the router's *own* compute, the
        #: signal for "the router is the bottleneck".
        self.classify_count = 0
        self.classify_seconds = 0.0
        #: Virtual seconds of modelled router compute charged so far (the
        #: ``routing_delay`` busy-until clock; 0.0 when unmodelled).
        self.charged_routing_seconds = 0.0
        #: The modelled busy-until clock: hand-offs are delayed until the
        #: router's serial compute would actually have finished.
        self._route_busy_until = 0.0
        #: The router's *own* classify outcome counters: edge classifies
        #: run against worker 0's read-only model but are charged here via
        #: the classify ``counters=`` redirect, so router + worker counters
        #: are a conserved sum over all classify outcomes (nothing is ever
        #: double-counted or attributed to worker 0 by delta).
        self.discriminator_hits = 0
        self.discriminator_misses = 0
        self.garbage_rejects = 0
        #: Edge parse failures (timestamp, automaton, error), same shape
        #: as the engines' list; the runtime aggregates both.
        self.parse_failures: List = []
        #: Optional :mod:`repro.obs` tracer: the router stamps every
        #: inbound datagram's trace id and records the edge spans
        #: (ingress/classify/place/fan-out) into its own recorder.
        self.tracer = tracer
        self._recorder = tracer.recorder(name) if tracer is not None else None
        self._prune_scheduled = False
        self._engine: Optional[NetworkEngine] = None
        self.set_workers(workers, worker_ids)

    # ------------------------------------------------------------------
    # worker membership / rebalancing
    # ------------------------------------------------------------------
    def set_workers(
        self,
        workers: Sequence[AutomataEngine],
        worker_ids: Optional[Sequence[Hashable]] = None,
    ) -> None:
        """Install the worker set, rebuilding the hash ring.

        ``worker_ids`` gives each worker its stable identity (defaults to
        dense ``0..n-1``, which is exactly right for a fixed pool).  Sticky
        entries survive as long as their worker's *id* does — in-flight
        sessions never migrate, and compacting the list after an arbitrary
        removal shifts positions but never identities — while entries
        whose id left the membership are dropped and re-homed by the new
        ring on next arrival.  Any in-progress drain marks are cleared:
        this is the "membership settled" call.
        """
        workers = list(workers)
        if not workers:
            raise ConfigurationError("a shard router needs at least one worker")
        ids = list(worker_ids) if worker_ids is not None else list(range(len(workers)))
        if len(ids) != len(workers):
            raise ConfigurationError(
                f"{len(workers)} workers but {len(ids)} worker ids"
            )
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate worker ids {ids!r}")
        self._workers = workers
        self._ids = ids
        self._by_id = dict(zip(ids, workers))
        self._draining = set()
        self._ring = HashRing(ids)
        self._sticky = {
            key: wid for key, wid in self._sticky.items() if wid in self._by_id
        }

    def begin_drain(self, worker_ids: Iterable[Hashable]) -> None:
        """Stop routing *new* keys to the workers in ``worker_ids``.

        The ring is rebuilt over the remaining (active) ids — which may be
        *any* subset, not just a prefix; sessions already sticky to a
        draining worker stay pinned there until they complete, and fan-out
        deliveries still offer keyless traffic to every worker — a
        draining shard keeps receiving everything its in-flight sessions
        need.  :meth:`set_workers` (called once the victims are empty and
        detached) settles the new membership; :meth:`cancel_drain` aborts.
        """
        victims = set(worker_ids)
        if not victims:
            raise ConfigurationError("begin_drain needs at least one worker id")
        unknown = victims - set(self._ids)
        if unknown:
            raise ConfigurationError(
                f"cannot drain unknown worker ids {sorted(unknown, key=repr)!r}"
            )
        active = [wid for wid in self._ids if wid not in victims]
        if not active:
            raise ConfigurationError(
                "cannot drain every worker; at least one must stay active"
            )
        self._draining = victims
        self._ring = HashRing(active)

    def cancel_drain(self) -> None:
        """Restore full ring membership (an aborted drain)."""
        self._draining = set()
        self._ring = HashRing(self._ids)

    def drain_pending(self, worker_id: Hashable) -> bool:
        """Whether sticky entries still pin sessions to ``worker_id``.

        Flushes the closed-key queue first, so a drain check observes
        completions immediately instead of after the prune interval.
        """
        self._flush_closed_keys()
        return any(owner == worker_id for owner in self._sticky.values())

    @property
    def workers(self) -> List[AutomataEngine]:
        return list(self._workers)

    @property
    def worker_ids(self) -> List[Hashable]:
        """The stable ids of the current membership, in pool order."""
        return list(self._ids)

    @property
    def draining_ids(self) -> Set[Hashable]:
        """Ids currently excluded from the ring by an in-progress drain."""
        return set(self._draining)

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    @property
    def active_worker_count(self) -> int:
        """Workers the ring currently routes new keys to."""
        return len(self._ids) - len(self._draining)

    def shard_for_key(self, key: Hashable) -> Hashable:
        """The worker id ``key`` routes to right now (sticky-aware)."""
        sticky = self._sticky.get(key)
        if sticky is not None:
            return sticky
        assert self._ring is not None
        return self._ring.shard_for(key)

    # ------------------------------------------------------------------
    # NetworkNode interface
    # ------------------------------------------------------------------
    def unicast_endpoints(self) -> List[Endpoint]:
        return list(self._public_endpoints.values())

    def multicast_groups(self) -> List[Endpoint]:
        return self._workers[0].group_endpoints

    def on_attached(self, engine: NetworkEngine) -> None:
        self._engine = engine

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        self._engine = engine
        tracer = self.tracer
        recorder = self._recorder
        trace = tracer.stamp() if tracer is not None else 0
        started = perf_counter()
        try:
            self._flush_closed_keys()
            if any(worker.owns_endpoint(source) for worker in self._workers):
                # A worker's own translated multicast looping back through
                # the group membership; the bridge must not consume its own
                # output.
                self.echoes_dropped += 1
                return
            # The edge classify runs against worker 0's read-only model,
            # but its outcome counters (and the parse span) are charged to
            # the router via the redirect — router + worker counters stay
            # a conserved sum.
            core = self._workers[0]
            classified = core.classify(
                data,
                destination,
                now=engine.now(),
                counters=self,
                trace=trace,
                recorder=recorder,
            )
            if classified is None:
                return
            marker = (
                recorder.record(trace, STAGE_CLASSIFY, started)
                if recorder is not None
                else 0.0
            )
            # The modelled serial router compute: every classified datagram
            # occupies the router for ``routing_delay`` virtual seconds, so
            # its hand-off leaves only when the router would actually be
            # done with it (and with everything queued before it).
            charge = self._charge_routing(engine.now())
            automaton_name, message = classified
            key = core.routing_key(automaton_name, message, source)
            if key is not None:
                self._route_keyed(
                    engine, key, automaton_name, message, source, charge, trace
                )
                if recorder is not None:
                    recorder.record(trace, STAGE_PLACE, marker)
            else:
                self._fan_out(
                    engine, automaton_name, message, source, charge, trace
                )
        finally:
            # The classify-and-place cost in real seconds (hand-off
            # execution is deferred, so it is not included): the router's
            # own serial compute per datagram.
            duration = perf_counter() - started
            self.classify_seconds += duration
            self.classify_count += 1
            if recorder is not None:
                recorder.record_span(trace, STAGE_INGRESS, duration)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    # The two overridable seams below are how the live router of
    # :mod:`repro.runtime.aio_live` reuses this routing logic over real
    # sockets: ``_hand_off`` decides *where* a delivery closure runs (a
    # simulated event here, a worker's queue live), and ``_dispatch_to``
    # decides *how* one worker's engine is invoked (bare here, through the
    # worker's engine view live).

    def _charge_routing(self, now: float) -> float:
        """Occupy the modelled router clock; return the queueing delay.

        Mirrors the workers' busy-until translation clock: the datagram
        starts when the router frees up, holds it for ``routing_delay``
        seconds, and its hand-off is deferred by the total wait.  Returns
        0.0 when the cost is unmodelled.
        """
        if self.routing_delay <= 0.0:
            return 0.0
        start = max(now, self._route_busy_until)
        self._route_busy_until = start + self.routing_delay
        self.charged_routing_seconds += self.routing_delay
        return self._route_busy_until - now

    def _hand_off(
        self,
        engine: NetworkEngine,
        worker,
        deliver,
        delay: float = 0.0,
        trace: int = 0,
    ) -> None:
        """Run ``deliver`` as a fresh event owned by ``worker``.

        On the simulation every hand-off is a ``call_later`` event on the
        shared virtual clock — the analogue of posting to a worker process'
        queue.  ``worker`` is ``None`` for fan-out deliveries, which touch
        every shard; ``delay`` carries the modelled router compute charge,
        recorded as the delivery's queue wait (virtual seconds between
        hand-off and execution) into the owning worker's recorder.
        """
        recorder = getattr(worker, "_recorder", None) if worker is not None else None
        if recorder is None:
            engine.call_later(self.hop_delay + delay, deliver)
            return
        queued_at = engine.now()

        def timed_deliver() -> None:
            recorder.record_wait(trace, STAGE_QUEUE_WAIT, queued_at, engine.now())
            deliver()

        engine.call_later(self.hop_delay + delay, timed_deliver)

    def _dispatch_to(
        self,
        worker,
        engine: NetworkEngine,
        automaton_name: str,
        message,
        source: Endpoint,
        strict: bool = False,
        trace: int = 0,
    ) -> bool:
        """Invoke one worker's :meth:`~repro.core.engine.automata_engine.AutomataEngine.dispatch`."""
        return worker.dispatch(
            engine,
            automaton_name,
            message,
            source,
            count_unrouted=False,
            strict=strict,
            trace=trace,
        )

    def _record_outcome(self, routed: bool) -> None:
        """Count one delivery's outcome."""
        if routed:
            self.routed_datagrams += 1
        else:
            self.unrouted_datagrams += 1

    def _route_keyed(
        self,
        engine: NetworkEngine,
        key: Hashable,
        automaton_name: str,
        message,
        source: Endpoint,
        delay: float = 0.0,
        trace: int = 0,
    ) -> None:
        worker_id = self.shard_for_key(key)
        self._sticky[key] = worker_id
        worker = self._by_id[worker_id]
        self._ensure_pruner(engine)

        def deliver() -> None:
            self._record_outcome(
                self._dispatch_to(
                    worker, engine, automaton_name, message, source, trace=trace
                )
            )

        self._hand_off(engine, worker, deliver, delay, trace)

    def _fan_out(
        self,
        engine: NetworkEngine,
        automaton_name: str,
        message,
        source: Endpoint,
        delay: float = 0.0,
        trace: int = 0,
    ) -> None:
        workers = list(self._workers)
        recorder = self._recorder

        def deliver() -> None:
            # Strict first: only a shard with hard evidence (reply token or
            # matching client host) may claim the datagram; the lenient
            # FIFO pass runs only when every shard declined.
            started = perf_counter() if recorder is not None else 0.0
            try:
                for strict in (True, False):
                    for worker in workers:
                        if self._dispatch_to(
                            worker,
                            engine,
                            automaton_name,
                            message,
                            source,
                            strict=strict,
                            trace=trace,
                        ):
                            self._record_outcome(True)
                            return
                self._record_outcome(False)
            finally:
                if recorder is not None:
                    recorder.record(trace, STAGE_FANOUT, started)

        self._hand_off(engine, None, deliver, delay, trace)

    # ------------------------------------------------------------------
    # sticky-table pruning
    # ------------------------------------------------------------------
    def note_session_closed(self, key: Hashable) -> None:
        """A worker engine reports that the session under ``key`` ended.

        Wired as the workers' ``session_close_listener``; may run on any
        thread (the ``deque`` append is atomic), so the sticky entry is
        only *queued* for removal here and actually dropped by
        :meth:`_flush_closed_keys` — at the next datagram, prune sweep or
        drain check.  This is what keeps drain latency bounded by session
        lifetime instead of the prune interval.
        """
        self._closed_keys.append(key)

    def _flush_closed_keys(self) -> None:
        """Drop sticky entries whose session a worker reported closed.

        An entry survives the flush when the worker *still* has a session
        under the key — a retransmission may have reopened it on the same
        shard between the close and the flush — mirroring the liveness
        probe the periodic prune performs.
        """
        while self._closed_keys:
            key = self._closed_keys.popleft()
            worker_id = self._sticky.get(key)
            if worker_id is None:
                continue
            worker = self._by_id.get(worker_id)
            if worker is not None and worker.has_session(key):
                continue
            del self._sticky[key]

    def _ensure_pruner(self, engine: NetworkEngine) -> None:
        if self._prune_scheduled or self.prune_interval <= 0:
            return
        self._prune_scheduled = True
        engine.call_later(self.prune_interval, lambda: self._prune(engine))

    def _prune(self, engine: NetworkEngine) -> None:
        self._prune_scheduled = False
        self._flush_closed_keys()
        self._sticky = {
            key: worker_id
            for key, worker_id in self._sticky.items()
            if worker_id in self._by_id
            and self._by_id[worker_id].has_session(key)
        }
        if self._sticky:
            self._ensure_pruner(engine)

    @property
    def sticky_sessions(self) -> Dict[Hashable, Hashable]:
        """A snapshot of the sticky key→worker-id table (tests, introspection)."""
        return dict(self._sticky)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> RouterMetrics:
        """The router's counters as an immutable snapshot."""
        return RouterMetrics(
            sticky_entries=len(self._sticky),
            classify_seconds=self.classify_seconds,
            charged_routing_seconds=self.charged_routing_seconds,
            **sourced(ROUTER, self),
        )

    def __repr__(self) -> str:
        return (
            f"ShardRouter(workers={len(self._workers)}, "
            f"sticky={len(self._sticky)}, routed={self.routed_datagrams})"
        )
