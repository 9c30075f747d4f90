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

Every hand-off is a fresh network event (``call_later`` after
``hop_delay``) on either runtime.  A keyed delivery becomes a record of
the owning worker's :class:`~repro.runtime.worker.ShardWorker`, so it
runs in order with that worker's other records.  A fan-out delivery runs
as the event itself and offers the datagram to each idle shard in turn;
when none of them claims it strictly and a shard is paused, the whole
delivery is retried as that shard's record once the pause ends, so a
wedge holds fan-out too and a worker's code only ever runs idle or in
one of its own records.  Completed
sessions are unpinned from the sticky table *promptly*: workers report
every close through :meth:`ShardRouter.note_session_closed`, which drops
the entry at once on the event thread (the periodic sweep remains as the
backstop for entries whose close was never reported).

The router also serves the control plane: it measures its own
classify-and-place cost per datagram in real seconds
(:meth:`ShardRouter.metrics`).
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

from ..core.engine.automata_engine import AutomataEngine
from ..core.errors import ConfigurationError
from ..network.addressing import Endpoint
from ..network.engine import NetworkEngine, NetworkNode, recent
from ..obs.tracing import (
    FOLD_MASK,
    STAGE_CLASSIFY,
    STAGE_FANOUT,
    STAGE_INGRESS,
    STAGE_PLACE,
    Tracer,
)
from .metrics import ROUTER, RouterMetrics, sourced
from .sharding import HashRing
from .worker import ShardWorker

__all__ = ["ShardRouter"]

#: Seconds between sticky-table prune sweeps while entries remain.
DEFAULT_PRUNE_INTERVAL = 15.0


class ShardRouter(NetworkNode):
    """Routes bridge traffic to the worker engine owning each session."""

    def __init__(
        self,
        shards: Sequence[ShardWorker],
        public_endpoints: Dict[str, Endpoint],
        hop_delay: float = 0.0,
        prune_interval: float = DEFAULT_PRUNE_INTERVAL,
        name: str = "shard-router",
        worker_ids: Optional[Sequence[Hashable]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not shards:
            raise ConfigurationError("a shard router needs at least one worker")
        self.name = name
        self.hop_delay = hop_delay
        self.prune_interval = prune_interval
        self._public_endpoints = dict(public_endpoints)
        self._shards: List[ShardWorker] = []
        self._ids: List[Hashable] = []
        self._by_id: Dict[Hashable, ShardWorker] = {}
        #: Worker ids excluded from the ring by an in-progress drain.
        self._draining: Set[Hashable] = set()
        self._ring: Optional[HashRing] = None
        #: Session key -> worker id, pinned for the session's lifetime.
        self._sticky: Dict[Hashable, Hashable] = {}
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
        #: The router's *own* classify outcome counters: edge classifies
        #: run against worker 0's read-only model but are charged here via
        #: the classify ``counters=`` redirect, so router + worker counters
        #: are a conserved sum over all classify outcomes (nothing is ever
        #: double-counted or attributed to worker 0 by delta).
        self.discriminator_hits = 0
        self.discriminator_misses = 0
        self.garbage_rejects = 0
        #: Edge parse failures: the count and a ring of the most recent
        #: (timestamp, automaton, error), as on the engines; the runtime
        #: aggregates both.
        self.parse_failure_count = 0
        self.parse_failures = recent()
        #: Optional :mod:`repro.obs` tracer: the router stamps every
        #: inbound datagram's trace id and records the edge spans
        #: (ingress/classify/place/fan-out) into its own recorder.
        self.tracer = tracer
        self._recorder = tracer.recorder(name) if tracer is not None else None
        self._prune_scheduled = False
        self.set_workers(shards, worker_ids)

    # ------------------------------------------------------------------
    # worker membership / rebalancing
    # ------------------------------------------------------------------
    def set_workers(
        self,
        shards: Sequence[ShardWorker],
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
        shards = list(shards)
        if not shards:
            raise ConfigurationError("a shard router needs at least one worker")
        ids = list(worker_ids) if worker_ids is not None else list(range(len(shards)))
        if len(ids) != len(shards):
            raise ConfigurationError(
                f"{len(shards)} workers but {len(ids)} worker ids"
            )
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate worker ids {ids!r}")
        self._shards = shards
        self._ids = ids
        self._by_id = dict(zip(ids, shards))
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
        """Whether sticky entries still pin sessions to ``worker_id``."""
        return any(owner == worker_id for owner in self._sticky.values())

    @property
    def workers(self) -> List[AutomataEngine]:
        return [shard.engine for shard in self._shards]

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
        return len(self._shards)

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
        return self._shards[0].engine.group_endpoints

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        tracer = self.tracer
        recorder = self._recorder
        trace = tracer.stamp() if tracer is not None else 0
        if tracer is not None and not trace & FOLD_MASK:
            tracer.fold()
        started = perf_counter()
        try:
            if any(shard.engine.owns_endpoint(source) for shard in self._shards):
                # A worker's own translated multicast looping back through
                # the group membership; the bridge must not consume its own
                # output.
                self.echoes_dropped += 1
                return
            # The edge classify runs against worker 0's read-only model,
            # but its outcome counters (and the parse span) are charged to
            # the router via the redirect — router + worker counters stay
            # a conserved sum.
            core = self._shards[0].engine
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
            automaton_name, message = classified
            key = core.routing_key(automaton_name, message, source)
            if key is not None:
                self._route_keyed(engine, key, automaton_name, message, source, trace)
                if recorder is not None:
                    recorder.record(trace, STAGE_PLACE, marker)
            else:
                self._fan_out(engine, automaton_name, message, source, trace)
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
    def _dispatch_to(
        self,
        shard: ShardWorker,
        automaton_name: str,
        message,
        source: Endpoint,
        strict: bool = False,
        trace: int = 0,
    ) -> bool:
        """Invoke one worker's
        :meth:`~repro.core.engine.automata_engine.AutomataEngine.dispatch`
        through its engine view."""
        return shard.engine.dispatch(
            shard.view,
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
        trace: int = 0,
    ) -> None:
        worker_id = self.shard_for_key(key)
        self._sticky[key] = worker_id
        shard = self._by_id[worker_id]
        self._ensure_pruner(engine)

        def deliver() -> None:
            self._record_outcome(
                self._dispatch_to(shard, automaton_name, message, source, trace=trace)
            )

        # The delivery is a record of the owning worker, so it runs in
        # order with that worker's other records; its wait from here to
        # running is the worker's queue-wait sample.
        queued_at = self.tracer.clock() if self.tracer is not None else None
        engine.call_later(
            self.hop_delay, partial(shard.post, deliver, trace, queued_at)
        )

    def _fan_out(
        self,
        engine: NetworkEngine,
        automaton_name: str,
        message,
        source: Endpoint,
        trace: int = 0,
    ) -> None:
        shards = list(self._shards)
        deliver = partial(self._fan_out_pass, shards, automaton_name, message, source, trace)
        engine.call_later(self.hop_delay, deliver)

    def _fan_out_pass(
        self,
        shards: List[ShardWorker],
        automaton_name: str,
        message,
        source: Endpoint,
        trace: int,
        host: Optional[ShardWorker] = None,
    ) -> None:
        """Offer a fanned-out datagram to ``shards`` (a method, not a
        closure naming itself: a pass is freed by reference counting).

        Strict first: only a shard with hard evidence (reply token or
        matching client host) may claim the datagram; the lenient FIFO
        pass runs only when every shard declined.  The passes span every
        shard, so they run here, not as worker records: each shard is
        offered the datagram only while it is idle (a record of its own
        would run at once) or when this pass is its record (``host``).  A
        worker that left the deployment since the pass was captured (a
        teardown race) declines.
        """
        recorder = self._recorder
        started = perf_counter() if recorder is not None else 0.0
        try:
            held = None
            for shard in shards:
                if shard.closed:
                    continue
                if shard is not host and not shard.idle:
                    held = held or shard
                elif self._dispatch_to(
                    shard, automaton_name, message, source, strict=True, trace=trace
                ):
                    self._record_outcome(True)
                    return
            if held is not None:
                # The paused shard may own the session this datagram
                # answers: ask again as its record, after the pause.
                again = (shards, automaton_name, message, source, trace, held)
                held.post(partial(self._fan_out_pass, *again), trace)
                return
            for shard in shards:
                if not shard.closed and self._dispatch_to(
                    shard, automaton_name, message, source, trace=trace
                ):
                    self._record_outcome(True)
                    return
            self._record_outcome(False)
        finally:
            if recorder is not None:
                recorder.record(trace, STAGE_FANOUT, started)

    # ------------------------------------------------------------------
    # sticky-table pruning
    # ------------------------------------------------------------------
    def note_session_closed(self, key: Hashable) -> None:
        """A worker engine reports that the session under ``key`` ended.

        Wired as the workers' ``session_close_listener``; it runs in a
        worker record on the event thread, which is the routing thread,
        so the sticky entry is dropped at once: drain latency tracks
        session lifetime, and an idle bridge reports ``sticky_entries == 0``.
        """
        self._sticky.pop(key, None)

    def _ensure_pruner(self, engine: NetworkEngine) -> None:
        if self._prune_scheduled or self.prune_interval <= 0:
            return
        self._prune_scheduled = True
        engine.call_later(self.prune_interval, lambda: self._prune(engine))

    def _prune(self, engine: NetworkEngine) -> None:
        self._prune_scheduled = False
        self._sticky = {
            key: worker_id
            for key, worker_id in self._sticky.items()
            if worker_id in self._by_id
            and self._by_id[worker_id].engine.has_session(key)
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
            **sourced(ROUTER, self),
        )

    def __repr__(self) -> str:
        return (
            f"ShardRouter(workers={len(self._shards)}, "
            f"sticky={len(self._sticky)}, routed={self.routed_datagrams})"
        )
