"""The sharded runtime: one bridge, N parallel worker engines.

PR 1 made every per-interaction mutable live in a
:class:`~repro.core.engine.session.SessionContext`, leaving the merged
automaton and its coloured automata read-only at runtime.  That is exactly
the precondition for true parallelism: the :class:`ShardedRuntime` deploys
*N* :class:`~repro.core.engine.automata_engine.AutomataEngine` workers that
share the read-only behaviour model and nothing else — each worker has its
own session table, its own statistics, its own serial send clock —
behind a single :class:`~repro.runtime.router.ShardRouter` that owns the
bridge's public endpoints and partitions sessions by consistent hash of
the correlation key.

Invariants the design rests on (and the tests pin):

* the merged automaton and coloured automata are **shared and read-only**;
  workers never write to them, so no cross-worker synchronisation exists;
* **one session never spans shards**: the router is sticky per correlation
  key, upstream replies return to the owning worker's (per-session
  ephemeral) source endpoints, and rebalancing only re-homes future keys;
* aggregate behaviour equals the single-engine runtime: the same sessions
  complete with the same translated outputs, only wall/virtual-clock
  timings change.

Workers carry **stable integer ids** (allocated lowest-free on build) that
survive pool compaction: the router's ring and sticky table are keyed by
id, so *any* worker — not just the highest-indexed one — can be drained
and removed loss-free (:meth:`ShardedRuntime.remove_worker`), or swapped
for a fresh engine (:meth:`ShardedRuntime.replace_worker`), which is what
lets an autoscaler or failure detector retire the most loaded or least
healthy worker instead of whichever happens to sit at the end of the list.

Every worker runs as a :class:`~repro.runtime.worker.ShardWorker` on
either runtime: a shell attached in its place, an engine view whose send
clock makes the worker's translation compute a serial resource, and one
ordered stream of records (hand-offs, upstream datagrams, timers, pings,
wedges).  Throughput therefore scales with the worker count until the
legacy protocol latencies dominate — the same shape a process-per-shard
deployment shows on real hardware.  The same objects deploy unchanged on
real loopback sockets (:mod:`repro.runtime.aio_live`), where the records
run on the socket engine's one event-loop thread.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, TypeVar

from ..core.automata.merge import MergedAutomaton
from ..core.engine.actions import ActionRegistry
from ..core.engine.automata_engine import (
    DEFAULT_SESSION_TIMEOUT,
    AutomataEngine,
    binding_plan,
)
from ..core.engine.bridge import StarlinkBridge
from ..core.engine.session import SessionCorrelator, SessionRecord
from ..core.errors import ConfigurationError
from ..core.mdl.spec import MDLSpec
from ..network.engine import NetworkEngine
from ..obs.tracing import (
    DEFAULT_RING_SIZE,
    DEFAULT_SAMPLE_RATE,
    Tracer,
    export_traces,
)
from .metrics import ENGINE, ROUTER, ShardMetrics, StageLatency, WorkerMetrics, sourced
from .router import ShardRouter
from .worker import ShardWorker

__all__ = ["ShardedRuntime", "ScaleEvent", "VICTIM_STRATEGIES"]

#: Default shard count; matches the evaluation's sweet spot on the
#: calibrated workload (beyond it the legacy service latency dominates).
DEFAULT_WORKERS = 4

#: Seconds between drain-completion checks (network clock).
DEFAULT_DRAIN_POLL_INTERVAL = 0.05

#: Seconds a drain may take before it is cancelled and full ring
#: membership restored.  Generous: idle-session eviction (default 30 s)
#: guarantees progress well inside it.
DEFAULT_DRAIN_TIMEOUT = 60.0

_T = TypeVar("_T")

#: Victim-selection strategies for :meth:`ShardedRuntime.select_victims`.
VICTIM_STRATEGIES = ("suffix", "least-loaded", "most-loaded")


class ScaleEvent(NamedTuple):
    """One entry of a runtime's scaling timeline."""

    at: float
    #: ``grow`` | ``drain-start`` | ``drain-complete`` | ``drain-cancelled``
    kind: str
    workers_before: int
    workers_after: int


class ShardedRuntime:
    """Run one bridge's merged automaton across parallel worker engines.

    The runtime owns the worker :class:`AutomataEngine` instances (built
    eagerly, deployed by :meth:`deploy`) and aggregates their sessions and
    statistics behind the same surface a single-engine
    :class:`~repro.core.engine.bridge.StarlinkBridge` exposes, so the
    evaluation scenarios drive either deployment interchangeably.  Build
    one from an undeployed bridge with :meth:`from_bridge`, or directly
    from the models.  For a deployment over real sockets use the
    :class:`~repro.runtime.aio_live.AsyncLiveShardedRuntime` subclass.
    """

    #: Span timeline positions follow the network's clock — virtual
    #: seconds on the simulation, so traces interleave with scale events
    #: exactly.  The live runtime keeps the tracer's ``perf_counter``.
    virtual_timeline = True

    def __init__(
        self,
        merged: MergedAutomaton,
        mdl_specs: Mapping[str, MDLSpec],
        workers: int = DEFAULT_WORKERS,
        host: str = "starlink.bridge",
        base_port: int = 41000,
        processing_delay: float = 0.0,
        actions: Optional[ActionRegistry] = None,
        correlator: Optional[SessionCorrelator] = None,
        session_timeout: Optional[float] = DEFAULT_SESSION_TIMEOUT,
        hop_delay: float = 0.0,
        ephemeral_ports: bool = True,
        worker_port_stride: int = 0,
        interpreted: bool = False,
        trace_sample: float = DEFAULT_SAMPLE_RATE,
        trace_ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        if workers <= 0:
            raise ConfigurationError(
                f"a sharded runtime needs at least one worker, got {workers}"
            )
        self.merged = merged
        self.mdl_specs: Dict[str, MDLSpec] = dict(mdl_specs)
        self.host = host
        self.base_port = base_port
        self.processing_delay = processing_delay
        self.actions = actions
        self.correlator = correlator
        self.session_timeout = session_timeout
        self.hop_delay = hop_delay
        self.ephemeral_ports = ephemeral_ports
        #: Select the interpreting MDL codecs instead of the compiled hot
        #: path (escape hatch for debugging and differential tests).
        self.interpreted = interpreted
        if not interpreted:
            # Compile every spec once, up front: the model is read-only
            # after deployment, so the artifacts cached on each spec are
            # shared by all workers (current and future) instead of each
            # engine compiling its own.
            from ..core.mdl.compiled import compiled_artifacts

            for spec in self.mdl_specs.values():
                compiled_artifacts(spec)
        #: With a stride, worker *id* shares the runtime's host and claims
        #: the port range ``base_port + (id+1) * stride`` — required on the
        #: socket engine, where hosts are real addresses (everything is
        #: 127.0.0.1) and only ports distinguish the nodes.  Without one
        #: (the simulation default), workers share ``base_port`` under
        #: derived per-worker hostnames.
        self.worker_port_stride = worker_port_stride
        #: One :mod:`repro.obs` tracer shared by the router and every
        #: worker (current and future): per-stage latency histograms are
        #: always on, span capture samples ``trace_sample`` of datagrams
        #: (1.0 = all, 0.0 = spans off) into per-component rings of
        #: ``trace_ring_size`` spans.  ``deploy`` binds the timeline clock.
        self.tracer = Tracer(sample=trace_sample, ring_size=trace_ring_size)
        #: The advertised (router-owned) endpoint per component automaton.
        self.public_endpoints = binding_plan(merged, host, base_port)
        #: Stable worker ids, parallel to the worker list.  Ids are
        #: allocated lowest-free, so a fixed pool is ``0..n-1`` (identical
        #: naming and ports to the pre-identity runtime) while churn after
        #: an arbitrary removal refills the hole instead of leaking ports.
        self._worker_ids: List[int] = list(range(workers))
        self._workers: List[AutomataEngine] = [
            self._build_worker(worker_id) for worker_id in self._worker_ids
        ]
        #: The deployed workers' :class:`ShardWorker` s, parallel to the
        #: worker list; empty while undeployed.
        self._shards: List[ShardWorker] = []
        self._router: Optional[ShardRouter] = None
        self._network: Optional[NetworkEngine] = None
        #: Worker ids of the drain in progress, ``None`` when idle.
        self._drain_victims: Optional[List[int]] = None
        #: Network-clock time the drain in progress is cancelled at.
        self._drain_deadline = 0.0
        #: The newcomer a ``replace_worker`` drain retires again if the
        #: victim's drain is cancelled (``None`` for a plain shrink).
        self._drain_unwind: Optional[int] = None
        #: Seconds between drain-completion checks (network clock).
        self.drain_poll_interval = DEFAULT_DRAIN_POLL_INTERVAL
        #: Seconds after which a drain is cancelled (see :meth:`scale_to`).
        self.drain_timeout = DEFAULT_DRAIN_TIMEOUT
        #: The scaling timeline (grow / drain-start / drain-complete /
        #: drain-cancelled).
        self.scale_events: List[ScaleEvent] = []
        #: Optional :class:`repro.obs.recorder.EventJournal` (duck-typed:
        #: anything with ``append(kind, at=..., **fields)``).  When set,
        #: every scale event is mirrored onto the journal's timeline so
        #: membership changes interleave with spans and health actions in
        #: postmortem bundles.  ``None`` (the default) costs nothing.
        self.journal: Optional[Any] = None
        #: Measurements inherited from workers retired by a drain and
        #: routers discarded at undeploy, keyed as in :meth:`total`: they
        #: keep contributing to the aggregate views below.
        self._retired_sessions: List[SessionRecord] = []
        self._retired_evicted: List[SessionRecord] = []
        self._retired_parse_failures: List = []
        self._retired: Counter = Counter()
        #: Exceptions raised by records of retired workers and undeployed
        #: generations, so post-run inspection survives the teardown.
        self._worker_error_log: List[BaseException] = []

    @classmethod
    def from_bridge(
        cls, bridge: StarlinkBridge, workers: int = DEFAULT_WORKERS, **overrides: Any
    ) -> "ShardedRuntime":
        """Shard an (undeployed) :class:`StarlinkBridge` across workers.

        The bridge supplies the models and configuration; keyword
        ``overrides`` adjust runtime-only knobs (``hop_delay``,
        ``worker_port_stride``, ...).
        """
        options: Dict[str, Any] = dict(
            host=bridge.host,
            base_port=bridge.base_port,
            processing_delay=bridge.processing_delay,
            actions=bridge.actions,
            correlator=bridge.correlator,
            session_timeout=bridge.session_timeout,
            ephemeral_ports=bridge.ephemeral_ports,
            interpreted=bridge.interpreted,
        )
        options.update(overrides)
        return cls(bridge.merged, bridge.mdl_specs, workers=workers, **options)

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------
    def _allocate_worker_id(self) -> int:
        """The lowest non-negative id not currently in the pool.

        Reusing the id of a fully-retired worker keeps hostnames and port
        ranges bounded under churn; a *draining* worker is still in the
        pool, so its id (and therefore its endpoints) can never be handed
        to a newcomer while the old engine is alive.
        """
        in_use = set(self._worker_ids)
        candidate = 0
        while candidate in in_use:
            candidate += 1
        return candidate

    def _build_worker(self, worker_id: int) -> AutomataEngine:
        if self.worker_port_stride > 0:
            worker_host = self.host
            worker_base_port = self.base_port + (worker_id + 1) * self.worker_port_stride
        else:
            worker_host = f"{self.host}.w{worker_id}"
            worker_base_port = self.base_port
        return AutomataEngine(
            self.merged,
            self.mdl_specs,
            host=worker_host,
            base_port=worker_base_port,
            processing_delay=self.processing_delay,
            actions=self.actions,
            name=f"starlink:{self.merged.name}.w{worker_id}",
            correlator=self.correlator,
            session_timeout=self.session_timeout,
            public_endpoints=self.public_endpoints,
            join_groups=False,
            ephemeral_ports=self.ephemeral_ports,
            interpreted=self.interpreted,
            tracer=self.tracer,
        )

    def deploy(self, network: NetworkEngine) -> ShardRouter:
        """Attach every worker's shell and the router to ``network``.

        The shells bind the workers' own (per-worker) endpoints so
        upstream replies reach them directly; the returned
        :class:`ShardRouter` is the only node binding the bridge's
        *public* endpoints and joining its multicast groups.  All or
        nothing: if an attach fails (an endpoint already bound, say), the
        router and every shell are detached again before the error
        propagates, so a retry starts clean.  Deploying twice raises
        :class:`~repro.core.errors.ConfigurationError`; :meth:`undeploy`
        makes a runtime deployable again.
        """
        if self._router is not None:
            raise ConfigurationError(
                f"sharded runtime '{self.merged.name}' is already deployed"
            )
        if self.virtual_timeline:
            self.tracer.use_clock(network.now, "virtual")
        shards = [ShardWorker(worker, network) for worker in self._workers]
        router: Optional[ShardRouter] = None
        try:
            for shard in shards:
                network.attach(shard.shell)
            router = ShardRouter(
                shards,
                self.public_endpoints,
                hop_delay=self.hop_delay,
                name=f"router:{self.merged.name}",
                worker_ids=self._worker_ids,
                tracer=self.tracer,
            )
            network.attach(router)
        except BaseException:
            # Detach the router and every shell, not only fully-attached
            # nodes: an attach that raised mid-bind left its node
            # registered with some endpoints live, and detach is a no-op
            # for never-attached nodes.
            if router is not None:
                network.detach(router)
            for shard in shards:
                network.detach(shard.shell)
            raise
        for worker in self._workers:
            worker.session_close_listener = router.note_session_closed
        self._shards = shards
        self._router = router
        self._network = network
        return router

    def undeploy(self) -> None:
        """Detach the router and every worker's shell from the network.

        Records still queued on a worker (behind a wedge, say) then run,
        so none is dropped and their exceptions reach
        :attr:`worker_errors`.  Completed :class:`SessionRecord`
        measurements survive undeployment (the aggregation properties
        below keep working), so a scenario can tear its deployment down
        before harvesting results.
        """
        shards, self._shards = self._shards, []
        if self._network is not None:
            if self._router is not None:
                self._network.detach(self._router)
            for shard in shards:
                self._network.detach(shard.shell)
        for worker in self._workers:
            worker.session_close_listener = None
        for shard in shards:
            self._close_shard(shard)
        if self._router is not None:
            self._retire_router(self._router)
        self._router = None
        self._network = None
        self._drain_victims = None

    def _close_shard(self, shard: ShardWorker) -> None:
        """Run ``shard``'s queued records and keep their exceptions."""
        shard.close()
        self._worker_error_log.extend(shard.errors)

    def _retire_router(self, router: ShardRouter) -> None:
        """Keep a discarded router's edge parse failures in the aggregate.

        The router object dies with the deployment; its classify outcomes
        (now charged to the router, not worker 0) must survive so the
        post-teardown views stay complete.
        """
        self._retired_parse_failures.extend(router.parse_failures)
        counters = sourced(ROUTER, router)
        self._retired.update({f"router_{name}": value for name, value in counters.items()})

    # ------------------------------------------------------------------
    # scaling (grow / drain / arbitrary removal)
    # ------------------------------------------------------------------
    def select_victims(self, count: int, strategy: str = "suffix") -> List[int]:
        """Choose ``count`` worker ids to drain, by ``strategy``.

        * ``"suffix"`` — the last ``count`` pool positions (the historical
          behaviour, and the default of :meth:`scale_to`);
        * ``"least-loaded"`` — the workers with the fewest in-flight
          sessions (they drain fastest — the natural scale-down choice);
        * ``"most-loaded"`` — the busiest workers (what a failure detector
          retiring a hot or sick shard would pick, paired with
          :meth:`replace_worker`).

        Ties prefer the highest pool position, so a uniformly-loaded pool
        selects exactly the suffix.  Called off the live runtime's loop
        thread, the session counts are a racy sample — victim choice is a
        heuristic, not a correctness decision.
        """
        if strategy not in VICTIM_STRATEGIES:
            raise ConfigurationError(
                f"unknown victim strategy {strategy!r}; "
                f"choose one of {VICTIM_STRATEGIES}"
            )
        if not 0 < count < len(self._workers):
            raise ConfigurationError(
                f"cannot select {count} victims from {len(self._workers)} workers"
            )
        if strategy == "suffix":
            return list(self._worker_ids[len(self._workers) - count :])
        # Ties prefer the highest pool position under BOTH load orders
        # (negating the load, not reversing the sort, keeps that true), so
        # a uniformly-loaded pool always selects exactly the suffix.
        sign = 1 if strategy == "least-loaded" else -1
        order = sorted(
            range(len(self._workers)),
            key=lambda pos: (
                sign * len(self._workers[pos].active_sessions),
                -pos,
            ),
        )
        return [self._worker_ids[pos] for pos in order[:count]]

    def _membership_change(self, change: Callable[[], _T]) -> _T:
        """Run one membership change (see the live runtime for a caller
        off the event thread)."""
        return change()

    def scale_to(self, workers: int, victims: Optional[Sequence[int]] = None) -> None:
        """Resize the worker pool of a deployed runtime, loss-free.

        Growing is immediate: fresh workers attach and the router's ring
        is rebuilt; keys of in-flight sessions stay pinned to their
        original worker by the sticky table (one session never spans
        shards).

        Shrinking **drains**: the ring stops routing new correlation keys
        to the victim workers at once, but they keep serving their pinned
        sessions (including fan-out legs) until their session tables and
        sticky entries empty, at which point they are detached — no
        session is ever abandoned.  ``victims`` names the worker ids to
        retire (any subset, see :meth:`select_victims`); by default the
        suffix of the pool drains, matching the historical behaviour.  The
        drain completes *asynchronously* on the network's clock; observe
        it via :attr:`scaling_in_progress` / :attr:`worker_count`.  A drain
        still unfinished after :attr:`drain_timeout` seconds is cancelled:
        full ring membership comes back (no session is abandoned) and a
        ``drain-cancelled`` event is recorded.  A second ``scale_to``
        while a drain is in progress is rejected.
        """
        self._membership_change(partial(self._resize, workers, victims))

    def _resize(self, workers: int, victims: Optional[Sequence[int]]) -> None:
        if workers <= 0:
            raise ConfigurationError(
                f"a sharded runtime needs at least one worker, got {workers}"
            )
        if self._router is None or self._network is None:
            raise ConfigurationError("scale_to requires a deployed runtime")
        if self._drain_victims is not None:
            raise ConfigurationError(
                f"a drain of workers {self._drain_victims!r} is already in "
                "progress; wait for it to complete before rescaling"
            )
        current = len(self._workers)
        if workers >= current:
            if victims is not None:
                # Loud, not a silent no-op: a caller naming victims
                # expects a drain (or an error), and a concurrent resize
                # that already brought the pool to the target must not
                # make their victim quietly survive.
                raise ConfigurationError(
                    f"victims only apply when shrinking the pool "
                    f"(target {workers}, current {current})"
                )
        if workers == current:
            return
        if workers > current:
            added: List[int] = []
            try:
                while len(self._workers) < workers:
                    worker_id = self._allocate_worker_id()
                    worker = self._build_worker(worker_id)
                    shard = ShardWorker(worker, self._network)
                    self._workers.append(worker)
                    self._worker_ids.append(worker_id)
                    self._shards.append(shard)
                    added.append(worker_id)
                    self._network.attach(shard.shell)
                    worker.session_close_listener = self._router.note_session_closed
            except BaseException:
                # Unwind the partial additions so the runtime stays at its
                # previous size and a retry starts clean.
                for worker_id in added:
                    self._detach_worker(worker_id)
                raise
            self._router.set_workers(self._shards, self._worker_ids)
            self._record_scale("grow", current, workers)
            return
        self._start_drain(self._check_victims(workers, victims), current, workers)

    def _detach_worker(self, worker_id: int) -> None:
        """Take a pool member's shell off the network, folding its
        measurements and record errors into the runtime aggregate."""
        assert self._network is not None
        position = self._worker_ids.index(worker_id)
        self._worker_ids.pop(position)
        shard = self._shards.pop(position)
        self._network.detach(shard.shell)
        self._close_shard(shard)
        self._retire_worker(self._workers.pop(position))

    def _check_victims(
        self, target: int, victims: Optional[Sequence[int]]
    ) -> List[int]:
        """Validate (or default) the victim ids of a shrink to ``target``."""
        needed = len(self._workers) - target
        if victims is None:
            return list(self._worker_ids[target:])
        victims = list(victims)
        if len(victims) != needed:
            raise ConfigurationError(
                f"shrinking {len(self._workers)} -> {target} workers needs "
                f"{needed} victims, got {len(victims)}"
            )
        if len(set(victims)) != len(victims):
            raise ConfigurationError(f"duplicate victim ids {victims!r}")
        unknown = set(victims) - set(self._worker_ids)
        if unknown:
            raise ConfigurationError(
                f"unknown victim worker ids {sorted(unknown)!r}"
            )
        return victims

    def _start_drain(self, victims: List[int], before: int, target: int) -> None:
        """Begin the asynchronous drain of ``victims``."""
        assert self._router is not None and self._network is not None
        self._drain_victims = victims
        self._drain_deadline = self._network.now() + self.drain_timeout
        self._drain_unwind = None
        self._router.begin_drain(victims)
        self._record_scale("drain-start", before, target)
        self._network.call_later(self.drain_poll_interval, self._drain_step)

    def remove_worker(self, worker_id: int) -> None:
        """Drain and retire one **arbitrary** worker, loss-free.

        Sugar for ``scale_to(worker_count - 1, victims=[worker_id])``: the
        ring stops routing new keys to the worker immediately, its pinned
        sessions are served to completion (keyed traffic via the sticky
        table, keyless legs via fan-out), and only then is it detached —
        regardless of where in the pool it sits.  This is the hook a
        failure detector uses to retire the worker on a failing host.
        """

        def remove() -> None:
            if worker_id not in self._worker_ids:
                raise ConfigurationError(f"no worker with id {worker_id!r} to remove")
            self._resize(len(self._workers) - 1, [worker_id])

        self._membership_change(remove)

    def replace_worker(self, worker_id: int) -> int:
        """Swap one worker for a fresh engine, loss-free; returns the new id.

        Grows the pool by one (the newcomer starts taking new keys at
        once), then starts draining exactly ``worker_id`` — so capacity
        never dips below the original pool size while the old worker
        finishes its pinned sessions.  The drain completes asynchronously
        (``scaling_in_progress``).  If it is cancelled (the victim is
        still busy after :attr:`drain_timeout`), the drain step retires
        the *newcomer* again — a wedged victim must not inflate the pool
        by one worker per retry.
        """
        return self._membership_change(partial(self._replace, worker_id))

    def _replace(self, worker_id: int) -> int:
        if self._router is None or self._network is None:
            raise ConfigurationError("replace_worker requires a deployed runtime")
        if worker_id not in self._worker_ids:
            raise ConfigurationError(
                f"no worker with id {worker_id!r} to replace"
            )
        current = len(self._workers)
        before = set(self._worker_ids)
        self._resize(current + 1, None)
        (new_id,) = set(self._worker_ids) - before
        self._resize(current, [worker_id])
        self._drain_unwind = new_id
        return new_id

    @property
    def scaling_in_progress(self) -> bool:
        """True while a drain (asynchronous scale-down) is running."""
        return self._drain_victims is not None

    def _record_scale(self, kind: str, before: int, after: int) -> None:
        now = self._network.now() if self._network is not None else 0.0
        self.scale_events.append(ScaleEvent(now, kind, before, after))
        if self.journal is not None:
            self.journal.append(
                "scale", at=now, scale=kind, workers_before=before,
                workers_after=after,
            )

    def _worker_drained(self, worker_id: int) -> bool:
        """No in-flight sessions, no sticky pins and no queued records on
        worker ``worker_id``.

        Evaluated on the event thread, where no record is ever mid-flight,
        so the three reads are exact together: a record queued but not yet
        done opening its session cannot slip between them.
        """
        assert self._router is not None
        position = self._worker_ids.index(worker_id)
        return (
            not self._workers[position].active_sessions
            and not self._shards[position].queue_depth
            and not self._router.drain_pending(worker_id)
        )

    def _retire_worker(self, worker: AutomataEngine) -> None:
        """Fold a drained worker's measurements into the runtime aggregate.

        Completed :class:`SessionRecord` lists and drop counters must
        survive the worker's detachment — a loss-free resize would
        otherwise *look* lossy in the statistics.
        """
        worker.session_close_listener = None
        self._retired_sessions.extend(worker.sessions)
        self._retired_evicted.extend(worker.evicted_sessions)
        self._retired_parse_failures.extend(worker.parse_failures)
        self._retired.update(sourced(ENGINE, worker))

    def _drain_step(self) -> None:
        """One drain-completion check, rescheduling itself until done.

        The only drain loop, on either runtime.  Victims are retired *as
        they empty* (identity membership means compacting the list never
        disturbs the survivors' sticky entries); the chain stops once
        every victim is gone, so simulations quiesce — or at the
        deadline, which cancels the drain: the ring takes every remaining
        worker back, and a replacement's newcomer is drained out again.
        """
        victims = self._drain_victims
        if victims is None or self._network is None or self._router is None:
            return
        before = len(self._workers)
        remaining: List[int] = []
        for worker_id in victims:
            if self._worker_drained(worker_id):
                self._detach_worker(worker_id)
            else:
                remaining.append(worker_id)
        if remaining and self._network.now() < self._drain_deadline:
            self._drain_victims = remaining
            self._network.call_later(self.drain_poll_interval, self._drain_step)
            return
        unwind = self._drain_unwind
        self._drain_victims = self._drain_unwind = None
        # Settles the retired victims out of the membership and, for a
        # cancelled drain, clears the drain marks (a ``cancel_drain``).
        self._router.set_workers(self._shards, self._worker_ids)
        if not remaining:
            self._record_scale("drain-complete", before, len(self._workers))
            return
        self._record_scale("drain-cancelled", before, len(self._workers))
        if unwind in self._worker_ids:
            count = len(self._workers)
            self._start_drain([unwind], count, count - 1)

    # ------------------------------------------------------------------
    # introspection / aggregated statistics
    # ------------------------------------------------------------------
    @property
    def router(self) -> Optional[ShardRouter]:
        return self._router

    @property
    def workers(self) -> List[AutomataEngine]:
        return list(self._workers)

    @property
    def worker_ids(self) -> List[int]:
        """The stable ids of the current pool, in pool order."""
        return list(self._worker_ids)

    @property
    def worker_count(self) -> int:
        return len(self._workers)

    @property
    def sessions(self) -> List[SessionRecord]:
        """Completed sessions across all workers (drain-retired workers
        included), in completion order."""
        records = [record for worker in self._workers for record in worker.sessions]
        records.extend(self._retired_sessions)
        records.sort(key=lambda record: record.finished_at)
        return records

    @property
    def evicted_sessions(self) -> List[SessionRecord]:
        records = [
            record for worker in self._workers for record in worker.evicted_sessions
        ]
        records.extend(self._retired_evicted)
        records.sort(key=lambda record: record.finished_at)
        return records

    @property
    def active_session_count(self) -> int:
        return sum(len(worker.active_sessions) for worker in self._workers)

    def total(self, key: str) -> int:
        """Lifetime total of an ``ENGINE``-sourced worker counter, or of
        ``router_`` + a ``ROUTER``-sourced router counter — conserved
        through drains, replacements and undeploy (retirees included)."""
        if key.startswith("router_"):
            router = self._router
            live = getattr(router, key[len("router_"):]) if router is not None else 0
        else:
            live = sum(getattr(worker, key) for worker in self._workers)
        return self._retired[key] + live

    @property
    def unrouted_datagrams(self) -> int:
        """Datagrams neither the router nor any worker could place."""
        return self.total("router_unrouted_datagrams") + self.total("unrouted_datagrams")

    @property
    def ignored_datagrams(self) -> int:
        return self.total("ignored_datagrams")

    @property
    def parse_failures(self) -> List:
        """Parse failures across the router edge and every worker."""
        router_failures = (
            list(self._router.parse_failures) if self._router is not None else []
        )
        return (
            self._retired_parse_failures
            + router_failures
            + [
                failure
                for worker in self._workers
                for failure in worker.parse_failures
            ]
        )

    @property
    def discriminator_hits(self) -> int:
        """Worker-side one-probe classifications (drain-retired included)."""
        return self.total("discriminator_hits")

    @property
    def discriminator_misses(self) -> int:
        """Worker-side trial-parse fallbacks (drain-retired included);
        edge classifies are counted on the router, never here."""
        return self.total("discriminator_misses")

    @property
    def garbage_rejects(self) -> int:
        """Worker-side discriminator-only rejects (drain-retired included)."""
        return self.total("garbage_rejects")

    @property
    def router_discriminator_hits(self) -> int:
        """Router-edge one-probe classifications (undeploy-retired included)."""
        return self.total("router_discriminator_hits")

    @property
    def router_discriminator_misses(self) -> int:
        """Router-edge trial-parse fallbacks (undeploy-retired included)."""
        return self.total("router_discriminator_misses")

    @property
    def router_garbage_rejects(self) -> int:
        """Router-edge discriminator-only rejects (undeploy-retired included).

        Together with the worker-side properties this keeps the classify
        outcomes a conserved sum: every datagram any classify rejected is
        in exactly one of router/worker x hits/misses/rejects, through
        drains, replacements and full teardown.
        """
        return self.total("router_garbage_rejects")

    def worker_session_counts(self) -> List[int]:
        """Completed sessions per worker (the shard-balance view)."""
        return [len(worker.sessions) for worker in self._workers]

    # ------------------------------------------------------------------
    # metrics plane
    # ------------------------------------------------------------------
    def _shard(self, worker_id: int) -> ShardWorker:
        if self._network is None or worker_id not in self._worker_ids:
            raise ConfigurationError(f"no deployed worker with id {worker_id!r}")
        return self._shards[self._worker_ids.index(worker_id)]

    def ping_workers(self, skew: Optional[Mapping[int, float]] = None) -> None:
        """Probe every worker's liveness once (the health controller's
        heartbeat probe).

        Each ping is a record posted after ``skew``'s extra seconds for
        its worker id (a clock-skewed timer, 0 by default) and stamps the
        worker's heartbeat when it runs: at once on a healthy worker, only
        after the pause on a wedged one, whose heartbeat goes stale.
        """
        network = self._network
        if network is None:
            return
        for worker_id, shard in zip(self._worker_ids, self._shards):
            delay = skew.get(worker_id, 0.0) if skew else 0.0
            network.call_later(delay, shard.ping)

    def wedge_worker(self, worker_id: int, seconds: float) -> None:
        """Fault injection: pause one worker for ``seconds``.

        The wedge is a record: once it runs, the worker's later records
        (deliveries, fan-out passes, pings, its own timers) queue until
        the pause ends and then run in order, so nothing is lost — while
        every other worker and the control plane keep running.  The detector must notice the
        stale heartbeat, the queue and the busy backlog, and replace the
        worker.  Callable from any thread.
        """
        if seconds < 0:
            raise ConfigurationError(f"cannot wedge for {seconds!r} seconds")
        shard = self._shard(worker_id)
        pause = partial(shard.post, partial(shard.pause, seconds))
        self._network.call_later(0.0, pause)

    @property
    def worker_errors(self) -> List[BaseException]:
        """Exceptions raised by any worker's records (empty on a clean run).

        Survives :meth:`undeploy`, so a scenario can tear the deployment
        down before asserting the run was clean.
        """
        return self._worker_error_log + [
            error for shard in self._shards for error in shard.errors
        ]

    def _worker_metrics(
        self,
        index: int,
        worker: AutomataEngine,
        now: float,
        draining: bool,
        worker_id: int,
    ) -> WorkerMetrics:
        """One worker's load row: the engine's counters plus its records'
        queue depth, errors, heartbeat age and busy backlog."""
        shard = self._shards[index]
        recorder = self.tracer.find(worker.name)
        return WorkerMetrics(
            index=index,
            name=worker.name,
            active_sessions=len(worker.active_sessions),
            completed_sessions=len(worker.sessions),
            evicted_sessions=len(worker.evicted_sessions),
            busy_backlog=shard.busy_backlog(now),
            draining=draining,
            queue_depth=shard.queue_depth,
            worker_id=worker_id,
            errors=len(shard.errors),
            heartbeat_age=shard.heartbeat_age(now),
            spans_dropped=recorder.dropped if recorder is not None else 0,
            span_seq_high=recorder.seq_high if recorder is not None else 0,
            **sourced(ENGINE, worker),
        )

    def latency_baseline(self) -> Dict[str, tuple]:
        """Per-stage histogram snapshots to window :meth:`stage_latency` on.

        Take one before the interval you care about and pass it back as
        ``since=``: the rows then describe only the records made after
        the baseline.  The snapshots are plain tuples (cheap to hold,
        impossible to mutate), merged across every recorder.
        """
        return {
            stage: hist.snapshot()
            for stage, hist in self.tracer.stage_histograms().items()
        }

    def stage_latency(
        self, since: Optional[Dict[str, tuple]] = None
    ) -> List[StageLatency]:
        """Per-stage latency rows from the tracer's always-on histograms.

        Aggregated across the router and every worker recorder (retired
        recorders included — the tracer outlives deployments), listing
        only stages that observed at least one sample, in pipeline order.
        Works on an undeployed runtime, so a scenario can harvest after
        teardown.

        **Windowing:** by default the quantiles are cumulative since the
        tracer's creation — which conflates warmup with steady state, so
        a p99 taken mid-run still carries the first cold parses.  Pass
        ``since=`` (a :meth:`latency_baseline` taken earlier) to get rows
        for just that window; the :class:`~repro.obs.timeseries
        .MetricsCollector` publishes per-worker windowed quantiles the
        same way, one window at a time.
        """
        rows: List[StageLatency] = []
        for stage, hist in self.tracer.stage_histograms().items():
            if since is not None:
                hist = hist.delta(since.get(stage))
            if hist.count == 0:
                continue
            rows.append(
                StageLatency(
                    stage=stage,
                    count=hist.count,
                    total_seconds=hist.total_seconds,
                    p50=hist.percentile(0.5),
                    p95=hist.percentile(0.95),
                    p99=hist.percentile(0.99),
                )
            )
        return rows

    def trace_export(self) -> Dict[str, Any]:
        """Structured JSON export of every captured span, as trees.

        See :func:`repro.obs.tracing.export_traces`; usable before or
        after :meth:`undeploy` (the tracer and its rings outlive the
        deployment).
        """
        return export_traces(self.tracer)

    def metrics(self, include_latency: bool = True) -> ShardMetrics:
        """One coherent :class:`ShardMetrics` snapshot of the deployment.

        Requires a deployed runtime (the router's counters are part of the
        snapshot); the autoscaler consumes these.  ``include_latency=False``
        skips the merged :meth:`stage_latency` table — merging every
        recorder's histograms dominates the snapshot's cost, and periodic
        consumers like the :class:`~repro.obs.timeseries.MetricsCollector`
        publish per-recorder windowed quantiles instead.
        """
        if self._router is None or self._network is None:
            raise ConfigurationError("metrics() requires a deployed runtime")
        now = self._network.now()
        draining_ids = self._router.draining_ids
        workers = tuple(
            self._worker_metrics(
                index,
                worker,
                now,
                draining=self._worker_ids[index] in draining_ids,
                worker_id=self._worker_ids[index],
            )
            for index, worker in enumerate(self._workers)
        )
        return ShardMetrics(
            at=now,
            workers=workers,
            router=self._router.metrics(),
            active_workers=self._router.active_worker_count,
            latency=tuple(self.stage_latency()) if include_latency else (),
        )

    def __repr__(self) -> str:
        deployed = "deployed" if self._router is not None else "not deployed"
        return (
            f"ShardedRuntime({self.merged.name!r}, workers={len(self._workers)}, "
            f"{deployed})"
        )
