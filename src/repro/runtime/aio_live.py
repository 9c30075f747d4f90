"""Live sharded deployment: worker tasks on one event loop, real sockets.

:class:`~repro.runtime.runtime.ShardedRuntime` proves the sharding design
on the discrete-event simulation, where every hand-off is an event on one
virtual clock.  This module deploys the *same objects* — the same read-only
merged automaton, the same worker :class:`AutomataEngine` instances, the
same sticky :class:`~repro.runtime.sharding.HashRing` routing — on an
:class:`~repro.network.aio.AsyncSocketNetwork`, where traffic is real
UDP/TCP datagrams on the loopback interface and time is the wall clock:

* every worker engine becomes an :class:`AsyncWorkerLoop` — a task on the
  network's event loop draining an ``asyncio.Queue``.  All datagram
  dispatch, routing, fan-out and engine timers run on that **one loop
  thread**, which gives the single invariant the module rests on: *worker
  and router state is touched only on the event-loop thread*;
* the :class:`AsyncShardRouter` routes inline on the loop (datagrams are
  delivered there by the network), posts keyed deliveries to the owning
  worker's queue, and runs fan-out passes (multicast on a non-initial
  colour group, later client legs such as a UPnP control point's HTTP GET)
  inline — the strict pass over every shard must finish before the lenient
  pass starts.  No lock is taken per datagram;
* timers the engines set (eviction sweeps, delayed sends re-entering the
  engine) are re-routed onto the owning worker's queue by a per-worker
  **engine view**, so a worker's jobs stay serialised by its queue;
* **membership changes run on the loop too.**  ``scale_to`` /
  ``remove_worker`` / ``replace_worker`` use the simulated runtime's own
  drain — :meth:`~repro.runtime.runtime.ShardedRuntime._drain_step`, a
  self-rescheduling timer — so the autoscaler, failure detector and
  telemetry collector tick on the loop's timer as well, and a live
  deployment is exactly one thread including its control plane.  Called
  from another thread (a script, a test, the chaos harness), a change is
  marshalled onto the loop once and the caller then waits for the drain
  to finish; ``undeploy`` and off-loop ``metrics`` reads are marshalled
  the same way.

A worker job may return an awaitable, which the drain task awaits — this
is how :meth:`AsyncLiveShardedRuntime.wedge_worker` stalls *one* worker
(its queue backs up, its heartbeat goes stale) while the shared loop keeps
serving every other worker; a blocking ``time.sleep`` job would wedge the
whole fleet.

Translated outputs are byte-identical to the simulated deployment at any
shard count: workers advertise the router's public endpoints in
translation context either way, and ``--table live-sharding`` asserts the
equality against a simulated twin of the same topology.  ``uvloop``, when
installed, accelerates the underlying network's loop; the runtime is
agnostic.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from dataclasses import replace
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, TypeVar

from ..core.engine.automata_engine import AutomataEngine
from ..core.errors import ConfigurationError, EngineError
from ..network.addressing import Endpoint
from ..network.aio import AsyncSocketNetwork
from ..network.engine import NetworkEngine, NetworkNode
from ..obs.tracing import STAGE_QUEUE_WAIT, Tracer
from .metrics import WorkerMetrics
from .router import ShardRouter
from .runtime import DEFAULT_WORKERS, ShardedRuntime

__all__ = ["AsyncWorkerLoop", "AsyncShardRouter", "AsyncLiveShardedRuntime"]

#: Sentinel shutting a worker loop down.
_STOP = object()

#: Default port distance between the router's public range and each
#: worker's range on the socket engine, where everything shares one real
#: host address and only ports distinguish the nodes.
DEFAULT_WORKER_PORT_STRIDE = 16

#: Seconds :meth:`AsyncLiveShardedRuntime.undeploy` waits for each worker
#: task to drain and exit before recording the straggler as an error.
UNDEPLOY_JOIN_TIMEOUT = 5.0

#: Seconds a control-plane call waits for the event loop before running
#: directly (a wedged loop must not blind the control plane).
CONTROL_MARSHAL_TIMEOUT = 5.0

_T = TypeVar("_T")


def _on_loop(network: AsyncSocketNetwork, fn: Callable[[], _T]) -> _T:
    """Run ``fn`` on ``network``'s event-loop thread and return its result.

    Calls already on the loop (or after it stopped) run inline.  If the
    loop fails to pick the call up in time (a foreign blocking job has
    wedged it), the call falls back to executing directly — a racy
    snapshot beats a blind control plane exactly when a failure detector
    needs one.
    """
    if network.on_loop_thread() or not network._thread.is_alive():
        return fn()

    async def _call() -> _T:
        return fn()

    future = asyncio.run_coroutine_threadsafe(_call(), network.loop)
    try:
        return future.result(timeout=CONTROL_MARSHAL_TIMEOUT)
    except concurrent.futures.TimeoutError:
        if future.cancel():
            return fn()
        return future.result(timeout=CONTROL_MARSHAL_TIMEOUT)


class _WorkerEngineView(NetworkEngine):
    """The network engine as one worker sees it: sends pass through,
    callbacks come home.

    ``call_later`` re-posts the callback onto the worker's queue when the
    delay expires, so everything the engine schedules (eviction sweeps)
    executes as one of the worker's own jobs.
    """

    def __init__(self, network: NetworkEngine, loop: "AsyncWorkerLoop") -> None:
        self._network = network
        self._loop = loop

    def now(self) -> float:
        return self._network.now()

    def send(
        self,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
        delay: float = 0.0,
    ) -> None:
        self._network.send(data, source=source, destination=destination, delay=delay)

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        self._network.call_later(delay, lambda: self._loop.post(callback))

    @property
    def kernel_ephemeral_ports(self) -> bool:
        """Whether the substrate assigns ephemeral ports itself (bind to 0)."""
        return bool(getattr(self._network, "kernel_ephemeral_ports", False))

    def bind_endpoint(self, node: NetworkNode, endpoint: Endpoint):
        """Bind a per-session ephemeral endpoint, datagrams coming home.

        The socket is registered to the loop's forwarder node, so replies
        received on it are posted onto the worker's queue instead of
        running the engine inside the socket reader.  Returns the
        actually-bound :class:`Endpoint`, or ``None`` when the substrate
        cannot bind late.
        """
        bind = getattr(self._network, "bind_endpoint", None)
        if bind is None:
            return None
        return bind(self._loop.forwarder, endpoint)

    def unbind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> None:
        unbind = getattr(self._network, "unbind_endpoint", None)
        if unbind is not None:
            unbind(self._loop.forwarder, endpoint)

    def attach(self, node: NetworkNode) -> None:  # pragma: no cover - delegation
        self._network.attach(node)

    def detach(self, node: NetworkNode) -> None:  # pragma: no cover - delegation
        self._network.detach(node)


class _LoopForwarder(NetworkNode):
    """Owner of a worker's late-bound (ephemeral) sockets: every datagram
    received on them is posted onto the worker's queue."""

    _SUFFIX = "ephemeral"

    def __init__(self, loop: "AsyncWorkerLoop") -> None:
        self._loop = loop
        self.name = f"{loop.worker.name}.{self._SUFFIX}"

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        loop = self._loop
        loop.post(
            lambda: loop.worker.on_datagram(loop.view, data, source, destination)
        )


class AsyncWorkerLoop:
    """One worker engine's event loop: an ``asyncio.Queue`` drained by a
    task on the network's loop.

    Keyed deliveries, upstream datagrams and engine timers for the worker
    execute as queue jobs on the shared loop thread, serialised per worker
    by the queue and globally by the loop.  The loop runs no thread of its
    own; the router, the runtime and its controllers post to it, and
    off-loop readers (the metrics plane's worker rows) read its counters.
    """

    def __init__(self, worker: AutomataEngine, network: NetworkEngine) -> None:
        if not isinstance(network, AsyncSocketNetwork):
            raise ConfigurationError(
                "AsyncWorkerLoop requires an AsyncSocketNetwork "
                f"(got {type(network).__name__})"
            )
        self.worker = worker
        self.network = network
        self._loop = network.loop
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self.view = _WorkerEngineView(network, self)
        #: Node owning this worker's late-bound ephemeral sockets.
        self.forwarder = _LoopForwarder(self)
        #: Exceptions raised by jobs (fail loudly in tests, keep serving).
        self.errors: List[BaseException] = []
        self.jobs_executed = 0
        #: ``time.monotonic()`` of the last job this loop *finished* (the
        #: same clock as ``AsyncSocketNetwork.now()``, so snapshot ages are
        #: a plain subtraction).  Written only on the loop thread, read
        #: from any: a wedged worker cannot be asked politely, so the
        #: liveness signal must not need its cooperation.
        self.heartbeat_at = time.monotonic()
        self._task: Optional["asyncio.Task"] = None
        self._finished = threading.Event()
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.heartbeat_at = time.monotonic()

        def _start() -> None:
            self._task = self._loop.create_task(self._run())

        if self.network.on_loop_thread():
            _start()
        else:
            self._loop.call_soon_threadsafe(_start)

    def stop(self) -> None:
        """Ask the drain task to exit once the queued jobs have drained."""
        if self._started:
            self._put(_STOP)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the drain task to exit; ``True`` if it did.

        Call after :meth:`stop`: the task drains every job queued before
        the stop sentinel, so :attr:`errors` is complete once this returns
        ``True``.
        """
        if not self._started:
            return True
        if self.network.on_loop_thread():
            # The loop thread cannot wait on itself; the task exits when
            # the stop sentinel drains.
            return self._finished.is_set()
        return self._finished.wait(timeout)

    def post(self, job: Callable[[], None], trace: int = 0) -> None:
        """Enqueue ``job`` on the worker's queue, from any thread.

        ``trace`` is the :mod:`repro.obs` trace id of the datagram the job
        delivers (0 for timers and untraced traffic); the loop measures
        queue wait — post to dequeue — for every job into the worker's
        stage histograms, and emits a span when the trace is sampled.
        """
        self._put((job, trace, perf_counter()))

    def _put(self, item: object) -> None:
        if self.network.on_loop_thread():
            self._queue.put_nowait(item)
        else:
            try:
                self._loop.call_soon_threadsafe(self._queue.put_nowait, item)
            except RuntimeError:
                pass  # loop closed mid-teardown: the job has no home

    @property
    def queue_depth(self) -> int:
        """Jobs waiting in the queue (approximate; a metrics signal)."""
        return self._queue.qsize()

    async def _run(self) -> None:
        try:
            while True:
                item = await self._queue.get()
                if item is _STOP:
                    return
                job, trace, posted = item
                dequeued = perf_counter()
                recorder = getattr(self.worker, "_recorder", None)
                if recorder is not None:
                    recorder.record_wait(trace, STAGE_QUEUE_WAIT, posted, dequeued)
                try:
                    result = job()
                    if result is not None and hasattr(result, "__await__"):
                        # An awaitable job (a wedge's asyncio.sleep) stalls
                        # only this worker's queue; the loop keeps serving.
                        await result
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 - keep the loop alive
                    self.errors.append(exc)
                finally:
                    self.jobs_executed += 1
                self.heartbeat_at = time.monotonic()
        finally:
            self._finished.set()


class _WorkerShell(_LoopForwarder):
    """The node actually attached to the socket engine for one worker.

    It owns the worker's unicast endpoints (so upstream replies land on
    real sockets) but forwards every datagram onto the worker's queue, as
    its ephemeral sockets' forwarder does; the worker engine itself never
    runs inside the socket reader.
    """

    _SUFFIX = "shell"

    def unicast_endpoints(self) -> List[Endpoint]:
        return self._loop.worker.unicast_endpoints()

    def multicast_groups(self) -> List[Endpoint]:
        # Workers behind a router never join groups; the router owns them.
        return []

    def on_attached(self, engine: NetworkEngine) -> None:
        self._loop.worker.on_attached(self._loop.view)


class AsyncShardRouter(ShardRouter):
    """The shard router on the event loop: same routing, real sockets.

    The routing logic — classify once, sticky consistent-hash placement,
    strict-then-lenient fan-out, worker-echo drop — is inherited unchanged
    from :class:`~repro.runtime.router.ShardRouter`.  Datagrams are
    delivered by the :class:`AsyncSocketNetwork` on its loop thread and
    routed inline; keyed deliveries are posts to the owning worker's
    :class:`AsyncWorkerLoop` queue (the live analogue of the simulation's
    fresh ``call_later`` event per hand-off), fan-out runs inline — all on
    one thread, so routing state needs no lock.  Membership calls
    (``set_workers``, drain bookkeeping, the loop registry) come from the
    runtime's drain, which runs on the loop as well; only :meth:`metrics`
    still has off-loop callers, so only it is marshalled.
    """

    def __init__(
        self,
        workers: Sequence[AutomataEngine],
        public_endpoints: Dict[str, Endpoint],
        loops: Sequence[AsyncWorkerLoop],
        name: str = "live-shard-router",
        prune_interval: float = 15.0,
        worker_ids: Optional[Sequence[int]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not loops:
            raise ConfigurationError("a live shard router needs at least one loop")
        self._aio: AsyncSocketNetwork = loops[0].network
        self._loops: Dict[int, AsyncWorkerLoop] = {
            id(loop.worker): loop for loop in loops
        }
        super().__init__(
            workers,
            public_endpoints,
            hop_delay=0.0,
            prune_interval=prune_interval,
            name=name,
            worker_ids=worker_ids,
            tracer=tracer,
        )

    def _loop_for(self, worker: AutomataEngine) -> AsyncWorkerLoop:
        try:
            return self._loops[id(worker)]
        except KeyError:
            raise ConfigurationError(
                f"worker '{worker.name}' has no live worker loop"
            ) from None

    # -- control plane ---------------------------------------------------
    def add_loop(self, loop: AsyncWorkerLoop) -> None:
        """Register a freshly-started worker loop (live scale-up)."""
        self._loops[id(loop.worker)] = loop

    def remove_loop(self, loop: AsyncWorkerLoop) -> None:
        """Forget a drained worker's loop (live scale-down)."""
        self._loops.pop(id(loop.worker), None)

    def metrics(self):
        return _on_loop(self._aio, lambda: ShardRouter.metrics(self))

    # -- hot path: loop-thread only ---------------------------------------
    def _hand_off(
        self,
        engine: NetworkEngine,
        worker,
        deliver,
        delay: float = 0.0,
        trace: int = 0,
    ) -> None:
        # ``delay`` (the simulated routing_delay charge) is ignored: on
        # real sockets the router's cost is *measured* wall time, not a
        # modelled virtual charge.  The trace rides on the posted job so
        # the worker loop attributes the real queue wait to it (the base
        # class's virtual-clock wait measurement never runs here).
        if worker is not None:
            self._loop_for(worker).post(deliver, trace)
        else:
            # Fan-out: the strict pass over all shards must finish before
            # the lenient pass starts, so it cannot be split across worker
            # queues; it runs here, inline.
            deliver()

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
        try:
            loop = self._loop_for(worker)
        except ConfigurationError:
            # Defence in depth for fan-out racing a teardown: a pass that
            # captured a worker whose loop has since been removed treats
            # that (empty, drained) worker as a decline and carries on to
            # the next shard, mirroring the simulated router's behaviour
            # for detached engines.
            return False
        return worker.dispatch(
            loop.view,
            automaton_name,
            message,
            source,
            count_unrouted=False,
            strict=strict,
            trace=trace,
        )

    def note_session_closed(self, key) -> None:
        """Unpin ``key`` at once instead of at the next routed datagram.

        Worker jobs run on the loop thread, which *is* the routing thread,
        so the flush the base class defers is safe immediately — an idle
        bridge then reports ``sticky_entries == 0`` rather than its last
        sessions' pins until the next datagram or prune.  A close reported
        from any other thread (a control-plane reset) is still only queued.
        """
        self._closed_keys.append(key)
        if self._aio.on_loop_thread():
            self._flush_closed_keys()


class AsyncLiveShardedRuntime(ShardedRuntime):
    """A sharded bridge deployment on real loopback sockets.

    Construction mirrors :class:`~repro.runtime.runtime.ShardedRuntime`
    (same models, same worker build), with socket-engine defaults:

    * ``host`` defaults to ``127.0.0.1`` — on the socket engine hosts are
      real addresses, so router and workers share the loopback host and
      are distinguished by **port ranges**: the router's public endpoints
      sit at ``base_port``, worker *i* claims ``base_port + (i+1) *
      worker_port_stride``;
    * ``ephemeral_ports`` defaults **on**: ``AsyncSocketNetwork
      .bind_endpoint`` binds kernel-assigned UDP ports after attach, so
      token-less upstream legs send from per-session source ports and
      their replies are attributed exactly (TCP legs keep the
      reply-channel attribution);
    * ``serialize_processing`` defaults on, so ``processing_delay`` models
      each worker's translation compute as a serial resource in *wall
      time* — the modelled scheduling demo ``--table live-sharding`` runs.

    :meth:`deploy` starts one :class:`AsyncWorkerLoop` task per worker and
    attaches an :class:`AsyncShardRouter`; :meth:`undeploy` stops them.
    Resizing is the simulated runtime's, on the loop (see
    :meth:`_membership_change` for the calling convention).
    Deploys exclusively on an :class:`~repro.network.aio.AsyncSocketNetwork`
    (see ``examples/live_sharded_bridge.py`` for a complete run)::

        runtime = AsyncLiveShardedRuntime.from_bridge(bridge, workers=4)
        with AsyncSocketNetwork() as network:
            runtime.deploy(network)
            ...   # real legacy clients talk to the router's endpoints
            runtime.undeploy()
    """

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("host", "127.0.0.1")
        kwargs.setdefault("worker_port_stride", DEFAULT_WORKER_PORT_STRIDE)
        kwargs.setdefault("ephemeral_ports", True)
        kwargs.setdefault("serialize_processing", True)
        super().__init__(*args, **kwargs)
        if self.worker_port_stride < len(self.merged.automata):
            raise ConfigurationError(
                "worker_port_stride must cover one port per component automaton "
                f"({len(self.merged.automata)} needed, got {self.worker_port_stride})"
            )
        if self.routing_delay > 0.0:
            raise ConfigurationError(
                "routing_delay models router compute on the simulated virtual "
                "clock; on the live runtime the cost is *measured* (classify "
                "seconds) — a charge cannot be applied to real sockets, so "
                "rejecting it beats silently ignoring it"
            )
        self._loops: List[AsyncWorkerLoop] = []
        self._shells: List[_WorkerShell] = []
        #: Worker-loop exceptions from retired loops and undeployed
        #: generations, preserved so post-run inspection survives the
        #: teardown in scenario drivers.
        self._worker_error_log: List[BaseException] = []

    @classmethod
    def from_bridge(cls, bridge, workers: int = DEFAULT_WORKERS, **overrides):
        """Build a live runtime from an (undeployed) bridge.

        Unlike the simulated runtime this *does not* inherit the bridge's
        ``host``: model-level bridge hosts (``starlink.bridge``) are not
        bindable addresses, so the live runtime rebinds the public
        endpoints at ``127.0.0.1`` (same ``base_port``) unless ``host`` is
        overridden explicitly.  Per-session ephemeral source ports are on
        by default, so token-less legs get exact reply attribution live,
        as on the simulation.
        """
        overrides.setdefault("host", "127.0.0.1")
        return super().from_bridge(bridge, workers=workers, **overrides)

    # ------------------------------------------------------------------
    def deploy(self, network: NetworkEngine) -> AsyncShardRouter:
        """Start the worker loops and attach shells + router to ``network``.

        All-or-nothing: if any attach fails (an endpoint already bound,
        say), the worker tasks already started and the shells already
        attached are torn back down before the error propagates, so a
        failed deploy leaks nothing and a retry starts clean.
        """
        if self._router is not None:
            raise ConfigurationError(
                f"live sharded runtime '{self.merged.name}' is already deployed"
            )
        if not isinstance(network, AsyncSocketNetwork):
            raise ConfigurationError(
                "AsyncLiveShardedRuntime deploys on an AsyncSocketNetwork; "
                f"got {type(network).__name__}"
            )
        # Live spans sit on the wall clock: stage durations and timeline
        # positions share one domain here (unlike the simulation, where
        # positions are virtual seconds).
        self.tracer.use_clock(perf_counter, "perf_counter")
        loops = [AsyncWorkerLoop(worker, network) for worker in self._workers]
        shells = [_WorkerShell(loop) for loop in loops]
        router: Optional[AsyncShardRouter] = None
        try:
            for loop, shell in zip(loops, shells):
                loop.start()
                network.attach(shell)
            router = AsyncShardRouter(
                self._workers,
                self.public_endpoints,
                loops,
                name=f"live-router:{self.merged.name}",
                worker_ids=self._worker_ids,
                tracer=self.tracer,
            )
            network.attach(router)
            for worker in self._workers:
                worker.session_close_listener = router.note_session_closed
        except BaseException:
            # Detach the router and every shell, not only fully-attached
            # nodes: an attach that raised mid-bind left its node
            # registered on the network with some endpoints live, and
            # detach is a no-op for never-attached nodes.
            if router is not None:
                network.detach(router)
            for shell in shells:
                network.detach(shell)
            self._shutdown_loops(loops)
            raise
        self._loops = loops
        self._shells = shells
        self._router = router
        self._network = network
        return router

    def undeploy(self) -> None:
        """Detach from the network and stop the worker tasks.

        The detach runs on the loop, in one step: a controller tick sees
        either the whole deployment or none of it.  Each worker task is
        then joined (bounded by :data:`UNDEPLOY_JOIN_TIMEOUT`) after the
        stop sentinel is queued, so jobs still draining finish — and their
        exceptions land in :attr:`worker_errors` — before the runtime
        reports itself torn down.  A loop that fails to exit in time is
        surfaced as a ``RuntimeError`` in the error log rather than
        silently abandoned.
        """

        def detach() -> List[AsyncWorkerLoop]:
            network, router, loops = self._network, self._router, self._loops
            if network is not None:
                if router is not None:
                    network.detach(router)
                for shell in self._shells:
                    network.detach(shell)
            for worker in self._workers:
                worker.session_close_listener = None
            if router is not None:
                self._retire_router(router)
            self._loops = []
            self._shells = []
            self._router = None
            self._network = None
            self._drain_victims = None
            return loops

        network = self._network
        loops = detach() if network is None else _on_loop(network, detach)
        self._shutdown_loops(loops)

    def _shutdown_loops(self, loops: Sequence[AsyncWorkerLoop]) -> None:
        """Stop, join and harvest ``loops`` into the worker error log.

        Shared by :meth:`undeploy` and :meth:`deploy`'s failure unwind, so
        exceptions from jobs that drained during teardown — and evidence
        of a worker task that failed to exit — are preserved either way.
        """
        for loop in loops:
            loop.stop()
        for loop in loops:
            if not loop.join(timeout=UNDEPLOY_JOIN_TIMEOUT):
                self._worker_error_log.append(
                    RuntimeError(
                        f"worker loop '{loop.worker.name}' did not exit within "
                        f"{UNDEPLOY_JOIN_TIMEOUT}s of teardown"
                    )
                )
            self._worker_error_log.extend(loop.errors)

    # -- membership: the simulated runtime's, run on the loop -----------
    def _membership_change(self, change: Callable[[], _T]) -> _T:
        """Run a membership change on the loop, where every one runs.

        Called on the loop thread (a controller tick), it returns once
        the change has *started*, exactly like the simulated runtime.
        Called from any other thread (a script, a test, the chaos
        harness), it marshals the change onto the loop once, then waits
        off-loop until the drain it started has finished, raising
        :class:`~repro.core.errors.EngineError` if that drain was
        cancelled at :attr:`drain_timeout` (full ring membership is
        restored and no session is abandoned either way).
        """
        network = self._network
        if network is None or network.on_loop_thread():
            return change()

        def start():
            return len(self.scale_events), change()

        marker, result = _on_loop(network, start)
        while self.scaling_in_progress and network._thread.is_alive():
            time.sleep(self.drain_poll_interval)
        if any(e.kind == "drain-cancelled" for e in self.scale_events[marker:]):
            raise EngineError(
                f"drain did not complete within {self.drain_timeout}s; ring "
                "membership restored, no session was abandoned"
            )
        return result

    def scale_to(self, workers: int, victims: Optional[Sequence[int]] = None) -> None:
        self._membership_change(lambda: ShardedRuntime.scale_to(self, workers, victims))

    def remove_worker(self, worker_id: int) -> None:
        self._membership_change(lambda: ShardedRuntime.remove_worker(self, worker_id))

    def replace_worker(self, worker_id: int) -> int:
        return self._membership_change(
            lambda: ShardedRuntime.replace_worker(self, worker_id)
        )

    def _attach_worker(self, worker: AutomataEngine) -> None:
        """Start the newcomer's loop, register it with the router, then
        attach its shell — all before any new key routes to it."""
        assert self._network is not None and self._router is not None
        loop = AsyncWorkerLoop(worker, self._network)
        self._loops.append(loop)
        self._shells.append(_WorkerShell(loop))
        loop.start()
        self._router.add_loop(loop)
        self._network.attach(self._shells[-1])

    def _detach_worker(self, worker_id: int) -> None:
        """Detach a drained worker's shell and stop its loop.

        Runs on the loop, where the drained worker's queue is known empty:
        the task exits at the stop sentinel without a join, and its
        :attr:`AsyncWorkerLoop.errors` are already complete.
        """
        assert self._network is not None and self._router is not None
        position = self._worker_ids.index(worker_id)
        loop = self._loops.pop(position)
        self._network.detach(self._shells.pop(position))
        super()._detach_worker(worker_id)
        self._router.remove_loop(loop)  # type: ignore[attr-defined]
        loop.stop()
        self._worker_error_log.extend(loop.errors)

    def _worker_drained(self, worker_id: int) -> bool:
        """No sessions, no sticky pins and no queued jobs.

        Evaluated on the event loop, where no job is ever mid-flight (jobs
        are synchronous calls of the drain task), so the three reads are
        exact together: a job dequeued but not yet done creating its
        session cannot slip between them.
        """
        loop = self._loops[self._worker_ids.index(worker_id)]
        return super()._worker_drained(worker_id) and loop.queue_depth == 0

    # ------------------------------------------------------------------
    def post_to_worker(self, worker_id: int, job: Callable[[], None]) -> None:
        """Enqueue ``job`` on one worker's loop (health pings, fault
        injection); raises for an unknown id."""
        if worker_id not in self._worker_ids:
            raise ConfigurationError(f"no worker with id {worker_id!r}")
        self._loops[self._worker_ids.index(worker_id)].post(job)

    def ping_workers(self, skew: Optional[Mapping[int, float]] = None) -> None:
        """Post a no-op job to every worker loop.

        The loops stamp :attr:`AsyncWorkerLoop.heartbeat_at` after *every*
        job, so pinging turns "has this loop made progress lately?" into a
        question idle loops also answer — without pings an idle-but-fine
        loop would look exactly like a wedged one.  The health controller
        calls this once per probe tick.  ``skew`` (a simulated timer
        fault) has nothing to delay here: the loop stamps its own time.
        """
        for loop in list(self._loops):
            loop.post(lambda: None)

    def wedge_worker(self, worker_id: int, seconds: float) -> None:
        """Stall one worker for ``seconds`` without stalling the loop.

        Posts a job returning ``asyncio.sleep(seconds)``: the worker's
        drain task awaits it, so *its* queue backs up and *its* heartbeat
        goes stale — the grey-failure signal the detector scores — while
        every other worker (and the control plane) keeps running, and
        every job posted behind the stall survives to run afterwards.  A
        blocking ``time.sleep`` job would wedge the whole fleet instead.
        """
        if seconds < 0:
            raise ConfigurationError(f"cannot wedge for {seconds!r} seconds")
        self.post_to_worker(worker_id, lambda: asyncio.sleep(seconds))

    def _worker_metrics(self, index, worker, now, draining, worker_id):
        """The live worker row: the engine's counters plus the loop's
        queue depth, error count and heartbeat age.

        Read without marshalling onto the loop: a worker wedged inside a
        job cannot be asked, and a failure detector that waited for it
        would go blind exactly when it matters.  Every field is a single
        attribute or ``len`` read of state only the loop thread writes.
        """
        loop = self._loops[index] if index < len(self._loops) else None
        if loop is None:
            return super()._worker_metrics(index, worker, now, draining, worker_id)
        recorder = self.tracer.find(worker.name)
        return WorkerMetrics(
            index=index,
            name=worker.name,
            active_sessions=len(worker.active_sessions),
            completed_sessions=len(worker.sessions),
            evicted_sessions=len(worker.evicted_sessions),
            busy_backlog=worker.busy_backlog(now),
            draining=draining,
            queue_depth=loop.queue_depth,
            worker_id=worker_id,
            discriminator_misses=worker.discriminator_misses,
            garbage_rejects=worker.garbage_rejects,
            errors=len(loop.errors),
            heartbeat_age=max(0.0, now - loop.heartbeat_at),
            spans_dropped=recorder.dropped if recorder is not None else 0,
            span_seq_high=recorder.seq_high if recorder is not None else 0,
        )

    def metrics(self, include_latency: bool = True):
        """The shard snapshot plus the socket substrate's counters.

        ``network_errors`` is the length of ``AsyncSocketNetwork.errors``
        (handler and timer exceptions, send failures);
        ``tcp_replies_dropped`` counts replies whose client connection had
        already gone away; ``udp_wakeups`` / ``udp_datagrams`` are the UDP
        reader's counters, ``tcp_accepts`` / ``tcp_dials`` the TCP state
        machines'.  All land on the router row — they are
        properties of the shared substrate, not of any one worker.
        """
        snapshot = super().metrics(include_latency=include_latency)
        network = self._network
        return replace(
            snapshot,
            router=replace(
                snapshot.router,
                network_errors=len(network.errors),
                tcp_replies_dropped=network.tcp_replies_dropped,
                udp_wakeups=network.udp_wakeups,
                udp_datagrams=network.udp_datagrams,
                tcp_accepts=network.tcp_accepts,
                tcp_dials=network.tcp_dials,
            ),
        )

    @property
    def worker_errors(self) -> List[BaseException]:
        """Exceptions raised on any worker loop (empty on a clean run).

        Survives :meth:`undeploy`, so a scenario can tear the deployment
        down before asserting the run was clean.
        """
        return self._worker_error_log + [
            error for loop in self._loops for error in loop.errors
        ]

    def __repr__(self) -> str:
        deployed = "deployed" if self._router is not None else "not deployed"
        return (
            f"AsyncLiveShardedRuntime({self.merged.name!r}, "
            f"workers={len(self._workers)}, {deployed})"
        )
