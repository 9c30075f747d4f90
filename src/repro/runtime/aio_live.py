"""Asyncio-native live sharded deployment: single-loop worker tasks.

:class:`~repro.runtime.live.LiveShardedRuntime` deploys one OS thread per
worker, and every hand-off between the router and a worker crosses a lock
(the documented route → loop → stats order).  At thousands of concurrent
socket clients the GIL and those lock handoffs dominate.  This module
deploys the *same objects* on an :class:`~repro.network.aio.AsyncSocketNetwork`
instead:

* every worker engine becomes an :class:`AsyncWorkerLoop` — a task on the
  network's event loop draining an ``asyncio.Queue``.  All datagram
  dispatch, routing, fan-out and engine timers run on that **one loop
  thread**, so the thread runtime's per-worker locks and documented lock
  order are replaced by a single invariant: *worker and router state is
  only ever touched on the event-loop thread*;
* the :class:`AsyncShardRouter` routes inline on the loop (datagrams are
  delivered there by the network), posts keyed deliveries to the owning
  worker's queue, and runs fan-out passes inline — no ``_route_lock``, no
  ``loop.lock``, no ``_stats_lock`` on the hot path.  Control-plane calls
  (``metrics``, ``set_workers``, drain bookkeeping) arriving from other
  threads are marshalled onto the loop and waited for;
* the control-plane surface is unchanged: ``deploy``/``undeploy``,
  loss-free ``scale_to``/``replace_worker`` drains, ``post_to_worker``
  and ``ping_workers`` for the health controller, ``heartbeat_at`` stamps
  after every job, and the lean ``metrics(include_latency=False)`` read
  for the telemetry collector all behave as on the thread runtime.

A worker job may return an awaitable, which the drain task awaits — this
is how :meth:`AsyncLiveShardedRuntime.wedge_worker` stalls *one* worker
(its queue backs up, its heartbeat goes stale) while the shared loop keeps
serving every other worker; a blocking ``time.sleep`` post would wedge the
whole fleet, so :func:`~repro.runtime.health.wedge_live_worker` dispatches
to the runtime-provided injector here.

``uvloop``, when installed, accelerates the underlying network's loop; the
runtime is agnostic.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from ..core.engine.automata_engine import AutomataEngine
from ..core.errors import ConfigurationError
from ..network.aio import AsyncSocketNetwork
from ..network.engine import NetworkEngine
from ..obs.tracing import STAGE_QUEUE_WAIT, Tracer
from .live import (
    LiveShardedRuntime,
    LiveShardRouter,
    _LoopForwarder,
    _STOP,
    _WorkerEngineView,
)
from .router import ShardRouter

__all__ = ["AsyncWorkerLoop", "AsyncShardRouter", "AsyncLiveShardedRuntime"]

#: Seconds a control-plane call waits for the event loop before falling
#: back (reads) or concluding the loop is gone (mutations).
CONTROL_MARSHAL_TIMEOUT = 5.0


class AsyncWorkerLoop:
    """One worker engine's event loop: an ``asyncio.Queue`` drained by a
    task on the network's loop.

    Duck-types :class:`~repro.runtime.live.WorkerLoop` (the runtime,
    router, health controller and metrics plane all program against that
    surface) but runs no thread of its own: keyed deliveries, upstream
    datagrams and engine timers execute as queue jobs on the shared loop
    thread, serialised per worker by the queue and globally by the loop —
    the single-threaded-loop invariant.  :attr:`lock` survives for the
    control plane's non-blocking metrics reads; no hot-path code takes it.
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
        #: Control-plane compatibility: `_worker_metrics` takes this
        #: non-blocking around its engine reads.  Job execution never
        #: holds it — the loop thread is the mutual exclusion.
        self.lock = threading.RLock()
        self.view = _WorkerEngineView(network, self)
        self.forwarder = _LoopForwarder(self)
        self.errors: List[BaseException] = []
        #: Lock-handoff time cannot exist without locks; stays 0.0 so the
        #: metrics row keeps its schema across runtimes.
        self.lock_wait_seconds = 0.0
        self.jobs_executed = 0
        self.heartbeat_at = time.monotonic()
        self._progress = threading.Condition()
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
        """Wait for the drain task to exit; ``True`` if it did."""
        if not self._started:
            return True
        if self.network.on_loop_thread():
            # The loop thread cannot wait on itself; the task exits when
            # the stop sentinel drains.
            return self._finished.is_set()
        return self._finished.wait(timeout)

    def post(self, job: Callable[[], None], trace: int = 0) -> None:
        """Enqueue ``job`` on the worker's queue, from any thread."""
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
        return self._queue.qsize()

    def wait_progress(self, timeout: float) -> None:
        with self._progress:
            self._progress.wait(timeout)

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
                with self._progress:
                    self._progress.notify_all()
        finally:
            self._finished.set()
            with self._progress:
                self._progress.notify_all()


class AsyncShardRouter(LiveShardRouter):
    """The shard router on the event loop: same routing, no locks.

    Datagrams are delivered by the :class:`AsyncSocketNetwork` on its loop
    thread and routed inline; keyed deliveries are queue posts, fan-out
    runs inline — all on one thread, so the thread router's three locks
    (and their documented order) dissolve into the single-threaded-loop
    invariant.  Control-plane entry points called from other threads
    (``metrics``, ``set_workers``, drain bookkeeping, loop registry) are
    **marshalled onto the loop** and waited for, so they observe and
    mutate routing state with the same exclusivity a lock used to give.

    The inherited locks still exist but are only ever taken on the loop
    thread or inside marshalled calls — uncontended by construction.
    """

    def __init__(
        self,
        workers: Sequence[AutomataEngine],
        public_endpoints: Dict[str, "object"],
        loops: Sequence[AsyncWorkerLoop],
        name: str = "aio-shard-router",
        prune_interval: float = 15.0,
        worker_ids: Optional[Sequence[int]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not loops:
            raise ConfigurationError("an async shard router needs at least one loop")
        self._aio: AsyncSocketNetwork = loops[0].network
        super().__init__(
            workers,
            public_endpoints,
            loops,
            name=name,
            prune_interval=prune_interval,
            worker_ids=worker_ids,
            tracer=tracer,
        )

    # -- control-plane marshalling -------------------------------------
    def _on_loop(self, fn: Callable[[], "object"]) -> "object":
        """Run ``fn`` on the event-loop thread and return its result.

        Calls already on the loop run inline.  If the loop fails to pick
        the call up in time (a foreign blocking job has wedged it), reads
        fall back to executing directly — a racy snapshot beats a blind
        control plane, exactly the trade the thread runtime's non-blocking
        metrics acquire makes.
        """
        if self._aio.on_loop_thread() or not self._aio._thread.is_alive():
            return fn()

        async def _call() -> "object":
            return fn()

        future = asyncio.run_coroutine_threadsafe(_call(), self._aio.loop)
        try:
            return future.result(timeout=CONTROL_MARSHAL_TIMEOUT)
        except concurrent.futures.TimeoutError:
            if future.cancel():
                return fn()
            return future.result(timeout=CONTROL_MARSHAL_TIMEOUT)

    def set_workers(self, workers, worker_ids=None) -> None:
        self._on_loop(
            lambda: LiveShardRouter.set_workers(self, workers, worker_ids)
        )

    def add_loop(self, loop) -> None:
        self._on_loop(lambda: LiveShardRouter.add_loop(self, loop))

    def remove_loop(self, loop) -> None:
        self._on_loop(lambda: LiveShardRouter.remove_loop(self, loop))

    def begin_drain(self, worker_ids) -> None:
        self._on_loop(lambda: LiveShardRouter.begin_drain(self, worker_ids))

    def cancel_drain(self) -> None:
        self._on_loop(lambda: LiveShardRouter.cancel_drain(self))

    def drain_pending(self, worker_id) -> bool:
        return bool(self._on_loop(lambda: LiveShardRouter.drain_pending(self, worker_id)))

    def metrics(self):
        return self._on_loop(lambda: LiveShardRouter.metrics(self))

    # -- hot path: loop-thread only, lock-free -------------------------
    def on_datagram(self, engine, data, source, destination) -> None:
        ShardRouter.on_datagram(self, engine, data, source, destination)

    def _dispatch_to(
        self,
        worker,
        engine,
        automaton_name,
        message,
        source,
        strict: bool = False,
        trace: int = 0,
    ) -> bool:
        try:
            loop = self._loop_for(worker)
        except ConfigurationError:
            # Fan-out racing a teardown: treat the drained worker as a
            # decline, same as the thread router.
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

    def _record_outcome(self, routed: bool) -> None:
        ShardRouter._record_outcome(self, routed)

    def note_session_closed(self, key) -> None:
        """Unpin ``key`` at once instead of at the next routed datagram.

        Worker jobs run on the loop thread, which *is* the routing thread
        here, so the flush the thread router has to defer is safe
        immediately — an idle bridge then reports ``sticky_entries == 0``
        rather than its last sessions' pins until the next datagram or
        prune.  A close reported from any other thread (a control-plane
        reset) is still only queued.
        """
        self._closed_keys.append(key)
        if self._aio.on_loop_thread():
            self._flush_closed_keys()

    def _has_session(self, worker, key) -> bool:
        return worker.has_session(key)

    def _prune(self, engine) -> None:
        # The prune timer fires on the loop thread (the network's timers
        # live there), so the pass is already exclusive.
        ShardRouter._prune(self, engine)


class AsyncLiveShardedRuntime(LiveShardedRuntime):
    """A sharded bridge deployment on one event loop.

    Same construction, same control-plane surface, and byte-identical
    outputs as :class:`~repro.runtime.live.LiveShardedRuntime` — the
    deploy/scale/drain/teardown choreography is inherited unchanged; only
    the worker-loop and router factories differ.  Deploys exclusively on
    an :class:`~repro.network.aio.AsyncSocketNetwork`::

        runtime = AsyncLiveShardedRuntime.from_bridge(bridge, workers=8)
        with AsyncSocketNetwork() as network:
            runtime.deploy(network)
            ...   # thousands of concurrent live clients
            runtime.undeploy()
    """

    loop_class = AsyncWorkerLoop
    router_class = AsyncShardRouter

    def deploy(self, network: NetworkEngine) -> AsyncShardRouter:
        if not isinstance(network, AsyncSocketNetwork):
            raise ConfigurationError(
                "AsyncLiveShardedRuntime deploys on an AsyncSocketNetwork; "
                f"got {type(network).__name__} (use LiveShardedRuntime for "
                "the thread-per-worker engine)"
            )
        return super().deploy(network)  # type: ignore[return-value]

    def _worker_empty(self, loop, worker) -> bool:
        """Drain emptiness, evaluated *on* the event loop.

        On the loop thread no job is ever mid-flight (jobs are synchronous
        calls of the drain task), so "no sessions and an empty queue" is
        exact — the lock the thread runtime needs here has no analogue.
        """
        def check() -> bool:
            return not worker.active_sessions and loop.queue_depth == 0

        network: AsyncSocketNetwork = loop.network
        if network.on_loop_thread():
            return check()

        async def _call() -> bool:
            return check()

        future = asyncio.run_coroutine_threadsafe(_call(), network.loop)
        try:
            return bool(future.result(timeout=CONTROL_MARSHAL_TIMEOUT))
        except concurrent.futures.TimeoutError:
            future.cancel()
            return False  # loop busy: not observably empty, keep waiting

    def wedge_worker(self, worker_id: int, seconds: float) -> None:
        """Stall one worker for ``seconds`` without stalling the loop.

        Posts a job returning ``asyncio.sleep(seconds)``: the worker's
        drain task awaits it, so *its* queue backs up and *its* heartbeat
        goes stale — the grey-failure signal the detector scores — while
        every other worker (and the control plane) keeps running.  This is
        the asyncio analogue of posting ``time.sleep`` to a worker thread,
        which on a shared loop would wedge the whole fleet.
        """
        if seconds < 0:
            raise ConfigurationError(f"cannot wedge for {seconds!r} seconds")
        if worker_id not in self._worker_ids:
            raise ConfigurationError(f"no worker with id {worker_id!r}")
        self.post_to_worker(worker_id, lambda: asyncio.sleep(seconds))

    def __repr__(self) -> str:
        deployed = "deployed" if self._router is not None else "not deployed"
        return (
            f"AsyncLiveShardedRuntime({self.merged.name!r}, "
            f"workers={len(self._workers)}, {deployed})"
        )
