"""Live sharded deployment: the same runtime on real loopback sockets.

:class:`~repro.runtime.runtime.ShardedRuntime` is substrate-agnostic: the
same read-only merged automaton, the same worker :class:`AutomataEngine`
instances, the same sticky :class:`~repro.runtime.sharding.HashRing`
routing and the same worker loop
(:class:`~repro.runtime.worker.ShardWorker`) run on the discrete-event
simulation and on an :class:`~repro.network.aio.AsyncSocketNetwork`,
where traffic is real UDP/TCP datagrams on the loopback interface and
time is the wall clock.  Live, every socket read, timer and worker record
runs on the network's **one event-loop thread**, which gives the single
invariant the module rests on: *worker and router state is touched only
on the event-loop thread*, and no lock is taken per datagram.

:class:`AsyncLiveShardedRuntime` holds only what is particular to that
substrate: its defaults (loopback host, worker port stride, ephemeral
ports) and their validation; a deploy that refuses any other network; and
the calls from other threads.  ``undeploy`` and ``metrics`` are
marshalled onto the loop, and a membership change (``scale_to`` /
``remove_worker`` / ``replace_worker``) called from a script, a test or
the chaos harness is started on the loop once, after which the caller
waits off-loop for the drain to finish.  The autoscaler, failure detector
and telemetry collector tick on the loop's timer, so a live deployment is
exactly one thread including its control plane.

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
import math
from dataclasses import replace
from typing import Callable, TypeVar

from ..core.errors import ConfigurationError, EngineError
from ..network.aio import AsyncSocketNetwork
from ..network.engine import NetworkEngine
from .metrics import NETWORK, ShardMetrics, sourced
from .router import ShardRouter
from .runtime import DEFAULT_WORKERS, ShardedRuntime

__all__ = ["AsyncLiveShardedRuntime"]

#: Default port distance between the router's public range and each
#: worker's range on the socket engine, where everything shares one real
#: host address and only ports distinguish the nodes.
DEFAULT_WORKER_PORT_STRIDE = 16

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
      reply-channel attribution).

    ``processing_delay`` queues each worker's translated sends on its
    serial send clock in *wall time* — the modelled scheduling demo
    ``--table live-sharding`` runs.  Deploys exclusively on an
    :class:`~repro.network.aio.AsyncSocketNetwork` (see
    ``examples/live_sharded_bridge.py`` for a complete run)::

        runtime = AsyncLiveShardedRuntime.from_bridge(bridge, workers=4)
        with AsyncSocketNetwork() as network:
            runtime.deploy(network)
            ...   # real legacy clients talk to the router's endpoints
            runtime.undeploy()
    """

    virtual_timeline = False

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("host", "127.0.0.1")
        kwargs.setdefault("worker_port_stride", DEFAULT_WORKER_PORT_STRIDE)
        kwargs.setdefault("ephemeral_ports", True)
        super().__init__(*args, **kwargs)
        if self.worker_port_stride < len(self.merged.automata):
            raise ConfigurationError(
                "worker_port_stride must cover one port per component automaton "
                f"({len(self.merged.automata)} needed, got {self.worker_port_stride})"
            )

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

    def deploy(self, network: NetworkEngine) -> ShardRouter:
        """Attach the workers' shells and the router to ``network``, which
        must be an :class:`AsyncSocketNetwork` (all or nothing, as on the
        simulation)."""
        if self._router is not None:
            raise ConfigurationError(
                f"live sharded runtime '{self.merged.name}' is already deployed"
            )
        if not isinstance(network, AsyncSocketNetwork):
            raise ConfigurationError(
                "AsyncLiveShardedRuntime deploys on an AsyncSocketNetwork; "
                f"got {type(network).__name__}"
            )
        return super().deploy(network)

    def undeploy(self) -> None:
        """Detach from the network, on the loop and in one step: a
        controller tick sees either the whole deployment or none of it,
        and records still queued run before this returns."""
        network = self._network
        if network is None:
            super().undeploy()
        else:
            _on_loop(network, super().undeploy)

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
        # The drain ends by itself: done, or cancelled at drain_timeout.
        network.run_until(lambda: not self.scaling_in_progress, timeout=math.inf)
        if any(e.kind == "drain-cancelled" for e in self.scale_events[marker:]):
            raise EngineError(
                f"drain did not complete within {self.drain_timeout}s; ring "
                "membership restored, no session was abandoned"
            )
        return result

    def metrics(self, include_latency: bool = True) -> ShardMetrics:
        """The snapshot, taken on the loop, with the socket substrate's
        counters on the router row: they belong to no one worker.
        ``network_errors`` is ``len(AsyncSocketNetwork.errors)`` and every
        field declared with source ``NETWORK`` is copied off the network."""
        network = self._network
        if network is None:
            return super().metrics(include_latency)

        def snapshot() -> ShardMetrics:
            shard_metrics = ShardedRuntime.metrics(self, include_latency)
            router = replace(
                shard_metrics.router,
                network_errors=len(network.errors),
                **sourced(NETWORK, network),
            )
            return replace(shard_metrics, router=router)

        return _on_loop(network, snapshot)

    def __repr__(self) -> str:
        deployed = "deployed" if self._router is not None else "not deployed"
        return (
            f"AsyncLiveShardedRuntime({self.merged.name!r}, "
            f"workers={len(self._workers)}, {deployed})"
        )
