"""Tests for the live sharded runtime (worker tasks on one loop, real sockets).

These run the same workloads as the simulated sharding tests, but over
:class:`~repro.network.aio.AsyncSocketNetwork` with real loopback datagrams
and wall-clock time.  Skipped automatically where loopback sockets cannot
be bound.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.bridges.specs import BRIDGE_BUILDERS
from repro.core.errors import ConfigurationError, NetworkError
from repro.evaluation.harness import measure_live_sharded_sessions
from repro.evaluation.workloads import (
    _live_bridge,
    _live_case_parts,
    live_sharded_scenario,
)
from repro.network.aio import AsyncSocketNetwork
from repro.network.sockets import loopback_available
from repro.runtime.aio_live import AsyncLiveShardedRuntime

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


def _wait(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _pending_tasks(network: AsyncSocketNetwork) -> list:
    """Unfinished tasks on the network's loop (asked on the loop itself)."""

    async def pending() -> list:
        me = asyncio.current_task()
        return [task for task in asyncio.all_tasks() if task is not me]

    return asyncio.run_coroutine_threadsafe(pending(), network.loop).result(5.0)


def test_live_sharded_run_serves_every_client():
    scenario = live_sharded_scenario(2, clients=10, workers=4)
    runtime = scenario.runtime
    result = scenario.run()
    assert result.all_found
    assert result.unrouted_datagrams == 0
    assert runtime.worker_errors == []
    # Sessions really spread across the worker engines.
    counts = runtime.worker_session_counts()
    assert sum(counts) == 10
    assert sum(1 for count in counts if count > 0) > 1


def test_measure_live_sharded_sessions_row():
    row = measure_live_sharded_sessions(2, clients=6, workers=2)
    assert row.completed == 6
    assert row.unrouted == 0
    assert row.outputs_match_simulated
    assert row.makespan_s > 0.0
    assert sum(row.worker_sessions) == 6


def test_live_sharding_rows_say_what_produced_them():
    """Every archived row carries event loop, Python and cores."""
    row = measure_live_sharded_sessions(2, clients=4, workers=1).as_row()
    assert "runtime" not in row
    assert row["loop"] in ("asyncio", "uvloop")
    assert row["python"].count(".") == 2
    assert row["nproc"] >= 1


def test_a_timed_out_live_run_keeps_its_evidence():
    """``LiveScenario.run`` tears down in ``finally``; what the deployment
    looked like just before must survive, or a failed run says nothing."""
    scenario = live_sharded_scenario(2, clients=4, workers=2, processing_delay=2.0)
    result = scenario.run(timeout=0.3)
    assert result.clients - result.completed == 4  # every lookup unanswered
    with pytest.raises(ConfigurationError):
        scenario.runtime.metrics()  # the deployment is gone ...
    snapshot = scenario.final_metrics  # ... its last snapshot is not
    assert snapshot.router.routed_datagrams >= 4
    assert len(snapshot.workers) == 2
    assert snapshot.total_active_sessions == 4
    assert snapshot.latency == ()
    assert scenario.runtime.worker_errors == []


def test_from_bridge_rebinds_model_level_hosts_on_loopback():
    """A bridge built with the default model host must still deploy live."""
    from repro.bridges.specs import upnp_to_slp_bridge

    runtime = AsyncLiveShardedRuntime.from_bridge(
        upnp_to_slp_bridge(base_port=28900), workers=2
    )
    assert runtime.host == "127.0.0.1"
    # Per-session ephemeral ports default on live: AsyncSocketNetwork can bind
    # kernel-assigned UDP ports after attach.
    assert runtime.ephemeral_ports
    with AsyncSocketNetwork() as network:
        runtime.deploy(network)
        assert all(
            endpoint.host == "127.0.0.1"
            for endpoint in runtime.public_endpoints.values()
        )
        runtime.undeploy()


def test_live_runtime_rescales_in_place_both_directions():
    """`scale_to` is implemented live: grow attaches fresh worker loops,
    shrink drains (trivially here: no sessions in flight)."""
    runtime = AsyncLiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[2](host="127.0.0.1", base_port=29000), workers=2
    )
    with AsyncSocketNetwork() as network:
        runtime.deploy(network)
        try:
            runtime.scale_to(4)
            assert runtime.worker_count == 4
            assert runtime.router.worker_count == 4
            runtime.scale_to(1)
            assert runtime.worker_count == 1
            assert runtime.router.worker_count == 1
            assert not runtime.scaling_in_progress
            assert runtime.worker_errors == []
        finally:
            runtime.undeploy()


def test_live_runtime_requires_room_for_worker_ports():
    with pytest.raises(ConfigurationError):
        AsyncLiveShardedRuntime.from_bridge(
            BRIDGE_BUILDERS[1](host="127.0.0.1", base_port=29100),
            workers=2,
            worker_port_stride=1,
        )


def test_undeploy_joins_loops_and_harvests_draining_errors():
    """Errors from jobs still draining at undeploy must not be lost, and
    every worker task must have finished by the time undeploy returns."""
    runtime = AsyncLiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[2](host="127.0.0.1", base_port=29400), workers=2
    )
    with AsyncSocketNetwork() as network:
        runtime.deploy(network)
        loops = list(runtime._loops)

        def boom() -> None:
            raise RuntimeError("draining job")

        for loop in loops:
            loop.post(boom)
        runtime.undeploy()
        assert all(loop.join(timeout=0) for loop in loops)
        assert _pending_tasks(network) == []
        messages = [str(error) for error in runtime.worker_errors]
        assert messages.count("draining job") == len(loops)


def test_failed_deploy_unwinds_loops_and_shells():
    """A deploy that dies mid-attach must leak neither tasks nor shells."""

    class RouterRejectingNetwork(AsyncSocketNetwork):
        def __init__(self):
            super().__init__()
            self.reject_router = True

        def attach(self, node):
            if self.reject_router and getattr(node, "name", "").startswith(
                "live-router:"
            ):
                raise NetworkError("injected attach failure")
            super().attach(node)

    runtime = AsyncLiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[3](host="127.0.0.1", base_port=29500), workers=2
    )
    with RouterRejectingNetwork() as network:
        with pytest.raises(NetworkError):
            runtime.deploy(network)
        assert runtime._router is None
        assert runtime._loops == []
        assert runtime._shells == []
        assert network._nodes == []
        assert _wait(lambda: _pending_tasks(network) == [])
        # Detach closed the shells' sockets, so the very same network can
        # host the retry — the worker ports (TCP listeners included, this
        # bridge has an HTTP leg) re-bind cleanly.
        network.reject_router = False
        runtime.deploy(network)
        runtime.undeploy()


class Blocker:
    """A minimal node squatting on one endpoint, to make binds collide."""

    name = "blocker"

    def __init__(self, endpoint):
        self._endpoint = endpoint

    def unicast_endpoints(self):
        return [self._endpoint]

    def multicast_groups(self):
        return []

    def on_attached(self, engine):
        pass

    def on_datagram(self, engine, data, source, destination):
        pass


def test_partially_attached_shell_is_unwound_too():
    """An attach that raises mid-bind must still be cleaned up on unwind.

    ``AsyncSocketNetwork.attach`` is not atomic: it registers the node, then
    binds endpoint by endpoint.  If a later endpoint is already bound, the
    shell stays registered with its earlier sockets live — the unwind must
    detach it (and detach must close those sockets) even though deploy
    never saw the attach succeed.
    """
    runtime = AsyncLiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[3](host="127.0.0.1", base_port=29600), workers=2
    )
    blocked = runtime._workers[-1].unicast_endpoints()[-1]
    with AsyncSocketNetwork() as network:
        blocker = Blocker(blocked)
        network.attach(blocker)
        with pytest.raises(NetworkError):
            runtime.deploy(network)
        assert runtime._router is None
        assert runtime._loops == []
        assert network._nodes == [blocker]
        # Free the endpoint: the same network now hosts a clean deploy.
        network.detach(blocker)
        runtime.deploy(network)
        runtime.undeploy()


def test_partially_attached_router_is_unwound_too():
    """The router's own mid-bind failure must unwind like the shells'.

    The shells attach first, so a collision on a *public* endpoint other
    than the first leaves the router partially attached; the unwind must
    detach it too, or its stale bindings block every retry on the same
    network forever (the runtime holds no reference to the dead router).
    """
    runtime = AsyncLiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[3](host="127.0.0.1", base_port=29700), workers=2
    )
    blocked = list(runtime.public_endpoints.values())[-1]
    with AsyncSocketNetwork() as network:
        blocker = Blocker(blocked)
        network.attach(blocker)
        with pytest.raises(NetworkError):
            runtime.deploy(network)
        assert runtime._router is None
        assert network._nodes == [blocker]
        network.detach(blocker)
        runtime.deploy(network)
        runtime.undeploy()


def test_live_runtime_redeploys_after_undeploy():
    runtime = AsyncLiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[2](host="127.0.0.1", base_port=29200), workers=2
    )
    with AsyncSocketNetwork() as network:
        runtime.deploy(network)
        with pytest.raises(ConfigurationError):
            runtime.deploy(network)
        runtime.undeploy()
    with AsyncSocketNetwork() as network:
        runtime.deploy(network)
        runtime.undeploy()


def test_the_thread_budget_is_one_loop_thread():
    """The design in one number: a live deployment costs one thread.

    Eight workers, fifty completed lookups on the SSDP case (each binds a
    per-session ephemeral UDP socket and dials one TCP connection) and
    thirty eviction-sweep ticks later, the process runs exactly one thread
    more than before: the network's loop.  A thread per socket, per timer
    or per worker — any of them would show here.
    """
    before = threading.active_count()
    clients, service, target, _ = _live_case_parts(1, 50)
    runtime = AsyncLiveShardedRuntime.from_bridge(
        _live_bridge(1, 0.0), workers=8, session_timeout=0.6
    )
    sweeps = []

    def counted(sweep):
        def tick(engine):
            sweeps.append(engine.now())
            sweep(engine)

        return tick

    for worker in runtime.workers:
        worker.sweep_interval = 0.01
        worker._sweep = counted(worker._sweep)
    network = AsyncSocketNetwork()
    try:
        runtime.deploy(network)
        network.attach(service)
        for client in clients:
            network.attach(client)
        started = [(client, client.start_lookup(network, target)) for client in clients]
        assert _wait(
            lambda: all(client.lookup_result(key) for client, key in started), 15.0
        )
        assert sum(runtime.worker_session_counts()) == 50
        # One more lookup with the service gone: its session sits in a
        # worker's table until evicted, and the sweep ticks all the while.
        network.detach(service)
        clients[0].start_lookup(network, target)
        assert _wait(lambda: len(runtime.evicted_sessions) == 1)
        assert len(sweeps) >= 30
        assert runtime.worker_errors == []
        assert threading.active_count() == before + 1
    finally:
        runtime.undeploy()
        network.close()
    assert threading.active_count() == before
