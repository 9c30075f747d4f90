"""Tests for the live sharded runtime (thread-per-worker over real sockets).

These run the same workloads as the simulated sharding tests, but over
:class:`~repro.network.sockets.SocketNetwork` with real loopback datagrams
and wall-clock time.  Skipped automatically where loopback sockets cannot
be bound.
"""

from __future__ import annotations

import threading

import pytest

from repro.bridges.specs import BRIDGE_BUILDERS
from repro.core.errors import ConfigurationError, NetworkError
from repro.evaluation.harness import measure_live_sharded_sessions
from repro.evaluation.workloads import live_sharded_scenario, live_twin_scenario
from repro.network.sockets import SocketNetwork, loopback_available
from repro.runtime import LiveShardedRuntime

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


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


def test_live_outputs_byte_identical_to_simulated_twin():
    """Going live must not change a single translated byte."""
    scenario = live_sharded_scenario(2, clients=8, workers=2)
    result = scenario.run()
    assert result.all_found
    live_bytes = scenario.raw_responses_by_client

    twin = live_twin_scenario(2, clients=8, workers=2)
    twin_result = twin.run()
    assert twin_result.all_found
    twin_bytes = {client.name: tuple(client.raw_responses) for client in twin.clients}
    assert live_bytes == twin_bytes


def test_measure_live_sharded_sessions_row():
    row = measure_live_sharded_sessions(2, clients=6, workers=2)
    assert row.completed == 6
    assert row.unrouted == 0
    assert row.outputs_match_simulated
    assert row.makespan_s > 0.0
    assert sum(row.worker_sessions) == 6


def test_live_sharding_rows_say_what_produced_them():
    """Every archived row carries runtime, event loop, Python and cores."""
    for runtime, loops in (("thread", ("-",)), ("aio", ("asyncio", "uvloop"))):
        row = measure_live_sharded_sessions(
            2, clients=4, workers=1, runtime=runtime
        ).as_row()
        assert row["runtime"] == runtime
        assert row["loop"] in loops
        assert row["python"].count(".") == 2
        assert row["nproc"] >= 1


def test_from_bridge_rebinds_model_level_hosts_on_loopback():
    """A bridge built with the default model host must still deploy live."""
    from repro.bridges.specs import upnp_to_slp_bridge

    runtime = LiveShardedRuntime.from_bridge(
        upnp_to_slp_bridge(base_port=45900), workers=2
    )
    assert runtime.host == "127.0.0.1"
    # Per-session ephemeral ports default on live: SocketNetwork can bind
    # kernel-assigned UDP ports after attach.
    assert runtime.ephemeral_ports
    with SocketNetwork() as network:
        runtime.deploy(network)
        assert all(
            endpoint.host == "127.0.0.1"
            for endpoint in runtime.public_endpoints.values()
        )
        runtime.undeploy()


def test_live_runtime_rescales_in_place_both_directions():
    """`scale_to` is implemented live: grow attaches fresh worker loops,
    shrink drains (trivially here: no sessions in flight)."""
    runtime = LiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[2](host="127.0.0.1", base_port=46000), workers=2
    )
    with SocketNetwork() as network:
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
        LiveShardedRuntime.from_bridge(
            BRIDGE_BUILDERS[1](host="127.0.0.1", base_port=46100),
            workers=2,
            worker_port_stride=1,
        )


def test_record_outcome_never_needs_the_route_lock():
    """Regression for a lock-order-inversion deadlock.

    A worker-loop thread records keyed outcomes while holding its
    ``loop.lock``; a receiver thread can simultaneously hold
    ``_route_lock`` and wait for that same ``loop.lock`` on the inline
    fan-out path.  ``_record_outcome`` must therefore never acquire
    ``_route_lock`` — the counters live under their own leaf lock.
    """
    runtime = LiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[2](host="127.0.0.1", base_port=46300), workers=2
    )
    with SocketNetwork() as network:
        router = runtime.deploy(network)
        held = threading.Event()
        release = threading.Event()

        def hold_route_lock() -> None:
            with router._route_lock:
                held.set()
                release.wait(5.0)

        holder = threading.Thread(target=hold_route_lock, daemon=True)
        holder.start()
        assert held.wait(2.0)
        recorded = threading.Event()

        def record() -> None:
            router._record_outcome(True)
            router._record_outcome(False)
            recorded.set()

        recorder = threading.Thread(target=record, daemon=True)
        recorder.start()
        try:
            assert recorded.wait(2.0), "_record_outcome blocked on _route_lock"
        finally:
            release.set()
            holder.join(2.0)
        assert router.routed_datagrams == 1
        assert router.unrouted_datagrams == 1
        runtime.undeploy()


def test_undeploy_joins_loops_and_harvests_draining_errors():
    """Errors from jobs still draining at undeploy must not be lost."""
    runtime = LiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[2](host="127.0.0.1", base_port=46400), workers=2
    )
    with SocketNetwork() as network:
        runtime.deploy(network)
        loops = list(runtime._loops)

        def boom() -> None:
            raise RuntimeError("draining job")

        for loop in loops:
            loop.post(boom)
        runtime.undeploy()
        assert all(not loop._thread.is_alive() for loop in loops)
        messages = [str(error) for error in runtime.worker_errors]
        assert messages.count("draining job") == len(loops)


def test_failed_deploy_unwinds_loops_and_shells():
    """A deploy that dies mid-attach must leak neither threads nor shells."""

    class RouterRejectingNetwork(SocketNetwork):
        def __init__(self):
            super().__init__()
            self.reject_router = True

        def attach(self, node):
            if self.reject_router and getattr(node, "name", "").startswith(
                "live-router:"
            ):
                raise NetworkError("injected attach failure")
            super().attach(node)

    runtime = LiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[3](host="127.0.0.1", base_port=46500), workers=2
    )
    with RouterRejectingNetwork() as network:
        with pytest.raises(NetworkError):
            runtime.deploy(network)
        assert runtime._router is None
        assert runtime._loops == []
        assert runtime._shells == []
        assert network._nodes == []
        assert not [
            thread
            for thread in threading.enumerate()
            if thread.name.startswith("worker-loop:") and thread.is_alive()
        ]
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

    ``SocketNetwork.attach`` is not atomic: it registers the node, then
    binds endpoint by endpoint.  If a later endpoint is already bound, the
    shell stays registered with its earlier sockets live — the unwind must
    detach it (and detach must close those sockets) even though deploy
    never saw the attach succeed.
    """
    runtime = LiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[3](host="127.0.0.1", base_port=46600), workers=2
    )
    blocked = runtime._workers[-1].unicast_endpoints()[-1]
    with SocketNetwork() as network:
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
    runtime = LiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[3](host="127.0.0.1", base_port=46700), workers=2
    )
    blocked = list(runtime.public_endpoints.values())[-1]
    with SocketNetwork() as network:
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
    runtime = LiveShardedRuntime.from_bridge(
        BRIDGE_BUILDERS[2](host="127.0.0.1", base_port=46200), workers=2
    )
    with SocketNetwork() as network:
        runtime.deploy(network)
        with pytest.raises(ConfigurationError):
            runtime.deploy(network)
        runtime.undeploy()
    with SocketNetwork() as network:
        runtime.deploy(network)
        runtime.undeploy()
