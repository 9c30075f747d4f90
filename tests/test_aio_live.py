"""Tests for the live runtime's event-loop mechanics (`repro.runtime.aio_live`).

What is particular to running every worker as a task on one loop: the
byte-identity invariant at any shard count, a wedge that stalls one
worker and not the loop, immediate sticky unpinning, and the reader
counters on the metrics row.  ``tests/test_live_sharding.py`` covers the
deploy/scale/teardown choreography.
"""

from __future__ import annotations

import time

import pytest

from repro.core.errors import ConfigurationError
from repro.evaluation.telemetry import lint_prometheus
from repro.evaluation.workloads import live_sharded_scenario, live_twin_scenario
from repro.network.sockets import loopback_available
from repro.network.simulated import SimulatedNetwork
from repro.obs import render_prometheus

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_aio_outputs_are_byte_identical_to_the_simulated_twin(workers):
    """The acceptance invariant: going live must not change a byte.

    Same case, same clients, same shard count: every raw translated byte
    a live client receives over real sockets must equal what its twin
    received on the deterministic simulation — at any shard count.
    """
    live = live_sharded_scenario(2, clients=6, workers=workers)
    result = live.run(timeout=20.0)
    assert result.all_found
    live_bytes = live.raw_responses_by_client

    twin = live_twin_scenario(2, clients=6, workers=workers)
    twin_result = twin.run()
    assert twin_result.all_found
    twin_bytes = {c.name: tuple(c.raw_responses) for c in twin.clients}
    assert live_bytes == twin_bytes


def test_aio_scale_up_and_drain_down_is_loss_free():
    """Growing then shrinking the pool must not abandon sessions."""
    live = live_sharded_scenario(2, clients=10, workers=2)
    runtime = live.runtime
    runtime.scale_to(4)
    assert runtime.worker_count == 4
    runtime.scale_to(2)
    assert runtime.worker_count == 2
    result = live.run(timeout=20.0)
    assert result.all_found
    assert not runtime.evicted_sessions
    assert not runtime.worker_errors


def test_aio_wedge_stalls_only_the_victim_worker():
    """``wedge_worker`` awaits an ``asyncio.sleep`` on the victim's queue.

    A blocking ``time.sleep`` would stall the shared event loop — every
    worker, the router, and the sockets.  The awaited sleep suspends only
    the victim's drain task: other workers keep answering pings while the
    victim's heartbeat goes stale.
    """
    live = live_sharded_scenario(2, clients=4, workers=3)
    runtime = live.runtime
    try:
        victim = runtime._worker_ids[0]
        runtime.wedge_worker(victim, 0.6)
        time.sleep(0.2)
        runtime.ping_workers()
        time.sleep(0.1)
        now = time.monotonic()
        beats = [loop.heartbeat_at for loop in runtime._loops]
        # The victim's drain task is suspended: its ping is still queued.
        assert now - beats[0] > 0.25
        # Everyone else served the ping just fine.
        assert all(now - beat < 0.25 for beat in beats[1:])
    finally:
        time.sleep(0.5)  # let the wedge expire before teardown
        runtime.undeploy()
        live.network.close()


def test_aio_wedge_validates_worker_id():
    live = live_sharded_scenario(2, clients=2, workers=2)
    try:
        with pytest.raises(ConfigurationError):
            live.runtime.wedge_worker(99, 0.1)
        with pytest.raises(ConfigurationError):
            live.runtime.wedge_worker(live.runtime._worker_ids[0], -1.0)
    finally:
        live.runtime.undeploy()
        live.network.close()


def test_aio_runtime_rejects_a_non_asyncio_network():
    """The live runtime needs the socket engine's loop: deploying it on
    anything else (the simulation, say) is a configuration error."""
    from repro.runtime.aio_live import AsyncLiveShardedRuntime
    from repro.evaluation.workloads import _live_bridge

    runtime = AsyncLiveShardedRuntime.from_bridge(_live_bridge(2, 0.0), workers=1)
    with pytest.raises(ConfigurationError):
        runtime.deploy(SimulatedNetwork())
    assert runtime.router is None


def test_aio_metrics_stay_lean_without_latency():
    """`metrics(include_latency=False)` skips histogram work on the hot path."""
    live = live_sharded_scenario(2, clients=4, workers=2)
    try:
        lean = live.runtime.metrics(include_latency=False)
        assert len(lean.workers) == 2
        assert lean.latency == ()
    finally:
        live.runtime.undeploy()
        live.network.close()


@pytest.mark.parametrize("workers", [1, 3])
def test_aio_idle_bridge_holds_no_sticky_pins(workers):
    """Completed lookups, then silence: every pin is gone.

    Session closes are reported on the loop thread — the routing thread —
    so the router unpins at once.  Deferring the flush to the next routed
    datagram (as the simulated router does) would leave the last sessions'
    keys in the table of an idle bridge until the 15 s prune, and
    ``/metrics`` ``sticky_entries`` would over-report the same way.
    """
    live = live_sharded_scenario(
        2, clients=12, workers=workers, processing_delay=0.0
    )
    try:
        started = [
            (client, client.start_lookup(live.network, live.target))
            for client in live.clients
        ]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not all(
            client.lookup_result(key) is not None for client, key in started
        ):
            time.sleep(0.002)
        assert all(client.lookup_result(key) is not None for client, key in started)
        snapshot = live.runtime.metrics(include_latency=False)
        assert sum(worker.completed_sessions for worker in snapshot.workers) == 12
        assert snapshot.router.sticky_entries == 0
        assert not live.runtime.worker_errors
        # The reader's batching counters ride on the same router row and
        # on /metrics: every routed datagram came out of some wake-up.
        router = snapshot.router
        assert router.udp_wakeups > 0
        assert router.udp_datagrams >= router.routed_datagrams >= 12
        body = render_prometheus(snapshot)
        assert lint_prometheus(body) == []
        assert f"repro_router_udp_wakeups_total {router.udp_wakeups}" in body
        assert f"repro_router_udp_datagrams_total {router.udp_datagrams}" in body
    finally:
        live.runtime.undeploy()
        live.network.close()


def test_aio_tcp_counters_count_one_exchange_per_http_lookup():
    """Case 1's HTTP leg is one dial by the worker and one accept by the
    device per lookup; both ends live in one network, so the counters on
    the router row and on /metrics agree with the lookup count."""
    lookups = 6
    live = live_sharded_scenario(1, clients=lookups, workers=1, processing_delay=0.0)
    assert live.run(timeout=20.0).all_found  # tears the deployment down
    router = live.final_metrics.router
    assert router.tcp_dials == router.tcp_accepts == lookups
    assert router.tcp_replies_dropped == 0 and router.network_errors == 0
    body = render_prometheus(live.final_metrics)
    assert lint_prometheus(body) == []
    assert f"repro_router_tcp_accepts_total {lookups}" in body
    assert f"repro_router_tcp_dials_total {lookups}" in body

