"""Tests for the elastic control plane: metrics snapshots, the loss-free
drain protocol, the autoscaler policy (hysteresis, cooldown, bounds) and
the controllers — plus the per-lookup ephemeral client ports of the UPnP
control point and the live in-place rescale.

The drain invariants pinned here extend ROADMAP.md's concurrency model:
shrinking never abandons a session — the ring stops handing *new* keys to
the tail workers immediately, but they serve their pinned sessions
(including multicast fan-out legs) to completion before detaching.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bridges.specs import slp_to_bonjour_bridge
from repro.core.errors import ConfigurationError
from repro.core.message import AbstractMessage
from repro.network.addressing import Endpoint, Transport
from repro.network.latency import LatencyModel
from repro.network.simulated import SimulatedNetwork
from repro.protocols.mdns import BonjourResponder
from repro.protocols.upnp import UPnPControlPoint, UPnPDevice
from repro.runtime import (
    Autoscaler,
    AutoscalerPolicy,
    ElasticController,
    RouterMetrics,
    ShardedRuntime,
    ShardMetrics,
    WorkerMetrics,
)

from case2_utils import SERVICE_URL, attach_clients as _attach_clients, deploy_case2, mdns_answer as _mdns_answer


def _deploy_case2(network, workers, serialize=True, **kwargs):
    return deploy_case2(network, workers, serialize, **kwargs)


# ----------------------------------------------------------------------
# metrics plane
# ----------------------------------------------------------------------
class TestMetrics:
    def test_snapshot_reflects_in_flight_load(self, network):
        runtime = _deploy_case2(network, workers=3, processing_delay=0.05)
        clients = _attach_clients(network, 6)
        for client in clients:
            client.start_lookup(network)
        network.run_for(0.01)

        snapshot = runtime.metrics()
        assert isinstance(snapshot, ShardMetrics)
        assert snapshot.worker_count == 3
        assert snapshot.active_workers == 3
        assert snapshot.total_active_sessions == 6
        assert snapshot.sessions_per_worker == pytest.approx(2.0)
        assert sum(w.active_sessions for w in snapshot.workers) == 6
        # Serialised compute: at least the busiest worker has a backlog.
        assert snapshot.total_busy_backlog > 0.0
        # The router measured its own classify-and-place cost.
        assert snapshot.router.classify_count >= 6
        assert snapshot.router.classify_seconds > 0.0
        assert snapshot.router.classify_cost_avg_us > 0.0
        assert snapshot.router.sticky_entries == 6
        # Rows serialise for the JSON artifacts.
        row = snapshot.as_row()
        assert row["total_active_sessions"] == 6
        assert len(row["workers"]) == 3

        network.run()
        # No responder: sessions evict; the drained snapshot reads idle.
        after = runtime.metrics()
        assert after.total_active_sessions == 0
        assert sum(w.evicted_sessions for w in after.workers) == 6

    def test_metrics_requires_deployment(self, network):
        runtime = ShardedRuntime.from_bridge(slp_to_bonjour_bridge(), workers=2)
        with pytest.raises(ConfigurationError):
            runtime.metrics()


# ----------------------------------------------------------------------
# the drain protocol (loss-free scale-down)
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_with_zero_sessions_completes_immediately(self, network):
        runtime = _deploy_case2(network, workers=4)
        runtime.scale_to(1)
        assert runtime.scaling_in_progress
        assert runtime.worker_count == 4  # drain is asynchronous
        network.run()
        assert runtime.worker_count == 1
        assert not runtime.scaling_in_progress
        kinds = [event.kind for event in runtime.scale_events]
        assert kinds == ["drain-start", "drain-complete"]
        assert runtime.router.worker_count == 1
        assert runtime.router.active_worker_count == 1

    def test_drain_waits_for_in_flight_sessions(self, network):
        runtime = _deploy_case2(network, workers=3)
        network.attach(BonjourResponder(latency=LatencyModel(0.3, 0.3)))
        clients = _attach_clients(network, 6)
        xids = [client.start_lookup(network) for client in clients]
        network.run_for(0.01)
        placements = {
            session.key: index
            for index, worker in enumerate(runtime.workers)
            for session in worker.active_sessions
        }
        assert len(placements) == 6
        assert any(index > 0 for index in placements.values())

        runtime.scale_to(1)
        # Well past several drain polls, the sessions (0.3 s round trip)
        # still pin their workers: nothing was detached, nothing dropped.
        network.run_for(0.2)
        assert runtime.worker_count == 3
        assert runtime.scaling_in_progress

        network.run()
        assert runtime.worker_count == 1
        assert not runtime.scaling_in_progress
        assert len(runtime.sessions) == 6
        assert runtime.evicted_sessions == []
        assert runtime.unrouted_datagrams == 0
        for client, xid in zip(clients, xids):
            result = client.lookup_result(xid)
            assert result is not None and result.found
        # Every session completed on the worker that owned it: one session
        # never spans shards, even across a drain.
        completed_keys = {record.session_key for record in runtime.sessions}
        assert completed_keys == set(placements)

    def test_drain_serves_multicast_fan_out_to_draining_worker(self, network):
        """A session pinned to a draining worker still receives its
        multicast leg through the router's fan-out."""
        runtime = _deploy_case2(network, workers=3)
        clients = _attach_clients(network, 6)
        xids = [client.start_lookup(network) for client in clients]
        network.run_for(0.01)
        placements = {
            session.key: index
            for index, worker in enumerate(runtime.workers)
            for session in worker.active_sessions
        }
        assert any(index > 0 for index in placements.values())

        runtime.scale_to(1)
        network.run_for(0.2)
        assert runtime.scaling_in_progress  # sessions still waiting

        for xid in xids:
            _mdns_answer(network, xid)
        network.run()

        assert runtime.worker_count == 1
        assert not runtime.scaling_in_progress
        assert len(runtime.sessions) == 6
        assert runtime.evicted_sessions == []
        assert runtime.unrouted_datagrams == 0
        for client, xid in zip(clients, xids):
            result = client.lookup_result(xid)
            assert result is not None and result.found and result.url == SERVICE_URL

    def test_concurrent_scale_to_rejected_cleanly(self, network):
        runtime = _deploy_case2(network, workers=3)
        network.attach(BonjourResponder(latency=LatencyModel(0.2, 0.2)))
        clients = _attach_clients(network, 4)
        for client in clients:
            client.start_lookup(network)
        network.run_for(0.01)

        runtime.scale_to(1)
        assert runtime.scaling_in_progress
        with pytest.raises(ConfigurationError):
            runtime.scale_to(2)  # second shrink while draining
        with pytest.raises(ConfigurationError):
            runtime.scale_to(5)  # growing while draining
        network.run()
        assert runtime.worker_count == 1
        # A settled runtime rescales again normally.
        runtime.scale_to(2)
        assert runtime.worker_count == 2

    def test_drain_back_after_eviction_only(self, fast_latencies):
        """Sessions that never complete (no responder) evict on timeout;
        the drain then finishes — bounded, even for abandoned lookups."""
        network = SimulatedNetwork(latencies=fast_latencies, seed=17)
        runtime = _deploy_case2(network, workers=3, session_timeout=0.4)
        clients = _attach_clients(network, 5)
        for client in clients:
            client.start_lookup(network)
        network.run_for(0.01)
        runtime.scale_to(1)
        network.run()
        assert runtime.worker_count == 1
        assert len(runtime.evicted_sessions) == 5

    def test_completed_sessions_unpin_sticky_entries_promptly(self, network):
        """The satellite bugfix: a normally-completed session leaves the
        sticky table at the next routing operation or drain check — not
        only when the periodic prune sweep (15 s default) fires."""
        runtime = _deploy_case2(network, workers=2)
        router = runtime.router
        router.prune_interval = 1e9  # the sweep will never run
        network.attach(BonjourResponder(latency=LatencyModel(0.01, 0.01)))
        (client,) = _attach_clients(network, 1)
        xid = client.start_lookup(network)
        network.run()
        assert client.lookup_result(xid).found
        # The entry still sits in the table (lazily), but any drain check
        # observes the completion immediately...
        assert not router.drain_pending(0)
        assert not router.drain_pending(1)
        assert router.sticky_sessions == {}
        # ...so a shrink completes within a poll interval of virtual time,
        # not after the prune interval.
        runtime.scale_to(1)
        network.run_for(3 * runtime.drain_poll_interval)
        assert runtime.worker_count == 1


# ----------------------------------------------------------------------
# the autoscaler policy
# ----------------------------------------------------------------------
def _snapshot(at, workers, sessions, active=None):
    active = workers if active is None else active
    per_worker, remainder = divmod(sessions, workers)
    rows = tuple(
        WorkerMetrics(
            index=index,
            name=f"w{index}",
            active_sessions=per_worker + (1 if index < remainder else 0),
            completed_sessions=0,
            evicted_sessions=0,
        )
        for index in range(workers)
    )
    return ShardMetrics(
        at=at,
        workers=rows,
        router=RouterMetrics(0, 0, 0, sessions, sessions, 0.0),
        active_workers=active,
    )


def _weighted_snapshot(at, sessions, busy_backlog=0.0, queue_depth=0):
    """A one-worker snapshot carrying the optional load signals."""
    snap = _snapshot(at, 1, sessions)
    row = replace(snap.workers[0], busy_backlog=busy_backlog, queue_depth=queue_depth)
    return replace(snap, workers=(row,))


class TestAutoscaler:
    def test_scale_up_reacts_immediately(self):
        scaler = Autoscaler(AutoscalerPolicy())
        assert scaler.desired_workers(_snapshot(0.0, 1, 30)) == 4
        assert scaler.decisions[-1].desired_workers == 4

    def test_hysteresis_band_never_flaps(self):
        """Per-worker load oscillating *inside* the watermark band causes
        no scaling action, ever."""
        policy = AutoscalerPolicy(scale_up_at=10.0, scale_down_at=2.0)
        scaler = Autoscaler(policy)
        for tick in range(50):
            load = 9 if tick % 2 == 0 else 3  # inside (2, 10) per worker
            assert scaler.desired_workers(_snapshot(tick * 0.05, 1, load)) is None
        assert scaler.decisions == []

    def test_oscillation_across_watermarks_is_damped(self):
        """Load alternating above/below both watermarks every tick: the
        cooldown gates the up-moves and the patience requirement (three
        *consecutive* low observations) blocks the down-moves entirely."""
        policy = AutoscalerPolicy(
            scale_up_at=10.0, scale_down_at=2.0, cooldown=0.25, scale_down_patience=3
        )
        scaler = Autoscaler(policy)
        workers = 2
        for tick in range(40):
            high = tick % 2 == 0
            sessions = 40 if high else 0
            desired = scaler.desired_workers(_snapshot(tick * 0.05, workers, sessions))
            if desired is not None:
                workers = desired
        # Only up-moves happened, spaced by the cooldown; no shrink ever
        # fired because the low streak never reached three.
        assert workers == 4
        assert all(
            decision.desired_workers > decision.current_workers
            for decision in scaler.decisions
        )

    def test_scale_down_requires_patience_then_goes_to_target(self):
        policy = AutoscalerPolicy(
            target_sessions_per_worker=6.0,
            scale_down_at=2.0,
            cooldown=0.0,
            scale_down_patience=3,
        )
        scaler = Autoscaler(policy)
        assert scaler.desired_workers(_snapshot(0.0, 4, 2)) is None
        assert scaler.desired_workers(_snapshot(0.1, 4, 2)) is None
        assert scaler.desired_workers(_snapshot(0.2, 4, 2)) == 1

    def test_bounds_are_respected(self):
        policy = AutoscalerPolicy(min_workers=2, max_workers=3, cooldown=0.0)
        scaler = Autoscaler(policy)
        assert scaler.desired_workers(_snapshot(0.0, 2, 200)) == 3
        assert scaler.desired_workers(_snapshot(1.0, 3, 200)) is None  # at cap
        for tick in range(10):
            desired = scaler.desired_workers(_snapshot(2.0 + tick, 3, 0))
            if desired is not None:
                assert desired == 2  # never below min_workers
        assert scaler.desired_workers(_snapshot(20.0, 2, 0)) is None

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(min_workers=0)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(min_workers=3, max_workers=2)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(scale_up_at=1.0, scale_down_at=2.0)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(target_sessions_per_worker=0.0)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(scale_down_patience=0)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(busy_backlog_weight=-0.1)
        with pytest.raises(ConfigurationError):
            AutoscalerPolicy(queue_depth_weight=-1.0)

    def test_busy_backlog_weight_counts_backlog_as_load(self):
        """A worker drowning in expensive translations registers as load
        even while its session count looks modest."""
        policy = AutoscalerPolicy(
            scale_up_at=10.0, busy_backlog_weight=10.0, cooldown=0.0
        )
        scaler = Autoscaler(policy)
        quiet = _weighted_snapshot(0.0, sessions=2)
        assert policy.effective_load(quiet) == 2.0
        assert scaler.desired_workers(quiet) is None
        # Same two sessions, but two seconds of committed compute behind
        # them: effective load 2 + 10*2 = 22 crosses the watermark.
        backlogged = _weighted_snapshot(1.0, sessions=2, busy_backlog=2.0)
        assert policy.effective_load(backlogged) == 22.0
        assert scaler.desired_workers(backlogged) == 4

    def test_queue_depth_weight_counts_queued_jobs_as_load(self):
        """A live loop with a deep job queue registers as load even while
        its session table is small."""
        policy = AutoscalerPolicy(
            scale_up_at=10.0, queue_depth_weight=1.0, cooldown=0.0
        )
        scaler = Autoscaler(policy)
        quiet = _weighted_snapshot(0.0, sessions=2)
        assert scaler.desired_workers(quiet) is None
        deep = _weighted_snapshot(1.0, sessions=2, queue_depth=28)
        assert policy.effective_load(deep) == 30.0
        assert scaler.desired_workers(deep) == 4

    def test_default_weights_preserve_sessions_only_signal(self):
        """With the default zero weights, backlog and queue depth are
        invisible: the historical sessions-only behaviour is unchanged."""
        weighted = Autoscaler(AutoscalerPolicy())
        plain = Autoscaler(AutoscalerPolicy())
        hot = _weighted_snapshot(
            0.0, sessions=30, busy_backlog=99.0, queue_depth=999
        )
        assert AutoscalerPolicy().effective_load(hot) == 30.0
        assert weighted.desired_workers(hot) == plain.desired_workers(
            _snapshot(0.0, 1, 30)
        )


class TestElasticController:
    def test_controller_scales_runtime_from_observed_load(self, network):
        runtime = _deploy_case2(network, workers=1, processing_delay=0.004)
        controller = ElasticController(
            runtime,
            Autoscaler(AutoscalerPolicy(cooldown=0.1)),
            interval=0.05,
        )
        controller.start(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.01, 0.012)))
        clients = _attach_clients(network, 40)
        for index, client in enumerate(clients):
            network.call_later(index * 0.0015, lambda c=client: c.start_lookup(network))
        network.run_until(
            lambda: len(runtime.sessions) == 40
            and runtime.worker_count == 1
            and not runtime.scaling_in_progress,
            timeout=30.0,
        )
        controller.stop()
        assert len(runtime.sessions) == 40
        assert runtime.evicted_sessions == []
        grew = [e for e in runtime.scale_events if e.kind == "grow"]
        drained = [e for e in runtime.scale_events if e.kind == "drain-complete"]
        assert grew and drained
        assert runtime.worker_count == 1

    def test_stopped_controller_schedules_nothing_more(self, network):
        runtime = _deploy_case2(network, workers=1)
        controller = ElasticController(runtime, interval=0.05)
        controller.start(network)
        controller.stop()
        network.run()  # the one pending tick fires and does not reschedule
        assert network.pending_events() == 0


# ----------------------------------------------------------------------
# per-lookup ephemeral client ports (UPnP control point)
# ----------------------------------------------------------------------
class TestPerLookupClientPorts:
    def test_concurrent_lookups_resolve_by_return_address(self, fast_latencies):
        """Two lookups in ONE control point complete out of order: the
        manually-answered second lookup finishes while the first is still
        waiting — impossible under the old oldest-first matching."""
        network = SimulatedNetwork(latencies=fast_latencies, seed=61)
        device = UPnPDevice(
            ssdp_latency=LatencyModel(0.5, 0.5),  # the device answers late
            http_latency=LatencyModel(0.002, 0.002),
        )
        network.attach(device)
        client = UPnPControlPoint(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)

        token_a = client.start_control(network)
        token_b = client.start_control(network)
        source_b = client._controls[token_b].source
        assert source_b is not None
        assert source_b.port != client.endpoint.port
        assert client._controls[token_a].source.port != source_b.port

        # Answer lookup B directly at its own source port, long before the
        # device's own (slow) responses arrive.
        from repro.protocols.ssdp.mdl import SSDP_RESP

        reply = AbstractMessage(SSDP_RESP, protocol="SSDP")
        reply.set("Method", "HTTP/1.1")
        reply.set("URI", "200")
        reply.set("Version", "OK")
        reply.set("CACHE-CONTROL", "max-age=1800")
        reply.set("EXT", "")
        reply.set("LOCATION", device.location)
        reply.set("SERVER", "Starlink-Repro/1.0 UPnP/1.0")
        reply.set("ST", "urn:schemas-upnp-org:service:test:1")
        reply.set("USN", "uuid:starlink-test")
        from repro.core.mdl.base import create_composer as _cc
        from repro.protocols.ssdp.mdl import ssdp_mdl

        network.send(
            _cc(ssdp_mdl()).compose(reply),
            source=Endpoint("adhoc-device.local", 1900, Transport.UDP),
            destination=source_b,
        )
        network.run_until(
            lambda: client.control_result(token_b) is not None, timeout=0.2
        )
        result_b = client.control_result(token_b)
        assert result_b is not None and result_b.found
        assert result_b.url == device.service_url
        # Lookup A is still mid-flight on its SSDP leg — B did not steal
        # its slot, A's eventual response will land on A's own port.
        assert client.control_result(token_a) is None
        assert client._controls[token_a].leg == "ssdp"

        network.run()
        result_a = client.control_result(token_a)
        assert result_a is not None and result_a.found

    def test_lookup_ports_released_on_completion_and_discard(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=67)
        device = UPnPDevice(
            ssdp_latency=LatencyModel(0.002, 0.002),
            http_latency=LatencyModel(0.002, 0.002),
        )
        network.attach(device)
        client = UPnPControlPoint(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)

        token = client.start_control(network)
        bound = client._controls[token].source
        assert network.node_for_endpoint(bound) is client
        network.run()
        assert client.control_result(token).found
        assert client._lookup_ports == {}
        assert network.node_for_endpoint(bound) is None

        abandoned = client.start_control(network)
        bound = client._controls[abandoned].source
        client.discard_control(abandoned, network)
        assert client._lookup_ports == {}
        assert network.node_for_endpoint(bound) is None

    def test_without_late_binds_falls_back_to_shared_endpoint(self, fast_latencies):
        """On a network engine without ``bind_endpoint`` the control point
        keeps the legacy shared-socket, oldest-first behaviour."""
        network = SimulatedNetwork(latencies=fast_latencies, seed=71)
        network.bind_endpoint = None  # simulate a substrate without late binds
        device = UPnPDevice(
            ssdp_latency=LatencyModel(0.002, 0.002),
            http_latency=LatencyModel(0.002, 0.002),
        )
        network.attach(device)
        client = UPnPControlPoint(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)
        token = client.start_control(network)
        assert client._controls[token].source is None
        network.run()
        assert client.control_result(token).found


# ----------------------------------------------------------------------
# live in-place rescale (real sockets)
# ----------------------------------------------------------------------
import time as _time

from repro.network.aio import AsyncSocketNetwork
from repro.network.sockets import loopback_available

live_only = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


def _await_results(pairs, timeout: float = 10.0) -> bool:
    deadline = _time.monotonic() + timeout
    while _time.monotonic() < deadline:
        if all(client.lookup_result(key) is not None for client, key in pairs):
            return True
        _time.sleep(0.005)
    return False


@live_only
def test_live_scale_to_both_directions_byte_identical():
    """Acceptance: `AsyncLiveShardedRuntime.scale_to` works in both directions
    and a run that resizes 1 -> 3 -> 1 mid-traffic hands every client the
    exact bytes a fixed-shard run does."""
    from repro.evaluation.workloads import _live_bridge, _live_case_parts
    from repro.runtime.aio_live import AsyncLiveShardedRuntime

    def run_elastic_live():
        clients, service, target, _ = _live_case_parts(2, 9)
        runtime = AsyncLiveShardedRuntime.from_bridge(_live_bridge(2, 0.0), workers=1)
        network = AsyncSocketNetwork()
        try:
            runtime.deploy(network)
            network.attach(service)
            for client in clients:
                network.attach(client)

            batch1 = [(c, c.start_lookup(network, target)) for c in clients[:3]]
            assert _await_results(batch1)

            runtime.scale_to(3)
            assert runtime.worker_count == 3

            # Start traffic, then immediately drain: scale_to blocks until
            # the in-flight sessions on the tail workers complete.
            batch2 = [(c, c.start_lookup(network, target)) for c in clients[3:6]]
            runtime.scale_to(1)
            assert runtime.worker_count == 1
            assert _await_results(batch2)

            batch3 = [(c, c.start_lookup(network, target)) for c in clients[6:]]
            assert _await_results(batch3)

            assert runtime.worker_errors == []
            assert runtime.evicted_sessions == []
            assert len(runtime.sessions) == 9  # drain-retired workers count
            return {client.name: tuple(client.raw_responses) for client in clients}
        finally:
            runtime.undeploy()
            network.close()

    def run_fixed_live():
        clients, service, target, _ = _live_case_parts(2, 9)
        runtime = AsyncLiveShardedRuntime.from_bridge(_live_bridge(2, 0.0), workers=2)
        network = AsyncSocketNetwork()
        try:
            runtime.deploy(network)
            network.attach(service)
            for client in clients:
                network.attach(client)
            pairs = [(c, c.start_lookup(network, target)) for c in clients]
            assert _await_results(pairs)
            return {client.name: tuple(client.raw_responses) for client in clients}
        finally:
            runtime.undeploy()
            network.close()

    assert run_elastic_live() == run_fixed_live()


@live_only
def test_live_elastic_controller_runs_and_stops_cleanly():
    """The live control thread ticks against a deployed runtime without
    errors; unreachable watermarks mean it observes but never scales."""
    from repro.evaluation.workloads import _live_bridge, _live_case_parts
    from repro.runtime import LiveElasticController
    from repro.runtime.aio_live import AsyncLiveShardedRuntime

    clients, service, target, _ = _live_case_parts(2, 4)
    runtime = AsyncLiveShardedRuntime.from_bridge(_live_bridge(2, 0.0), workers=2)
    network = AsyncSocketNetwork()
    controller = LiveElasticController(
        runtime,
        Autoscaler(AutoscalerPolicy(scale_up_at=1e9, scale_down_at=0.0)),
        interval=0.02,
    )
    try:
        runtime.deploy(network)
        network.attach(service)
        for client in clients:
            network.attach(client)
        controller.start()
        pairs = [(c, c.start_lookup(network, target)) for c in clients]
        assert _await_results(pairs)
        _time.sleep(0.1)  # let a few control ticks observe the metrics
    finally:
        controller.stop()
        runtime.undeploy()
        network.close()
    assert controller.errors == []
    assert controller.decisions == []
    assert runtime.worker_count == 2
    assert runtime.worker_errors == []
