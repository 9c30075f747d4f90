"""Tests for the sharded runtime: consistent hashing, the shard router,
worker aggregation, the periodic eviction sweep and per-session ephemeral
source ports.

The invariants pinned here are the ones ROADMAP.md states for the
concurrency model: the merged/coloured automata are shared read-only
across workers, one session never spans shards (sticky routing, also
across rebalances), multicast reaches whichever shard owns the waiting
session, and the aggregate of the sharded runtime equals the
single-engine results.
"""

from __future__ import annotations

import pytest

from repro.bridges.specs import (
    bonjour_to_upnp_bridge,
    slp_to_bonjour_bridge,
    upnp_to_bonjour_bridge,
)
from repro.core.engine.session import FieldCorrelator
from repro.core.errors import ConfigurationError
from repro.core.mdl.base import create_composer
from repro.core.message import AbstractMessage
from repro.evaluation.harness import measure_sharded_sessions, run_sharding
from repro.evaluation.tables import format_sharding
from repro.evaluation.workloads import concurrent_scenario, sharded_scenario
from repro.network.addressing import Endpoint, Transport
from repro.network.latency import CalibratedLatencies, LatencyModel
from repro.network.simulated import SimulatedNetwork
from repro.protocols.mdns import BonjourResponder
from repro.protocols.mdns.mdl import DNS_RESPONSE, DNS_RESPONSE_FLAGS, mdns_mdl
from repro.protocols.slp import SLPUserAgent
from repro.protocols.upnp import UPnPControlPoint, UPnPDevice
from repro.runtime import HashRing, ShardedRuntime, stable_hash


from case2_utils import SERVICE_URL, attach_clients as _attach_clients, deploy_case2


def _deploy_case2(network, workers, **kwargs):
    return deploy_case2(network, workers, **kwargs)


class TestHashRing:
    def test_mapping_is_deterministic_across_instances(self):
        first = HashRing(4)
        second = HashRing(4)
        keys = [("host-%d.local" % i, "XID", 1000 + i) for i in range(200)]
        assert [first.shard_for(k) for k in keys] == [second.shard_for(k) for k in keys]

    def test_stable_hash_is_process_independent(self):
        # BLAKE2 of the repr, not the salted builtin hash: pin one value so
        # a regression to hash() (PYTHONHASHSEED-dependent) fails loudly.
        assert stable_hash("starlink") == stable_hash("starlink")
        assert stable_hash(("a", 1)) != stable_hash(("a", 2))

    def test_every_shard_owns_keys(self):
        ring = HashRing(4)
        owners = {ring.shard_for(("key", i)) for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_growing_the_ring_remaps_only_a_fraction(self):
        small, large = HashRing(4), HashRing(5)
        keys = [("client-%d.local" % i, i) for i in range(1000)]
        moved = sum(1 for k in keys if small.shard_for(k) != large.shard_for(k))
        # Consistent hashing moves ~1/5 of the keys; modulo hashing would
        # move ~4/5.  Allow slack for replica-placement noise.
        assert moved < 400

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(4, replicas=0)


class TestShardRouting:
    def test_sessions_partition_across_workers(self, network):
        runtime = _deploy_case2(network, workers=4)
        network.attach(BonjourResponder(latency=LatencyModel(0.01, 0.01)))
        clients = _attach_clients(network, 12)
        xids = [client.start_lookup(network) for client in clients]
        network.run()

        for client, xid in zip(clients, xids):
            result = client.lookup_result(xid)
            assert result is not None and result.found
            assert result.url == SERVICE_URL
        assert len(runtime.sessions) == 12
        assert runtime.unrouted_datagrams == 0
        assert runtime.ignored_datagrams == 0
        # More than one shard did real work.
        busy = [count for count in runtime.worker_session_counts() if count]
        assert len(busy) >= 2
        assert sum(busy) == 12

    def test_one_session_never_spans_shards(self, network):
        runtime = _deploy_case2(network, workers=4)
        network.attach(BonjourResponder(latency=LatencyModel(0.05, 0.05)))
        clients = _attach_clients(network, 6)
        for client in clients:
            client.start_lookup(network)
        network.run_for(0.01)

        # Mid-flight: every session lives on exactly one worker, and the
        # router's sticky table agrees with where it actually is.
        router = runtime.router
        assert router is not None
        placements = {}
        for index, worker in enumerate(runtime.workers):
            for session in worker.active_sessions:
                assert session.key not in placements
                placements[session.key] = index
        assert len(placements) == 6
        for key, index in placements.items():
            assert router.shard_for_key(key) == index
        network.run()
        assert len(runtime.sessions) == 6

    def test_sticky_routing_survives_rebalance(self, network):
        runtime = _deploy_case2(network, workers=2)
        network.attach(BonjourResponder(latency=LatencyModel(0.05, 0.05)))
        clients = _attach_clients(network, 6)
        for client in clients:
            client.start_lookup(network)
        network.run_for(0.01)

        router = runtime.router
        before = {
            session.key: index
            for index, worker in enumerate(runtime.workers)
            for session in worker.active_sessions
        }
        assert len(before) == 6

        runtime.scale_to(5)
        assert router.worker_count == 5
        # In-flight sessions stay pinned to their original worker: the
        # sticky table still routes every live key to where it opened.
        for key, index in before.items():
            assert router.shard_for_key(key) == index

        network.run()
        assert len(runtime.sessions) == 6
        assert runtime.unrouted_datagrams == 0

    def test_scaled_up_workers_receive_new_sessions(self, network):
        runtime = _deploy_case2(network, workers=1)
        network.attach(BonjourResponder(latency=LatencyModel(0.01, 0.01)))
        first_batch = _attach_clients(network, 4)
        for client in first_batch:
            client.start_lookup(network)
        network.run()
        assert runtime.worker_session_counts() == [4]

        runtime.scale_to(4)
        second_batch = [
            SLPUserAgent(
                host=f"late-{index}.local",
                port=7000 + index,
                name=f"late-{index}",
                xid_start=4000 + index * 16,
            )
            for index in range(12)
        ]
        for client in second_batch:
            network.attach(client)
            client.start_lookup(network)
        network.run()
        counts = runtime.worker_session_counts()
        assert sum(counts) == 16
        assert sum(1 for count in counts[1:] if count) >= 1

    def test_multicast_fans_out_to_owning_shard(self, network):
        """A multicast reply on a non-initial colour group reaches the one
        shard whose session is waiting for it (satellite: fan-out to every
        shard's colour groups)."""
        runtime = _deploy_case2(network, workers=3)
        (client,) = _attach_clients(network, 1)
        xid = client.start_lookup(network)
        network.run_for(0.01)
        assert runtime.active_session_count == 1

        response = AbstractMessage(DNS_RESPONSE, protocol="mDNS")
        response.set("ID", xid, type_name="Integer")
        response.set("Flags", DNS_RESPONSE_FLAGS, type_name="Integer")
        response.set("ANCount", 1, type_name="Integer")
        response.set("AnswerName", "_test._tcp.local", type_name="FQDN")
        response.set("AType", 16, type_name="Integer")
        response.set("AClass", 1, type_name="Integer")
        response.set("TTL", 120, type_name="Integer")
        response.set("RDATA", SERVICE_URL, type_name="String")
        network.send(
            create_composer(mdns_mdl()).compose(response),
            source=Endpoint("adhoc-responder.local", 5353, Transport.UDP),
            destination=Endpoint("224.0.0.251", 5353, Transport.UDP),
        )
        network.run()

        result = client.lookup_result(xid)
        assert result is not None and result.found and result.url == SERVICE_URL
        assert len(runtime.sessions) == 1
        assert runtime.unrouted_datagrams == 0

    def test_router_joins_every_colour_group(self, network):
        runtime = _deploy_case2(network, workers=2)
        router = runtime.router
        assert router in network.group_members(Endpoint("224.0.0.251", 5353, Transport.UDP))
        assert router in network.group_members(Endpoint("239.255.255.253", 427, Transport.UDP))
        # Workers stay out of the groups: one datagram, one owner.
        for worker in runtime.workers:
            assert worker not in network.group_members(
                Endpoint("239.255.255.253", 427, Transport.UDP)
            )

    def test_worker_upstream_echo_is_dropped_not_consumed(self, network):
        runtime = _deploy_case2(network, workers=2)
        network.attach(BonjourResponder(latency=LatencyModel(0.01, 0.01)))
        clients = _attach_clients(network, 2)
        for client in clients:
            client.start_lookup(network)
        network.run()
        # The workers' translated mDNS questions echo into the group the
        # router joined; they must be dropped at the edge, not misrouted.
        assert runtime.router.echoes_dropped >= 2
        assert runtime.unrouted_datagrams == 0
        assert len(runtime.sessions) == 2

    def test_shared_model_is_the_same_object_across_workers(self, network):
        runtime = _deploy_case2(network, workers=3)
        merged = runtime.workers[0].merged
        assert all(worker.merged is merged for worker in runtime.workers)


class TestAggregateParity:
    def test_aggregate_stats_equal_single_engine_results(self, fast_latencies):
        """The sharded runtime serves the same workload with the same
        outcome as one engine: session count, message sequences, client
        attribution — only timing differs."""

        def stats(bridge_like, network, clients):
            xids = [client.start_lookup(network) for client in clients]
            network.run()
            assert all(
                client.lookup_result(xid) is not None and client.lookup_result(xid).found
                for client, xid in zip(clients, xids)
            )
            records = bridge_like.sessions
            return {
                "count": len(records),
                "names": sorted(
                    (tuple(r.received_names), tuple(r.sent_names)) for r in records
                ),
                "clients": {(r.client.host, r.client.port) for r in records},
                "unrouted": bridge_like.unrouted_datagrams,
                "ignored": bridge_like.ignored_datagrams,
            }

        single_net = SimulatedNetwork(latencies=fast_latencies, seed=11)
        bridge = slp_to_bonjour_bridge()
        bridge.deploy(single_net)
        single_net.attach(BonjourResponder(latency=LatencyModel(0.02, 0.02)))
        single = stats(bridge, single_net, _attach_clients(single_net, 9))

        sharded_net = SimulatedNetwork(latencies=fast_latencies, seed=11)
        runtime = _deploy_case2(sharded_net, workers=3)
        sharded_net.attach(BonjourResponder(latency=LatencyModel(0.02, 0.02)))
        sharded = stats(runtime, sharded_net, _attach_clients(sharded_net, 9))

        assert sharded == single

    def test_invalid_configurations_rejected(self, network):
        with pytest.raises(ConfigurationError):
            ShardedRuntime.from_bridge(slp_to_bonjour_bridge(), workers=0)
        runtime = _deploy_case2(network, workers=1)
        with pytest.raises(ConfigurationError):
            runtime.deploy(network)
        with pytest.raises(ConfigurationError):
            runtime.scale_to(0)
        fresh = ShardedRuntime.from_bridge(slp_to_bonjour_bridge(), workers=1)
        with pytest.raises(ConfigurationError):
            fresh.scale_to(2)

    def test_runtime_keeps_bridge_correlator(self, network):
        runtime = _deploy_case2(network, workers=2)
        for worker in runtime.workers:
            assert isinstance(worker.correlator, FieldCorrelator)


class TestEvictionSweep:
    def test_one_sweep_event_regardless_of_session_count(self, fast_latencies):
        """The satellite: eviction scheduling is one periodic sweep per
        engine, not one timer per session."""
        network = SimulatedNetwork(latencies=fast_latencies, seed=23)
        bridge = slp_to_bonjour_bridge(session_timeout=0.5)
        engine = bridge.deploy(network)
        clients = _attach_clients(network, 20)
        # No responder: all sessions stall right after the upstream send.
        for client in clients:
            client.start_lookup(network)
        network.run_for(0.05)
        assert len(engine.active_sessions) == 20
        # Everything still pending is the single eviction sweep.
        assert network.pending_events() == 1

        network.run()
        assert engine.active_sessions == []
        assert len(engine.evicted_sessions) == 20
        assert all(record.evicted for record in engine.evicted_sessions)

    def test_sweep_chain_stops_when_sessions_drain(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=29)
        bridge = slp_to_bonjour_bridge(session_timeout=0.3)
        engine = bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.01, 0.01)))
        (client,) = _attach_clients(network, 1)
        xid = client.start_lookup(network)
        network.run()
        assert client.lookup_result(xid).found
        assert engine.evicted_sessions == []
        # run() drained the queue: the sweeper rescheduled nothing.
        assert network.pending_events() == 0

    def test_sweeping_worker_engines_evict_independently(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=31)
        runtime = ShardedRuntime.from_bridge(
            slp_to_bonjour_bridge(session_timeout=0.4),
            workers=3,
        )
        runtime.deploy(network)
        clients = _attach_clients(network, 6)
        for client in clients:
            client.start_lookup(network)
        network.run()
        assert runtime.active_session_count == 0
        assert len(runtime.evicted_sessions) == 6


class TestEphemeralPorts:
    def _deploy_case5(self, fast_latencies, seed=37, **kwargs):
        network = SimulatedNetwork(latencies=fast_latencies, seed=seed)
        bridge = bonjour_to_upnp_bridge(**kwargs)
        engine = bridge.deploy(network)
        network.attach(
            UPnPDevice(
                ssdp_latency=LatencyModel(0.002, 0.003),
                http_latency=LatencyModel(0.002, 0.003),
            )
        )
        return network, engine

    def test_upstream_replies_attributed_by_source_port(self, fast_latencies):
        """SSDP/HTTP carry no transaction identifier; the per-session
        source port attributes their replies exactly (satellite: no FIFO
        fallback on those legs)."""
        network, engine = self._deploy_case5(fast_latencies)
        from repro.protocols.mdns import BonjourBrowser

        browsers = [
            BonjourBrowser(
                host=f"browser-{i}.local",
                port=6100 + i,
                name=f"browser-{i}",
                query_id_start=3000 + i * 16,
            )
            for i in range(3)
        ]
        for browser in browsers:
            network.attach(browser)
        ids = [browser.start_lookup(network) for browser in browsers]
        network.run()

        for browser, query_id in zip(browsers, ids):
            result = browser.lookup_result(query_id)
            assert result is not None and result.found
        assert len(engine.sessions) == 3
        # Both UPnP legs (SSDP response + HTTP OK) of every session came
        # back on a per-session port.
        assert engine.ephemeral_hits == 6
        assert engine.unrouted_datagrams == 0

    def test_ephemeral_routes_released_with_the_session(self, fast_latencies):
        network, engine = self._deploy_case5(fast_latencies, seed=41)
        from repro.protocols.mdns import BonjourBrowser

        browser = BonjourBrowser(query_id_start=5000)
        network.attach(browser)
        query_id = browser.start_lookup(network)
        network.run()
        assert browser.lookup_result(query_id).found
        assert engine._ephemeral_routes == {}
        # And the simulated network no longer delivers to the released port.
        assert all(
            network.node_for_endpoint(endpoint) is not engine
            or endpoint in engine.unicast_endpoints()
            for endpoint in engine.unicast_endpoints()
        )

    def test_released_ephemeral_ports_quarantined_then_reused(self, fast_latencies):
        """Closed sessions return their ports to a free list, but only
        after a TIME_WAIT-style quarantine: a late reply for a dead
        session must never land on a new session that inherited its port,
        while a long-running engine still stays inside its port range."""
        network, engine = self._deploy_case5(fast_latencies, seed=53)
        from repro.protocols.mdns import BonjourBrowser

        browser = BonjourBrowser(query_id_start=7000)
        network.attach(browser)

        def run_lookup():
            query_id = browser.start_lookup(network)
            network.run_for(0.005)
            ports = sorted(
                endpoint.port
                for session in engine.active_sessions
                for endpoint in session.ephemeral_sources.values()
            )
            network.run()
            assert browser.lookup_result(query_id).found
            return ports

        first = run_lookup()
        # Immediately after release the ports are quarantined: the next
        # session allocates fresh ones.
        second = run_lookup()
        assert not set(first) & set(second)
        # Once the quarantine (a session-timeout's worth of virtual time)
        # has elapsed, the oldest released ports are reused FIFO.
        network.run_for(engine.session_timeout + 1.0)
        third = run_lookup()
        assert third == first

    def test_feature_can_be_disabled(self, fast_latencies):
        network, engine = self._deploy_case5(
            fast_latencies, seed=43, ephemeral_ports=False
        )
        from repro.protocols.mdns import BonjourBrowser

        browser = BonjourBrowser(query_id_start=6000)
        network.attach(browser)
        query_id = browser.start_lookup(network)
        network.run()
        assert browser.lookup_result(query_id).found
        assert engine.ephemeral_hits == 0


class TestUPnPConcurrency:
    def test_nonblocking_control_point_two_leg_dialog(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=47)
        device = UPnPDevice(
            ssdp_latency=LatencyModel(0.005, 0.005),
            http_latency=LatencyModel(0.005, 0.005),
        )
        network.attach(device)
        client = UPnPControlPoint(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)

        token = client.start_control(network, "urn:schemas-upnp-org:service:test:1")
        assert client.control_result(token) is None
        network.run()
        result = client.control_result(token)
        assert result is not None and result.found
        assert result.url == device.service_url
        assert client.lookup_started_at(token) == 0.0
        handled = [name for _, name in device.handled]
        assert handled == ["SSDP_M-Search", "HTTP_GET"]

    def test_timed_out_lookup_cannot_steal_the_next_ones_response(self, fast_latencies):
        """A lookup abandoned by timeout must not leave a pending control
        that would swallow a later lookup's SSDP response."""
        network = SimulatedNetwork(latencies=fast_latencies, seed=59)
        client = UPnPControlPoint(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)
        # No device on the network: the first, blocking lookup times out.
        first = client.lookup(network, timeout=0.05)
        assert not first.found

        device = UPnPDevice(
            ssdp_latency=LatencyModel(0.002, 0.002),
            http_latency=LatencyModel(0.002, 0.002),
        )
        network.attach(device)
        second = client.lookup(network, timeout=1.0)
        assert second.found and second.url == device.service_url

    def test_upnp_cases_join_the_concurrency_sweep(self):
        scenario = concurrent_scenario(4, clients=8)
        result = scenario.run()
        assert result.all_found
        assert result.unrouted_datagrams == 0
        assert len(scenario.bridge.sessions) == 8
        # Control points send each lookup from a per-lookup ephemeral port,
        # so sessions are attributed per client *host* (unique per client)
        # while the recorded port is the lookup's own source port.
        recorded = {record.client.host for record in scenario.bridge.sessions}
        expected = {client.endpoint.host for client in scenario.clients}
        assert recorded == expected
        # The sessions genuinely overlapped.
        assert result.makespan < 0.5 * sum(result.translation_times)

    def test_upnp_case_shards_with_fanned_out_http_leg(self):
        scenario = sharded_scenario(4, clients=8, workers=3)
        result = scenario.run()
        assert result.all_found
        assert result.unrouted_datagrams == 0
        runtime = scenario.bridge
        assert sum(runtime.worker_session_counts()) == 8


class TestShardingHarness:
    @pytest.fixture
    def sweep_latencies(self, fast_latencies) -> CalibratedLatencies:
        """Fast services but a real per-message translation cost, so the
        serialised worker model has something to parallelise."""
        return CalibratedLatencies(
            link=LatencyModel(0.0001, 0.0002),
            slp_service=LatencyModel(0.001, 0.002),
            mdns_service=LatencyModel(0.01, 0.012),
            ssdp_service=LatencyModel(0.001, 0.002),
            http_service=LatencyModel(0.001, 0.002),
            slp_client_overhead=LatencyModel(0.0, 0.0),
            mdns_client_overhead=LatencyModel(0.0, 0.0),
            upnp_client_overhead=LatencyModel(0.0, 0.0),
            bridge_processing=LatencyModel(0.004, 0.004),
        )

    def test_measure_sharded_sessions_row(self, sweep_latencies):
        row = measure_sharded_sessions(2, clients=20, workers=4, latencies=sweep_latencies)
        assert row.completed == 20
        assert row.workers == 4
        assert row.unrouted == 0
        assert sum(row.worker_sessions) == 20
        assert row.throughput > 0
        serialised = row.as_row()
        assert serialised["workers"] == 4 and serialised["completed"] == 20

    def test_run_sharding_throughput_scales_with_workers(self, sweep_latencies):
        rows = run_sharding(
            case=2, clients=40, worker_counts=(1, 4), latencies=sweep_latencies
        )
        one, four = rows
        assert one.speedup == pytest.approx(1.0)
        assert four.throughput > 1.5 * one.throughput
        assert four.speedup == pytest.approx(four.throughput / one.throughput)
        # Queueing delay shrinks with more workers.
        assert four.median_translation_ms < one.median_translation_ms

    def test_format_sharding_table(self, sweep_latencies):
        rows = run_sharding(
            case=2, clients=10, worker_counts=(1, 2), latencies=sweep_latencies
        )
        text = format_sharding(rows)
        assert "Workers" in text and "Speedup" in text and "Shard balance" in text
        assert "2. SLP to Bonjour" in text


class TestRouterCostModel:
    """The router's classify-and-place cost is *measured* in real seconds
    on either runtime; no clock models it."""

    def test_unmodelled_router_charges_nothing(self, network):
        runtime = _deploy_case2(network, workers=2)
        network.attach(BonjourResponder(latency=LatencyModel(0.01, 0.01)))
        (client,) = _attach_clients(network, 1)
        xid = client.start_lookup(network)
        network.run()
        assert client.lookup_result(xid).found
        metrics = runtime.router.metrics()
        assert metrics.classify_seconds > 0.0  # the measured cost
        assert metrics.as_row()["classify_cost_avg_us"] > 0.0


