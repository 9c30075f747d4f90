"""Interleaved-session tests for the session-multiplexed Automata Engine.

The seed engine held one global ``(automaton, state)`` cursor and silently
dropped datagrams from a second client arriving while the first session was
mid-flight.  These tests pin the fix: overlapping legacy clients each get
their own session, their own correctly translated response, and nothing is
dropped by the engine; plus regression tests for multicast dispatch,
colour-selection determinism and idle-session eviction.
"""

from __future__ import annotations

import pytest

from repro.bridges.specs import slp_to_bonjour_bridge
from repro.core.automata.color import NetworkColor
from repro.core.automata.colored import ColoredAutomaton
from repro.core.automata.merge import MergedAutomaton
from repro.core.engine.automata_engine import AutomataEngine
from repro.core.engine.session import EndpointCorrelator, FieldCorrelator
from repro.core.errors import AutomatonError
from repro.core.mdl.base import create_composer
from repro.core.message import AbstractMessage
from repro.core.translation.logic import TranslationLogic
from repro.evaluation.workloads import concurrent_scenario
from repro.network.addressing import Endpoint, Transport
from repro.network.latency import LatencyModel
from repro.network.simulated import SimulatedNetwork
from repro.protocols.mdns import BonjourResponder
from repro.protocols.mdns.mdl import DNS_RESPONSE, DNS_RESPONSE_FLAGS, mdns_mdl
from repro.protocols.slp import SLPUserAgent, slp_mdl
from repro.protocols.slp.mdl import SLP_SRVREQ


SERVICE_URL = "http://bonjour-service.local:9000/service"


@pytest.fixture
def bridged_network(network):
    """A case-2 bridge with a slow-ish responder, so sessions stay open
    long enough for clients to interleave."""
    bridge = slp_to_bonjour_bridge()
    engine = bridge.deploy(network)
    network.attach(BonjourResponder(latency=LatencyModel(0.05, 0.05)))
    return network, bridge, engine


def _attach_clients(network, count):
    clients = [
        SLPUserAgent(host=f"client-{i}.local", port=6000 + i, name=f"client-{i}")
        for i in range(count)
    ]
    for client in clients:
        network.attach(client)
    return clients


class TestInterleavedSessions:
    def test_second_client_mid_flight_is_served_not_dropped(self, bridged_network):
        network, bridge, engine = bridged_network
        first, second = _attach_clients(network, 2)

        xid_first = first.start_lookup(network)
        network.run_for(0.01)
        # First session is mid-flight, waiting for the mDNS response.
        assert len(engine.active_sessions) == 1
        assert engine.active_sessions[0].current == ("mDNS", "s41")

        xid_second = second.start_lookup(network)
        network.run_until(
            lambda: first.lookup_result(xid_first) is not None
            and second.lookup_result(xid_second) is not None,
            timeout=5.0,
        )

        for client, xid in ((first, xid_first), (second, xid_second)):
            result = client.lookup_result(xid)
            assert result is not None and result.found
            assert result.url == SERVICE_URL
        assert engine.unrouted_datagrams == 0
        assert engine.ignored_datagrams == 0

    def test_sessions_attributed_to_their_clients(self, bridged_network):
        network, bridge, engine = bridged_network
        clients = _attach_clients(network, 3)
        xids = [client.start_lookup(network) for client in clients]
        network.run_until(
            lambda: all(
                client.lookup_result(xid) is not None
                for client, xid in zip(clients, xids)
            ),
            timeout=5.0,
        )
        assert len(engine.sessions) == 3
        recorded = {(record.client.host, record.client.port) for record in engine.sessions}
        expected = {(client.endpoint.host, client.endpoint.port) for client in clients}
        assert recorded == expected
        for record in engine.sessions:
            assert record.received_names == ["SLP_SrvReq", "DNS_Response"]
            assert record.sent_names == ["DNS_Question", "SLP_SrvReply"]

    def test_ten_plus_overlapping_clients_zero_engine_drops(self):
        """The acceptance scenario: >= 10 overlapping legacy clients, every
        session completes, correct attribution, nothing dropped."""
        scenario = concurrent_scenario(2, clients=12)
        result = scenario.run()

        assert result.all_found
        assert result.unrouted_datagrams == 0
        assert result.ignored_datagrams == 0
        assert len(scenario.bridge.sessions) == 12

        recorded = {
            (record.client.host, record.client.port)
            for record in scenario.bridge.sessions
        }
        expected = {
            (client.endpoint.host, client.endpoint.port)
            for client in scenario.clients
        }
        assert recorded == expected
        # The sessions genuinely overlapped: the whole batch finished far
        # faster than running the translations back to back.
        assert result.makespan < 0.5 * sum(result.translation_times)

    def test_throughput_scales_with_client_count(self):
        single = concurrent_scenario(2, clients=1, seed=11).run()
        many = concurrent_scenario(2, clients=10, seed=11).run()
        assert single.all_found and many.all_found
        assert many.throughput > 5.0 * single.throughput


class TestCorrelation:
    def test_field_correlator_tracks_client_across_address_change(self, bridged_network):
        """The same XID from a different source port lands in the same
        session (mDNS/DNS-style correlation across address changes)."""
        network, bridge, engine = bridged_network
        composer = create_composer(slp_mdl())
        request = AbstractMessage(SLP_SRVREQ, protocol="SLP")
        request.set("Version", 2, type_name="Integer")
        request.set("XID", 777, type_name="Integer")
        request.set("LangTag", "en", type_name="String")
        request.set("SRVType", "service:test", type_name="String")
        group = Endpoint("239.255.255.253", 427, Transport.UDP)

        payload = composer.compose(request)
        network.send(payload, source=Endpoint("roaming.local", 7000, Transport.UDP), destination=group)
        network.send(payload, source=Endpoint("roaming.local", 7001, Transport.UDP), destination=group)
        network.run()

        # One session, not two: the retransmission was correlated by XID
        # (the engine was mid-flight, so the duplicate is counted ignored).
        assert len(engine.sessions) == 1
        assert engine.ignored_datagrams == 1
        assert engine.unrouted_datagrams == 0

    def test_endpoint_correlator_opens_one_session_per_source(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=31)
        bridge = slp_to_bonjour_bridge(correlator=EndpointCorrelator())
        engine = bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.01, 0.01)))
        clients = _attach_clients(network, 2)
        for client in clients:
            client.start_lookup(network)
        network.run()
        assert len(engine.sessions) == 2

    def test_default_bridge_correlator_is_field_based(self):
        bridge = slp_to_bonjour_bridge()
        assert isinstance(bridge.correlator, FieldCorrelator)
        assert bridge.correlator.fields["SLP_SrvReq"] == "XID"
        assert bridge.correlator.fields["DNS_Response"] == "ID"

    def test_same_xid_from_different_hosts_opens_two_sessions(self, network):
        """Independent clients can pick the same 16-bit XID; they must not
        collide into one session (the key is scoped by source host)."""
        bridge = slp_to_bonjour_bridge()
        engine = bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.05, 0.05)))
        clients = _attach_clients(network, 2)

        composer = create_composer(slp_mdl())
        for client in clients:
            request = AbstractMessage(SLP_SRVREQ, protocol="SLP")
            request.set("Version", 2, type_name="Integer")
            request.set("XID", 42, type_name="Integer")
            request.set("LangTag", "en", type_name="String")
            request.set("SRVType", "service:test", type_name="String")
            network.send(
                composer.compose(request),
                source=client.endpoint,
                destination=Endpoint("239.255.255.253", 427, Transport.UDP),
            )
        network.run()

        assert len(engine.sessions) == 2
        recorded = {(record.client.host, record.client.port) for record in engine.sessions}
        assert recorded == {(c.endpoint.host, c.endpoint.port) for c in clients}
        # Both clients got their reply back.
        for client in clients:
            assert any(m.name == "SLP_SrvReply" for _, m, _ in client.responses)

    def test_blocking_lookup_does_not_lose_nonblocking_results(self, bridged_network):
        """A blocking lookup() clears the response buffer; results already
        received for start_lookup() requests must survive."""
        network, bridge, engine = bridged_network
        (client,) = _attach_clients(network, 1)
        xid = client.start_lookup(network)
        network.run_until(lambda: client.lookup_result(xid) is not None, timeout=5.0)
        assert client.lookup(network, "service:test").found  # clears _responses
        result = client.lookup_result(xid)
        assert result is not None and result.found and result.url == SERVICE_URL


class TestMulticastDispatch:
    def test_multicast_reply_dispatches_to_non_initial_automaton(self, network):
        """A datagram to the *mDNS* group must reach the mDNS automaton —
        the seed only ever dispatched multicast to the initial one."""
        bridge = slp_to_bonjour_bridge()
        engine = bridge.deploy(network)
        (client,) = _attach_clients(network, 1)

        xid = client.start_lookup(network)
        network.run_for(0.01)
        assert engine.active_sessions[0].current == ("mDNS", "s41")

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
        assert result is not None and result.found
        assert result.url == SERVICE_URL
        assert len(engine.sessions) == 1

    def test_engine_joins_every_colour_group(self, network):
        bridge = slp_to_bonjour_bridge()
        engine = bridge.deploy(network)
        assert engine in network.group_members(Endpoint("224.0.0.251", 5353, Transport.UDP))
        assert engine in network.group_members(Endpoint("239.255.255.253", 427, Transport.UDP))


class TestColourSelection:
    def test_single_color_is_deterministic(self):
        bridge = slp_to_bonjour_bridge()
        slp = bridge.merged.automaton("SLP")
        color = slp.single_color()
        assert color.group == "239.255.255.253"
        assert color.port == 427

    def test_multi_coloured_automaton_fails_loudly_at_binding(self, fast_latencies):
        ambiguous = ColoredAutomaton("Ambiguous", protocol="SLP")
        ambiguous.add_state("a", NetworkColor.udp_multicast("239.1.1.1", 1111), initial=True)
        ambiguous.add_state("b", NetworkColor.udp_multicast("239.2.2.2", 2222))
        merged = MergedAutomaton("ambiguous", [ambiguous], TranslationLogic())
        with pytest.raises(AutomatonError, match="distinct colours"):
            AutomataEngine(merged, {"Ambiguous": slp_mdl()})

    def test_empty_automaton_has_no_colour(self):
        with pytest.raises(AutomatonError, match="no states"):
            ColoredAutomaton("Empty").single_color()


class TestEviction:
    def test_idle_session_is_evicted_and_engine_recovers(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=23)
        bridge = slp_to_bonjour_bridge(session_timeout=0.5)
        engine = bridge.deploy(network)
        (client,) = _attach_clients(network, 1)

        # No responder attached: the session stalls awaiting the mDNS reply.
        client.start_lookup(network)
        network.run_for(0.01)
        assert len(engine.active_sessions) == 1
        network.run()

        assert engine.active_sessions == []
        assert list(engine.sessions) == []
        assert len(engine.evicted_sessions) == 1
        evicted = engine.evicted_sessions[0]
        assert evicted.evicted
        assert evicted.received_names == ["SLP_SrvReq"]

        # With a responder in place, the recovered engine serves cleanly.
        network.attach(BonjourResponder(latency=LatencyModel(0.001, 0.001)))
        assert client.lookup(network, "service:test").found

    def test_activity_defers_eviction(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=29)
        bridge = slp_to_bonjour_bridge(session_timeout=0.2)
        engine = bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.15, 0.15)))
        (client,) = _attach_clients(network, 1)
        # The responder answers within the timeout, so the session completes
        # normally instead of being evicted.
        xid = client.start_lookup(network)
        network.run()
        assert client.lookup_result(xid).found
        assert list(engine.evicted_sessions) == []
        assert len(engine.sessions) == 1
