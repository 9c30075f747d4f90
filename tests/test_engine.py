"""Unit tests for the automata engine and λ-action registry (Section IV-B)."""

from __future__ import annotations

import pytest

from repro.bridges.specs import slp_to_bonjour_bridge
from repro.core.automata.merge import DeltaTransition, LambdaAction
from repro.core.engine.actions import ActionRegistry, default_action_registry
from repro.core.engine.automata_engine import AutomataEngine, SessionRecord
from repro.core.errors import ConfigurationError, EngineError
from repro.core.translation.logic import MessageFieldRef
from repro.network.addressing import Endpoint, Transport
from repro.network.latency import LatencyModel
from repro.protocols.mdns import BonjourResponder
from repro.protocols.slp import SLPUserAgent


@pytest.fixture
def deployed_engine(network):
    bridge = slp_to_bonjour_bridge()
    engine = bridge.deploy(network)
    network.attach(BonjourResponder(latency=LatencyModel(0.001, 0.001)))
    client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
    network.attach(client)
    return bridge, engine, client


class TestActionRegistry:
    def test_defaults_contain_set_host_and_noop(self):
        registry = default_action_registry()
        assert registry.has("set_host") and registry.has("noop")
        assert "set_host" in registry.names()

    def test_unknown_action_raises(self):
        delta = DeltaTransition("A", "a", "B", "b")
        with pytest.raises(EngineError):
            default_action_registry().execute("nope", None, delta, [])

    def test_register_custom_action(self):
        calls = []
        registry = ActionRegistry()
        registry.register("record", lambda engine, delta, values: calls.append(values))
        registry.execute("record", None, DeltaTransition("A", "a", "B", "b"), [1, 2])
        assert calls == [[1, 2]]

    def test_set_host_requires_argument(self, deployed_engine):
        _, engine, _ = deployed_engine
        delta = DeltaTransition("SLP", "s11", "mDNS", "s40")
        with pytest.raises(EngineError):
            default_action_registry().execute("set_host", engine, delta, [])

    def test_set_host_with_url_argument(self, deployed_engine):
        _, engine, _ = deployed_engine
        delta = DeltaTransition("SLP", "s11", "mDNS", "s40")
        default_action_registry().execute(
            "set_host", engine, delta, ["http://device.local:8080/d.xml"]
        )
        forced = engine.binding("mDNS").forced_destination
        assert forced == Endpoint("device.local", 8080, Transport.UDP)

    def test_set_host_with_host_and_port(self, deployed_engine):
        _, engine, _ = deployed_engine
        delta = DeltaTransition("SLP", "s11", "mDNS", "s40")
        default_action_registry().execute("set_host", engine, delta, ["host.local", 9000])
        assert engine.binding("mDNS").forced_destination.port == 9000

    def test_set_host_bad_port_raises(self, deployed_engine):
        _, engine, _ = deployed_engine
        delta = DeltaTransition("SLP", "s11", "mDNS", "s40")
        with pytest.raises(EngineError):
            default_action_registry().execute("set_host", engine, delta, ["h", "not-a-port"])


class TestAutomataEngine:
    def test_requires_an_mdl_per_automaton(self):
        bridge = slp_to_bonjour_bridge()
        with pytest.raises(ConfigurationError):
            AutomataEngine(bridge.merged, {"SLP": bridge.mdl_specs["SLP"]})

    def test_engine_joins_all_colour_groups_client_facing_first(self, deployed_engine):
        _, engine, _ = deployed_engine
        groups = engine.multicast_groups()
        # The client-facing SLP group comes first; the upstream mDNS group is
        # joined too, so multicast traffic for any protocol leg is observable.
        assert groups[0] == Endpoint("239.255.255.253", 427, Transport.UDP)
        assert Endpoint("224.0.0.251", 5353, Transport.UDP) in groups
        assert len(groups) == 2

    def test_one_local_endpoint_per_component_automaton(self, deployed_engine):
        _, engine, _ = deployed_engine
        endpoints = engine.unicast_endpoints()
        assert len(endpoints) == 2
        assert len({endpoint.port for endpoint in endpoints}) == 2

    def test_translation_context_exposes_bridge_endpoints(self, deployed_engine):
        _, engine, _ = deployed_engine
        context = engine.translation_context()
        assert set(context["bridge_endpoints"]) == {"SLP", "mDNS"}

    def test_initial_state_is_client_facing(self, deployed_engine):
        _, engine, _ = deployed_engine
        assert engine.current_state == ("SLP", "s10")

    def test_session_recorded_after_lookup(self, deployed_engine, network):
        bridge, engine, client = deployed_engine
        result = client.lookup(network, "service:test")
        assert result.found
        assert len(engine.sessions) == 1
        session = engine.sessions[0]
        assert session.received_names == ["SLP_SrvReq", "DNS_Response"]
        assert session.sent_names == ["DNS_Question", "SLP_SrvReply"]
        assert session.translation_time > 0
        assert session.messages_received == 2 and session.messages_sent == 2

    def test_engine_resets_between_sessions(self, deployed_engine, network):
        bridge, engine, client = deployed_engine
        client.lookup(network, "service:test")
        assert engine.current_state == ("SLP", "s10")
        client.lookup(network, "service:test")
        assert len(engine.sessions) == 2

    def test_unparseable_datagram_is_recorded_not_fatal(self, deployed_engine, network):
        _, engine, client = deployed_engine
        network.send(
            b"\xff\xff garbage",
            source=client.endpoint,
            destination=Endpoint("239.255.255.253", 427, Transport.UDP),
        )
        network.run()
        assert engine.parse_failures
        assert engine.current_state == ("SLP", "s10")

    def test_datagram_for_wrong_protocol_is_ignored(self, deployed_engine, network):
        _, engine, client = deployed_engine
        # A datagram aimed at the engine's mDNS endpoint while it expects SLP input.
        network.send(
            b"irrelevant",
            source=client.endpoint,
            destination=engine.local_endpoint("mDNS"),
        )
        network.run()
        assert list(engine.sessions) == []
        assert engine.current_state == ("SLP", "s10")

    def test_unknown_binding_raises(self, deployed_engine):
        _, engine, _ = deployed_engine
        with pytest.raises(EngineError):
            engine.binding("HTTP")

    def test_processing_delay_is_reflected_in_translation_time(self, network, fast_latencies):
        bridge = slp_to_bonjour_bridge(processing_delay=0.2)
        engine = bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.001, 0.001)))
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)
        client.lookup(network, "service:test")
        assert engine.sessions[0].translation_time >= 0.4  # two sends, 0.2 s each

    def test_session_record_translation_time_clamped(self):
        record = SessionRecord(started_at=5.0, finished_at=4.0)
        assert record.translation_time == 0.0
