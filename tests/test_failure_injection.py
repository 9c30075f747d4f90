"""Failure-injection tests: the framework degrades gracefully, never wedges.

The paper deploys Starlink transparently in the network; a realistic
deployment sees lost datagrams, absent services, malformed traffic and
clients that give up and retry.  These tests check that the bridge and the
legacy endpoints handle those conditions without corrupting their state —
after any failed interaction, the next clean lookup still succeeds.
"""

from __future__ import annotations

import pytest

from repro.bridges.specs import BRIDGE_BUILDERS
from repro.core.automata.merge import MergedAutomaton
from repro.core.engine.automata_engine import AutomataEngine
from repro.core.errors import EngineError
from repro.network.addressing import Endpoint, Transport
from repro.network.latency import LatencyModel
from repro.network.simulated import SimulatedNetwork
from repro.protocols.mdns import BonjourResponder
from repro.protocols.slp import SLPUserAgent, slp_mdl, slp_responder_automaton


class TestPacketLoss:
    def test_total_loss_fails_cleanly_and_recovery_works(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=13)
        bridge = BRIDGE_BUILDERS[2]()
        engine = bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.001, 0.001)))
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)

        network.loss_rate = 1.0
        assert not client.lookup(network, "service:test", timeout=0.3).found
        assert network.dropped >= 1

        # The bridge may have a half-finished session; a clean lookup after
        # the loss episode must still be answered.
        network.loss_rate = 0.0
        engine.reset_session()
        result = client.lookup(network, "service:test")
        assert result.found

    def test_client_retry_after_drop_succeeds(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=17)
        bridge = BRIDGE_BUILDERS[2]()
        engine = bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.001, 0.001)))
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)

        # Drop everything for the first attempt only.
        network.loss_rate = 1.0
        client.lookup(network, "service:test", timeout=0.2)
        network.loss_rate = 0.0
        engine.reset_session()

        attempts = 0
        result = None
        while attempts < 3:
            attempts += 1
            result = client.lookup(network, "service:test", timeout=2.0)
            if result.found:
                break
        assert result is not None and result.found
        assert attempts <= 3


class TestMalformedTraffic:
    def test_garbage_floods_do_not_break_subsequent_lookups(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=19)
        bridge = BRIDGE_BUILDERS[2]()
        engine = bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.001, 0.001)))
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)

        group = Endpoint("239.255.255.253", 427, Transport.UDP)
        for payload in (b"", b"\x00", b"\xff" * 64, b"GET / HTTP/1.1\r\n\r\n"):
            network.send(payload, source=client.endpoint, destination=group)
        network.run()
        assert engine.parse_failures  # recorded, not fatal

        assert client.lookup(network, "service:test").found

    def test_wrong_protocol_on_bridge_port_is_ignored(self, fast_latencies):
        network = SimulatedNetwork(latencies=fast_latencies, seed=19)
        bridge = BRIDGE_BUILDERS[2]()
        engine = bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.001, 0.001)))
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)

        # A valid *mDNS* packet delivered while the bridge expects SLP input.
        from repro.core.mdl.base import create_composer
        from repro.core.message import AbstractMessage
        from repro.protocols.mdns.mdl import DNS_QUESTION, mdns_mdl

        question = AbstractMessage(DNS_QUESTION)
        question.set("DomainName", "_test._tcp.local", type_name="FQDN")
        network.send(
            create_composer(mdns_mdl()).compose(question),
            source=client.endpoint,
            destination=engine.local_endpoint("mDNS"),
        )
        network.run()
        assert list(engine.sessions) == []
        assert client.lookup(network, "service:test").found


class TestEngineEdgeCases:
    def test_send_without_known_destination_raises(self, fast_latencies):
        """A requester automaton with a unicast colour, no peer and no set_host
        has nowhere to send — the engine reports it instead of guessing."""
        from repro.core.automata.color import NetworkColor
        from repro.core.automata.colored import ColoredAutomaton
        from repro.core.translation.logic import TranslationLogic

        color = NetworkColor.udp_unicast(4321)
        lonely = ColoredAutomaton("Lonely", protocol="SLP")
        lonely.add_state("x0", color, initial=True)
        lonely.add_state("x1", color)
        lonely.send("x0", "SLP_SrvReq", "x1")
        merged = MergedAutomaton("lonely", [lonely], TranslationLogic())

        network = SimulatedNetwork(latencies=fast_latencies)
        engine = AutomataEngine(merged, {"Lonely": slp_mdl()})
        network.attach(engine)
        session = engine.open_session()
        with pytest.raises(EngineError):
            engine._advance(network, session)  # noqa: SLF001 - deliberately driving the internals

    def test_duplicate_responses_do_not_create_extra_sessions(self, fast_latencies):
        """Two Bonjour responders both answer; the bridge serves the client once
        and ignores the late duplicate."""
        network = SimulatedNetwork(latencies=fast_latencies, seed=29)
        bridge = BRIDGE_BUILDERS[2]()
        bridge.deploy(network)
        network.attach(BonjourResponder(latency=LatencyModel(0.001, 0.001)))
        network.attach(
            BonjourResponder(
                host="bonjour-service-2.local",
                latency=LatencyModel(0.05, 0.05),
                name="bonjour-service-2",
            )
        )
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)
        result = client.lookup(network, "service:test")
        network.run()  # let the slower duplicate arrive
        assert result.found
        assert len(bridge.sessions) == 1
