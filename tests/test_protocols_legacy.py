"""Tests for the simulated legacy protocol endpoints (the case-study substrates)."""

from __future__ import annotations

import pytest

from repro.network.latency import LatencyModel
from repro.protocols.mdns import BonjourBrowser, BonjourResponder
from repro.protocols.slp import SLPServiceAgent, SLPUserAgent
from repro.protocols.upnp import UPnPControlPoint, UPnPDevice, description_body


class TestSLPLegacy:
    def test_lookup_succeeds(self, network):
        service = SLPServiceAgent(latency=LatencyModel(0.001, 0.001))
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(service)
        network.attach(client)
        result = client.lookup(network, "service:test")
        assert result.found
        assert result.url.startswith("service:test://")
        assert result.response_time > 0
        assert service.handled and service.handled[0].name == "SLP_SrvReq"

    def test_lookup_unknown_service_times_out(self, network):
        network.attach(SLPServiceAgent(latency=LatencyModel(0.001, 0.001)))
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(client)
        result = client.lookup(network, "service:unknown", timeout=0.5)
        assert not result.found
        assert result.response_time >= 0.5

    def test_register_additional_service(self, network):
        service = SLPServiceAgent(latency=LatencyModel(0.001, 0.001))
        service.register("service:printer", "service:printer://p:631")
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(service)
        network.attach(client)
        assert client.lookup(network, "service:printer").url == "service:printer://p:631"

    def test_xid_matches_request(self, network):
        service = SLPServiceAgent(latency=LatencyModel(0.001, 0.001))
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(service)
        network.attach(client)
        client.lookup(network, "service:test")
        request_xid = service.handled[0]["XID"]
        reply_xid = client.responses[0][1]["XID"]
        assert request_xid == reply_xid

    def test_service_latency_governs_response_time(self, fast_latencies):
        from repro.network.simulated import SimulatedNetwork

        network = SimulatedNetwork(latencies=fast_latencies, seed=5)
        service = SLPServiceAgent(latency=LatencyModel(1.0, 1.0))
        client = SLPUserAgent(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(service)
        network.attach(client)
        result = client.lookup(network, "service:test")
        assert result.response_time >= 1.0


class TestBonjourLegacy:
    def test_lookup_succeeds(self, network):
        responder = BonjourResponder(latency=LatencyModel(0.001, 0.001))
        browser = BonjourBrowser(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(responder)
        network.attach(browser)
        result = browser.lookup(network, "_test._tcp.local")
        assert result.found
        assert result.url.startswith("http://")

    def test_unknown_service_not_answered(self, network):
        responder = BonjourResponder(latency=LatencyModel(0.001, 0.001))
        browser = BonjourBrowser(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(responder)
        network.attach(browser)
        assert not browser.lookup(network, "_absent._tcp.local", timeout=0.3).found
        assert responder.ignored >= 1

    def test_response_echoes_question_id(self, network):
        responder = BonjourResponder(latency=LatencyModel(0.001, 0.001))
        browser = BonjourBrowser(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(responder)
        network.attach(browser)
        browser.lookup(network, "_test._tcp.local")
        question_id = responder.handled[0]["ID"]
        assert browser.responses[0][1]["ID"] == question_id

    def test_client_overhead_added_to_response_time(self, network):
        responder = BonjourResponder(latency=LatencyModel(0.001, 0.001))
        browser = BonjourBrowser(client_overhead=LatencyModel(0.5, 0.5))
        network.attach(responder)
        network.attach(browser)
        assert browser.lookup(network, "_test._tcp.local").response_time >= 0.5


class TestUPnPLegacy:
    def test_lookup_succeeds_with_two_phases(self, network):
        device = UPnPDevice(
            ssdp_latency=LatencyModel(0.001, 0.001), http_latency=LatencyModel(0.001, 0.001)
        )
        control_point = UPnPControlPoint(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(device)
        network.attach(control_point)
        result = control_point.lookup(network, "urn:schemas-upnp-org:service:test:1")
        assert result.found
        assert result.url == device.service_url
        assert [kind for kind, _ in device.handled] == ["SSDP", "HTTP"]

    def test_ssdp_all_is_answered(self, network):
        device = UPnPDevice(
            ssdp_latency=LatencyModel(0.001, 0.001), http_latency=LatencyModel(0.001, 0.001)
        )
        control_point = UPnPControlPoint(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(device)
        network.attach(control_point)
        assert control_point.lookup(network, "ssdp:all").found

    def test_description_body_contains_urlbase(self):
        body = description_body("http://h:9000/service")
        assert "<URLBase>http://h:9000/service</URLBase>" in body

    def test_unrelated_search_target_ignored(self, network):
        device = UPnPDevice(
            ssdp_latency=LatencyModel(0.001, 0.001), http_latency=LatencyModel(0.001, 0.001)
        )
        control_point = UPnPControlPoint(client_overhead=LatencyModel(0.0, 0.0))
        network.attach(device)
        network.attach(control_point)
        result = control_point.lookup(
            network, "urn:schemas-upnp-org:service:printer:1", timeout=0.3
        )
        assert not result.found

    def test_location_points_at_device_http_endpoint(self, network):
        device = UPnPDevice(http_port=8123)
        assert device.location.endswith(":8123/description.xml")


def test_live_latency_samples_vary_and_degenerate_models_draw_nothing():
    """A live network has no seeded ``rng``: each node keeps its own
    generator, so a ranged model's samples differ from reply to reply,
    and a single-valued model leaves that generator untouched."""
    from repro.network.aio import AsyncSocketNetwork
    from repro.protocols.common import rng_for, sample_latency

    network = AsyncSocketNetwork(host="127.0.0.1", use_uvloop=False)
    try:
        service = BonjourResponder(latency=LatencyModel(0.001, 0.005))
        samples = [sample_latency(network, service.latency, service) for _ in range(20)]
        assert len(set(samples)) >= 2
        assert all(0.001 <= sample <= 0.005 for sample in samples)
        fixed = BonjourResponder(latency=LatencyModel(0.002, 0.002))
        state = rng_for(network, fixed).getstate()
        assert sample_latency(network, fixed.latency, fixed) == 0.002
        assert rng_for(network, fixed).getstate() == state
    finally:
        network.close()
