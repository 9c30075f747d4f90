"""End-to-end integration tests: the six case-study interoperations (Section V).

Each test deploys the Starlink bridge between a legacy client of one
protocol and a legacy service of another and checks that the client's
lookup is answered — the paper's transparency claim — plus case-specific
assertions about what flowed through the bridge.
"""

from __future__ import annotations

import pytest

from repro.bridges.registry import default_registry
from repro.bridges.specs import BRIDGE_BUILDERS
from repro.core.errors import EngineError
from repro.network.latency import LatencyModel
from repro.network.simulated import SimulatedNetwork
from repro.network.aio import AsyncSocketNetwork
from repro.network.sockets import loopback_available
from repro.protocols.mdns import BonjourBrowser, BonjourResponder
from repro.protocols.slp import SLPServiceAgent, SLPUserAgent
from repro.protocols.upnp import UPnPControlPoint, UPnPDevice
from repro.runtime.aio_live import AsyncLiveShardedRuntime

_FAST = LatencyModel(0.001, 0.002)
_NONE = LatencyModel(0.0, 0.0)


def _network(fast_latencies) -> SimulatedNetwork:
    return SimulatedNetwork(latencies=fast_latencies, seed=23)


def _slp_client() -> SLPUserAgent:
    return SLPUserAgent(client_overhead=_NONE)


def _bonjour_client() -> BonjourBrowser:
    return BonjourBrowser(client_overhead=_NONE)


def _upnp_client() -> UPnPControlPoint:
    return UPnPControlPoint(client_overhead=_NONE)


def _slp_service() -> SLPServiceAgent:
    return SLPServiceAgent(latency=_FAST)


def _bonjour_service() -> BonjourResponder:
    return BonjourResponder(latency=_FAST)


def _upnp_service() -> UPnPDevice:
    return UPnPDevice(ssdp_latency=_FAST, http_latency=_FAST)


class TestCase1SlpToUpnp:
    def test_slp_client_discovers_upnp_service(self, fast_latencies):
        network = _network(fast_latencies)
        bridge = BRIDGE_BUILDERS[1]()
        bridge.deploy(network)
        device = _upnp_service()
        client = _slp_client()
        network.attach(device)
        network.attach(client)
        result = client.lookup(network, "service:test")
        assert result.found
        assert result.url == device.service_url
        # The device really served both discovery phases.
        assert [kind for kind, _ in device.handled] == ["SSDP", "HTTP"]
        session = bridge.sessions[0]
        assert session.sent_names == ["SSDP_M-Search", "HTTP_GET", "SLP_SrvReply"]
        assert session.received_names == ["SLP_SrvReq", "SSDP_Resp", "HTTP_OK"]

    def test_xid_is_preserved_end_to_end(self, fast_latencies):
        network = _network(fast_latencies)
        BRIDGE_BUILDERS[1]().deploy(network)
        network.attach(_upnp_service())
        client = _slp_client()
        network.attach(client)
        client.lookup(network, "service:test")
        reply = client.responses[0][1]
        assert reply["XID"] != 0


class TestCase2SlpToBonjour:
    def test_slp_client_discovers_bonjour_service(self, fast_latencies):
        network = _network(fast_latencies)
        bridge = BRIDGE_BUILDERS[2]()
        bridge.deploy(network)
        responder = _bonjour_service()
        client = _slp_client()
        network.attach(responder)
        network.attach(client)
        result = client.lookup(network, "service:test")
        assert result.found
        assert result.url == responder.services["_test._tcp.local"]
        # The responder saw a genuine DNS question with the translated name.
        assert responder.handled[0]["DomainName"] == "_test._tcp.local"

    def test_repeated_lookups_reuse_the_same_bridge(self, fast_latencies):
        network = _network(fast_latencies)
        bridge = BRIDGE_BUILDERS[2]()
        bridge.deploy(network)
        network.attach(_bonjour_service())
        client = _slp_client()
        network.attach(client)
        for _ in range(5):
            assert client.lookup(network, "service:test").found
        assert len(bridge.sessions) == 5


class TestCase3UpnpToSlp:
    def test_upnp_control_point_discovers_slp_service(self, fast_latencies):
        network = _network(fast_latencies)
        bridge = BRIDGE_BUILDERS[3]()
        bridge.deploy(network)
        service = _slp_service()
        client = _upnp_client()
        network.attach(service)
        network.attach(client)
        result = client.lookup(network, "urn:schemas-upnp-org:service:test:1")
        assert result.found
        assert result.url == service.services["service:test"]
        # The SLP service received a translated SrvRqst for its own vocabulary.
        assert service.handled[0]["SRVType"] == "service:test"
        session = bridge.sessions[0]
        assert session.received_names == ["SSDP_M-Search", "SLP_SrvReply", "HTTP_GET"]
        assert session.sent_names == ["SLP_SrvReq", "SSDP_Resp", "HTTP_OK"]

    def test_ssdp_response_location_points_at_the_bridge(self, fast_latencies):
        network = _network(fast_latencies)
        bridge = BRIDGE_BUILDERS[3]()
        engine = bridge.deploy(network)
        network.attach(_slp_service())
        client = _upnp_client()
        network.attach(client)
        client.lookup(network, "urn:schemas-upnp-org:service:test:1")
        location = next(
            message["LOCATION"]
            for _, message, _ in client.responses
            if message.name == "SSDP_Resp"
        )
        http_endpoint = engine.local_endpoint("HTTP")
        assert location == f"http://{http_endpoint.host}:{http_endpoint.port}/description.xml"


class TestCase4UpnpToBonjour:
    def test_upnp_control_point_discovers_bonjour_service(self, fast_latencies):
        network = _network(fast_latencies)
        bridge = BRIDGE_BUILDERS[4]()
        bridge.deploy(network)
        responder = _bonjour_service()
        client = _upnp_client()
        network.attach(responder)
        network.attach(client)
        result = client.lookup(network, "urn:schemas-upnp-org:service:test:1")
        assert result.found
        assert result.url == responder.services["_test._tcp.local"]
        assert len(bridge.sessions) == 1


class TestCase5BonjourToUpnp:
    def test_bonjour_browser_discovers_upnp_device(self, fast_latencies):
        network = _network(fast_latencies)
        bridge = BRIDGE_BUILDERS[5]()
        bridge.deploy(network)
        device = _upnp_service()
        client = _bonjour_client()
        network.attach(device)
        network.attach(client)
        result = client.lookup(network, "_test._tcp.local")
        assert result.found
        assert result.url == device.service_url
        session = bridge.sessions[0]
        assert session.sent_names == ["SSDP_M-Search", "HTTP_GET", "DNS_Response"]


class TestCase6BonjourToSlp:
    def test_bonjour_browser_discovers_slp_service(self, fast_latencies):
        network = _network(fast_latencies)
        bridge = BRIDGE_BUILDERS[6]()
        bridge.deploy(network)
        service = _slp_service()
        client = _bonjour_client()
        network.attach(service)
        network.attach(client)
        result = client.lookup(network, "_test._tcp.local")
        assert result.found
        assert result.url == service.services["service:test"]
        # The DNS response carries the question's transaction id back.
        assert client.responses[0][1]["ID"] == service.handled[0]["XID"]


@pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)
class TestLiveBridgeCases:
    """The bridge cases over real loopback sockets (AsyncSocketNetwork).

    The TCP/HTTP legs exercise the engine's reply-channel handling: the
    bridge's translated HTTP response is scheduled behind its processing
    delay, long after the connection handler returned, and must still
    reach the waiting legacy client on the accepted connection.
    """

    _FAST_LIVE = LatencyModel(0.001, 0.001)

    def test_case3_single_engine_with_tcp_leg(self):
        """UPnP control point -> SLP service: the client's HTTP GET is a
        real TCP exchange answered by the bridge after a delay."""
        bridge = BRIDGE_BUILDERS[3](
            host="127.0.0.1", base_port=29300, processing_delay=0.01
        )
        with AsyncSocketNetwork() as network:
            bridge.deploy(network)
            service = SLPServiceAgent(
                host="127.0.0.1", port=29390, latency=self._FAST_LIVE
            )
            network.attach(service)
            client = UPnPControlPoint(
                host="127.0.0.1", port=29395, client_overhead=_NONE
            )
            network.attach(client)
            result = client.lookup(
                network, "urn:schemas-upnp-org:service:test:1", timeout=5.0
            )
            assert result.found
            assert result.url == service.services["service:test"]
            session = bridge.sessions[0]
            assert session.received_names == ["SSDP_M-Search", "SLP_SrvReply", "HTTP_GET"]
            assert session.sent_names == ["SLP_SrvReq", "SSDP_Resp", "HTTP_OK"]
            bridge.undeploy()

    def test_case3_sharded_with_tcp_leg(self):
        """The same TCP-leg case through a live sharded runtime: the HTTP
        GET lands on the router's public endpoint, fans out to the owning
        worker, and the worker's delayed reply rides the reply channel."""
        bridge = BRIDGE_BUILDERS[3](
            host="127.0.0.1", base_port=29400, processing_delay=0.01
        )
        bridge.validate()
        runtime = AsyncLiveShardedRuntime.from_bridge(bridge, workers=2)
        with AsyncSocketNetwork() as network:
            runtime.deploy(network)
            service = SLPServiceAgent(
                host="127.0.0.1", port=29490, latency=self._FAST_LIVE
            )
            network.attach(service)
            client = UPnPControlPoint(
                host="127.0.0.1", port=29495, client_overhead=_NONE
            )
            network.attach(client)
            result = client.lookup(
                network, "urn:schemas-upnp-org:service:test:1", timeout=5.0
            )
            assert result.found
            assert result.url == service.services["service:test"]
            assert runtime.unrouted_datagrams == 0
            assert runtime.worker_errors == []
            assert len(runtime.sessions) == 1
            runtime.undeploy()

    def test_case1_single_engine_dials_upstream_http(self):
        """SLP client -> UPnP device: the *bridge* is the TCP client here,
        dialling the device's HTTP server and collecting a delayed reply."""
        bridge = BRIDGE_BUILDERS[1](
            host="127.0.0.1", base_port=29500, processing_delay=0.01
        )
        with AsyncSocketNetwork() as network:
            bridge.deploy(network)
            device = UPnPDevice(
                host="127.0.0.1",
                ssdp_port=29590,
                http_port=29591,
                ssdp_latency=self._FAST_LIVE,
                http_latency=self._FAST_LIVE,
            )
            network.attach(device)
            client = SLPUserAgent(host="127.0.0.1", port=29595, client_overhead=_NONE)
            network.attach(client)
            result = client.lookup(network, "service:test", timeout=5.0)
            assert result.found
            assert result.url == device.service_url
            assert [kind for kind, _ in device.handled] == ["SSDP", "HTTP"]
            bridge.undeploy()


class TestTransparencyAndRegistry:
    @pytest.mark.parametrize(
        "client_protocol,service_protocol",
        [
            ("slp", "upnp"),
            ("slp", "bonjour"),
            ("upnp", "slp"),
            ("upnp", "bonjour"),
            ("bonjour", "upnp"),
            ("bonjour", "slp"),
        ],
    )
    def test_registry_built_bridges_work_end_to_end(
        self, fast_latencies, client_protocol, service_protocol
    ):
        """All six pairs succeed when the bridge is selected from the registry."""
        network = _network(fast_latencies)
        bridge = default_registry().build(client_protocol, service_protocol)
        bridge.deploy(network)

        services = {"slp": _slp_service, "bonjour": _bonjour_service, "upnp": _upnp_service}
        clients = {"slp": _slp_client, "bonjour": _bonjour_client, "upnp": _upnp_client}
        targets = {
            "slp": "service:test",
            "bonjour": "_test._tcp.local",
            "upnp": "urn:schemas-upnp-org:service:test:1",
        }
        network.attach(services[service_protocol]())
        client = clients[client_protocol]()
        network.attach(client)
        assert client.lookup(network, targets[client_protocol]).found

    def test_lookup_fails_without_a_bridge(self, fast_latencies):
        """Heterogeneous protocols genuinely cannot interact on their own."""
        network = _network(fast_latencies)
        network.attach(_bonjour_service())
        client = _slp_client()
        network.attach(client)
        assert not client.lookup(network, "service:test", timeout=0.5).found

    def test_bridge_without_target_service_times_out_gracefully(self, fast_latencies):
        network = _network(fast_latencies)
        bridge = BRIDGE_BUILDERS[2]()
        bridge.deploy(network)
        client = _slp_client()
        network.attach(client)
        result = client.lookup(network, "service:test", timeout=0.5)
        assert not result.found
        # The bridge forwarded the question but never completed a session.
        assert bridge.sessions == []
