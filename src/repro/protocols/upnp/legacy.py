"""Simulated legacy UPnP endpoints (stand-ins for the Cyberlink stack).

UPnP discovery uses two protocols (Section V-B of the paper): SSDP for the
multicast search and response, then HTTP to fetch the device description
that carries the service URL.  Accordingly:

* :class:`UPnPDevice` is one node with two personalities — an SSDP
  responder on the device's UDP endpoint (joined to the SSDP group) and a
  tiny HTTP server on a TCP endpoint serving the description document whose
  ``<URLBase>`` is the advertised service URL;
* :class:`UPnPControlPoint` is the legacy lookup client: M-SEARCH, wait for
  the SSDP response, ``GET`` the LOCATION, extract the URL from the body.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple
from urllib.parse import urlparse

from ...core.errors import NetworkError, ParseError
from ...core.mdl.base import create_composer, create_parser
from ...core.message import AbstractMessage
from ...network.addressing import Endpoint, Transport
from ...network.engine import NetworkEngine, NetworkNode, recent
from ...network.latency import LatencyModel, default_latencies
from ..common import LegacyClient, LookupResult, peer_spec, sample_latency
from ..http.mdl import HTTP_GET, HTTP_OK, http_mdl
from ..ssdp.mdl import (
    SSDP_MSEARCH,
    SSDP_MULTICAST_GROUP,
    SSDP_PORT,
    SSDP_RESP,
    ssdp_mdl,
)

__all__ = ["UPnPDevice", "UPnPControlPoint", "ssdp_group_endpoint", "description_body"]

_LATENCIES = default_latencies()


def ssdp_group_endpoint() -> Endpoint:
    return Endpoint(SSDP_MULTICAST_GROUP, SSDP_PORT, Transport.UDP)


def description_body(url_base: str, friendly_name: str = "Starlink test service") -> str:
    """A minimal UPnP device-description document carrying ``URLBase``."""
    return (
        "<?xml version=\"1.0\"?>\n"
        "<root xmlns=\"urn:schemas-upnp-org:device-1-0\">\n"
        f"  <URLBase>{url_base}</URLBase>\n"
        "  <device>\n"
        f"    <friendlyName>{friendly_name}</friendlyName>\n"
        "    <deviceType>urn:schemas-upnp-org:device:TestDevice:1</deviceType>\n"
        "  </device>\n"
        "</root>\n"
    )


class UPnPDevice(NetworkNode):
    """A legacy UPnP device: SSDP responder plus HTTP description server."""

    def __init__(
        self,
        host: str = "upnp-device.local",
        ssdp_port: int = SSDP_PORT,
        http_port: int = 8080,
        service_type: str = "urn:schemas-upnp-org:service:test:1",
        service_url: Optional[str] = None,
        ssdp_latency: Optional[LatencyModel] = None,
        http_latency: Optional[LatencyModel] = None,
        name: str = "upnp-device",
    ) -> None:
        self.name = name
        self.host = host
        self.service_type = service_type
        self.service_url = service_url or f"http://{host}:9000/service"
        self._ssdp_endpoint = Endpoint(host, ssdp_port, Transport.UDP)
        self._http_endpoint = Endpoint(host, http_port, Transport.TCP)
        self.location = f"http://{host}:{http_port}/description.xml"
        self._ssdp_parser = create_parser(peer_spec(ssdp_mdl))
        self._ssdp_composer = create_composer(peer_spec(ssdp_mdl))
        self._http_parser = create_parser(peer_spec(http_mdl))
        self._http_composer = create_composer(peer_spec(http_mdl))
        self.ssdp_latency = ssdp_latency if ssdp_latency is not None else _LATENCIES.ssdp_service
        self.http_latency = http_latency if http_latency is not None else _LATENCIES.http_service
        #: Requests handled: the count, and a ring of the most recent
        #: (protocol, message name), for assertions.
        self.handled_count = 0
        self.handled: Deque[Tuple[str, str]] = recent()

    # -- NetworkNode ----------------------------------------------------
    def unicast_endpoints(self) -> List[Endpoint]:
        return [self._ssdp_endpoint, self._http_endpoint]

    def multicast_groups(self) -> List[Endpoint]:
        return [ssdp_group_endpoint()]

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        if destination.transport == Transport.TCP or destination.port == self._http_endpoint.port:
            self._serve_description(engine, data, source)
        else:
            self._answer_search(engine, data, source)

    # -- SSDP -----------------------------------------------------------
    def _answer_search(self, engine: NetworkEngine, data: bytes, source: Endpoint) -> None:
        try:
            request = self._ssdp_parser.parse(data)
        except ParseError:
            return
        if request.name != SSDP_MSEARCH:
            return
        search_target = str(request.get("ST", ""))
        if search_target not in ("", "ssdp:all", self.service_type) and not self._matches(search_target):
            return
        self.handled_count += 1
        self.handled.append(("SSDP", request.name))
        reply = AbstractMessage(SSDP_RESP, protocol="SSDP")
        reply.set("Method", "HTTP/1.1")
        reply.set("URI", "200")
        reply.set("Version", "OK")
        reply.set("CACHE-CONTROL", "max-age=1800")
        reply.set("EXT", "")
        reply.set("LOCATION", self.location)
        reply.set("SERVER", "Starlink-Repro/1.0 UPnP/1.0")
        reply.set("ST", search_target or self.service_type)
        reply.set("USN", f"uuid:starlink-test::{self.service_type}")
        payload = self._ssdp_composer.compose(reply)
        delay = sample_latency(engine, self.ssdp_latency, self)
        engine.send(payload, source=self._ssdp_endpoint, destination=source, delay=delay)

    def _matches(self, search_target: str) -> bool:
        """Loose match so bridged (translated) service types still resolve."""
        wanted = search_target.lower()
        mine = self.service_type.lower()
        return wanted in mine or mine in wanted or "test" in wanted

    # -- HTTP -----------------------------------------------------------
    def _serve_description(self, engine: NetworkEngine, data: bytes, source: Endpoint) -> None:
        try:
            request = self._http_parser.parse(data)
        except ParseError:
            return
        if request.name != HTTP_GET:
            return
        self.handled_count += 1
        self.handled.append(("HTTP", request.name))
        body = description_body(self.service_url)
        reply = AbstractMessage(HTTP_OK, protocol="HTTP")
        reply.set("Method", "HTTP/1.1")
        reply.set("URI", "200")
        reply.set("Version", "OK")
        reply.set("Server", "Starlink-Repro/1.0")
        reply.set("Content-Type", "text/xml")
        reply.set("Body", body)
        payload = self._http_composer.compose(reply)
        delay = sample_latency(engine, self.http_latency, self)
        engine.send(payload, source=self._http_endpoint, destination=source, delay=delay)


@dataclass
class _PendingControl:
    """One in-flight two-leg discovery of the non-blocking driver."""

    token: int
    started_at: float
    #: "ssdp" while the M-SEARCH response is outstanding, "http" while the
    #: description GET is; finished controls leave the pending table.
    leg: str = "ssdp"
    #: Per-lookup source endpoint both legs are sent from (``None`` once
    #: released).
    source: Optional[Endpoint] = None


#: Offset above a control point's own port where its per-lookup source
#: ports start on networks with deterministic late binds (the simulation).
_LOOKUP_PORT_OFFSET = 20000


class UPnPControlPoint(LegacyClient):
    """A legacy UPnP control point performing discovery + description fetch.

    The control point is *two-leg*: an SSDP M-SEARCH answered over UDP,
    then an HTTP GET of the advertised LOCATION answered over TCP.  The
    non-blocking :meth:`start_control` / :meth:`control_result` driver runs
    both legs reactively from :meth:`on_datagram` — the follow-up GET fires
    the moment the SSDP response lands — so many control points (or many
    lookups) can be in flight at once without blocking the simulation,
    which is what admits UPnP-client bridge cases into the concurrency and
    sharding sweeps.

    Neither SSDP nor HTTP carries a transaction identifier, so each lookup
    sends both its legs from a **per-lookup ephemeral source port** when
    the network can bind endpoints at runtime (the simulation's
    deterministic range, the socket engine's kernel-assigned ports):
    responses are then attributed to the exact lookup by their return
    address, and concurrent lookups within one control point resolve
    correctly even when they complete out of order.  On networks without
    late binds the legs share the control point's endpoint and overlapping
    lookups complete oldest-first, as the real Cyberlink stack's shared
    socket would.
    """

    def __init__(
        self,
        host: str = "upnp-client.local",
        port: int = 5300,
        client_overhead: Optional[LatencyModel] = None,
        name: str = "upnp-client",
    ) -> None:
        super().__init__(
            name=name,
            endpoint=Endpoint(host, port, Transport.UDP),
            mdl=peer_spec(ssdp_mdl),
            client_overhead=(
                client_overhead
                if client_overhead is not None
                else _LATENCIES.upnp_client_overhead
            ),
        )
        self._http_parser = create_parser(peer_spec(http_mdl))
        self._http_composer = create_composer(peer_spec(http_mdl))
        self._token_counter = itertools.count(1)
        #: In-flight two-leg lookups, by token, in start order.
        self._controls: Dict[int, _PendingControl] = {}
        #: Token -> result of a finished lookup (kept so a completed
        #: control costs nothing on the per-datagram oldest-pending scan).
        self._completed_controls: Dict[int, LookupResult] = {}
        #: Token -> virtual start time, surviving completion.
        self._control_started: Dict[int, float] = {}
        #: ``(host, port)`` of a lookup's source endpoint -> its token:
        #: exact response attribution by return address.
        self._lookup_ports: Dict[Tuple[str, int], int] = {}
        #: Next per-lookup port on deterministic (simulated) networks.
        self._next_lookup_port = port + _LOOKUP_PORT_OFFSET

    # The control point receives both SSDP and HTTP responses on its endpoint.
    # The two share the "HTTP/1.1 200 OK" start line, so the parser is chosen
    # by the transport the response arrived on (SSDP over UDP, HTTP over TCP),
    # exactly as the real Cyberlink stack distinguishes them by socket.
    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        parser = self._http_parser if source.transport == Transport.TCP else self.parser
        try:
            message = parser.parse(data)
        except ParseError:
            return
        if message.name not in (SSDP_RESP, HTTP_OK):
            return
        self._record_response(engine.now(), message, source, data)
        # A response delivered to a per-lookup source port belongs to that
        # lookup exactly; only shared-endpoint traffic falls back to the
        # oldest-pending scan.
        token = self._lookup_ports.get((destination.host, destination.port))
        if message.name == SSDP_RESP:
            self._advance_ssdp_leg(engine, message, token)
        else:
            self._complete_http_leg(engine, message, token)

    # -- per-lookup ephemeral source ports --------------------------------
    def _allocate_lookup_source(self, network: NetworkEngine, token: int) -> Endpoint:
        """A fresh source endpoint for one lookup (both legs use it)."""
        if network.kernel_ephemeral_ports:
            bound = network.bind_endpoint(
                self, Endpoint(self.endpoint.host, 0, Transport.UDP)
            )
        else:
            port = self._next_lookup_port
            while True:
                try:
                    bound = network.bind_endpoint(
                        self, Endpoint(self.endpoint.host, port, Transport.UDP)
                    )
                    break
                except NetworkError:
                    # Another node (e.g. a sibling control point) owns the
                    # port; probe upward — deterministic either way.
                    port += 1
            self._next_lookup_port = port + 1
        self._lookup_ports[(bound.host, bound.port)] = token
        return bound

    def _release_lookup_source(
        self, network: Optional[NetworkEngine], control: _PendingControl
    ) -> None:
        if control.source is None:
            return
        self._lookup_ports.pop((control.source.host, control.source.port), None)
        if network is not None:
            network.unbind_endpoint(self, control.source)
        control.source = None

    # -- the non-blocking two-leg driver ---------------------------------
    def start_control(
        self,
        network: NetworkEngine,
        service_type: str = "urn:schemas-upnp-org:service:test:1",
    ) -> int:
        """Multicast one M-SEARCH without blocking; returns a lookup token.

        The description GET is issued automatically when the SSDP response
        arrives; collect the finished :class:`LookupResult` later with
        :meth:`control_result`.
        """
        token = next(self._token_counter)
        control = _PendingControl(token=token, started_at=network.now())
        control.source = self._allocate_lookup_source(network, token)
        self._controls[token] = control
        self._control_started[token] = network.now()
        search = AbstractMessage(SSDP_MSEARCH, protocol="SSDP")
        search.set("Method", "M-SEARCH")
        search.set("URI", "*")
        search.set("Version", "HTTP/1.1")
        search.set("HOST", f"{SSDP_MULTICAST_GROUP}:{SSDP_PORT}")
        search.set("MAN", '"ssdp:discover"')
        search.set("MX", 3, type_name="Integer")
        search.set("ST", service_type)
        network.send(
            self.composer.compose(search),
            source=control.source,
            destination=ssdp_group_endpoint(),
        )
        return token

    def control_result(self, token: int) -> Optional[LookupResult]:
        """The completed lookup for a :meth:`start_control` token, or None."""
        return self._completed_controls.get(token)

    def discard_control(
        self, token: int, network: Optional[NetworkEngine] = None
    ) -> None:
        """Abandon an outstanding lookup (its legs will serve nobody).

        Pass ``network`` to release the lookup's ephemeral source port
        too; without it the port is forgotten for attribution but stays
        bound until the node detaches.
        """
        control = self._controls.pop(token, None)
        if control is not None:
            self._release_lookup_source(network, control)
        self._control_started.pop(token, None)

    def lookup_started_at(self, token: int) -> Optional[float]:
        """Virtual time a :meth:`start_control` M-SEARCH was sent."""
        return self._control_started.get(token)

    # Uniform non-blocking client API, shared with the SLP and Bonjour
    # clients, so one driver loop serves all three in the sweeps.
    start_lookup = start_control
    lookup_result = control_result

    def _oldest_control(self, leg: str) -> Optional[_PendingControl]:
        for control in self._controls.values():
            if control.leg == leg:
                return control
        return None

    def _advance_ssdp_leg(
        self,
        engine: NetworkEngine,
        response: AbstractMessage,
        token: Optional[int] = None,
    ) -> None:
        if token is not None:
            # Exact attribution by return address: a duplicate response for
            # a lookup already past its SSDP leg is dropped, never allowed
            # to steal another lookup's slot.
            control = self._controls.get(token)
            if control is None or control.leg != "ssdp":
                return
        else:
            control = self._oldest_control("ssdp")
            if control is None:
                return
        control.leg = "http"
        location = str(response.get("LOCATION", ""))
        parsed = urlparse(location)
        get = AbstractMessage(HTTP_GET, protocol="HTTP")
        get.set("Method", "GET")
        get.set("URI", parsed.path or "/description.xml")
        get.set("Version", "HTTP/1.1")
        get.set("Host", parsed.hostname or "")
        get.set("Connection", "close")
        destination = Endpoint(parsed.hostname or "", parsed.port or 80, Transport.TCP)
        engine.send(
            self._http_composer.compose(get),
            source=control.source,
            destination=destination,
        )

    def _complete_http_leg(
        self,
        engine: NetworkEngine,
        ok: AbstractMessage,
        token: Optional[int] = None,
    ) -> None:
        if token is not None:
            control = self._controls.get(token)
            if control is None or control.leg != "http":
                return
        else:
            control = self._oldest_control("http")
            if control is None:
                return
        body = str(ok.get("Body", ""))
        # Finished: move out of the pending table so later responses never
        # scan it again, keeping the result retrievable by token.
        del self._controls[control.token]
        self._release_lookup_source(engine, control)
        self._completed_controls[control.token] = LookupResult(
            found=True,
            url=_extract_url_base(body),
            response_time=engine.now() - control.started_at,
            responses=2,
        )

    # -- the blocking legacy API, expressed over the driver ---------------
    def lookup(
        self,
        network: NetworkEngine,
        service_type: str = "urn:schemas-upnp-org:service:test:1",
        timeout: float = 10.0,
    ) -> LookupResult:
        """Discover a device via SSDP and fetch its description via HTTP."""
        self.clear_responses()
        started = network.now()
        token = self.start_control(network, service_type)
        network.run_until(lambda: self.control_result(token) is not None, timeout=timeout)
        overhead = sample_latency(network, self.client_overhead, self)
        # The blocking API consumes its control either way: a timed-out one
        # must not swallow a later lookup's SSDP response, and a completed
        # one is harvested into the returned result (repeated lookups on
        # one control point accumulate nothing).
        result = self._completed_controls.pop(token, None)
        self.discard_control(token, network)
        if result is None:
            return LookupResult(
                found=False, response_time=network.now() - started + overhead
            )
        return LookupResult(
            found=True,
            url=result.url,
            response_time=result.response_time + overhead,
            responses=result.responses,
        )


def _extract_url_base(body: str) -> str:
    import re

    match = re.search(r"<URLBase>([^<]+)</URLBase>", body)
    if match:
        return match.group(1).strip()
    match = re.search(r"https?://[^\s<>\"']+", body)
    return match.group(0) if match else ""
