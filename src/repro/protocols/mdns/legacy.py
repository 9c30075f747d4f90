"""Simulated legacy Bonjour endpoints (stand-ins for the Apple Bonjour SDK).

* :class:`BonjourResponder` answers multicast DNS questions for the service
  names it advertises, after the (fast) mDNS responder latency.
* :class:`BonjourBrowser` performs one-shot service lookups; the legacy
  browse API adds its own browse-interval overhead, which is why legacy
  Bonjour lookups in Fig. 12(a) are slower than a Starlink bridge querying
  the same responder directly.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ...core.message import AbstractMessage
from ...network.addressing import Endpoint, Transport
from ...network.engine import NetworkEngine
from ...network.latency import LatencyModel, default_latencies
from ..common import LegacyClient, LegacyService, LookupResult, peer_spec, sample_latency
from .mdl import (
    DNS_QUESTION,
    DNS_RESPONSE,
    DNS_RESPONSE_FLAGS,
    MDNS_MULTICAST_GROUP,
    MDNS_PORT,
    mdns_mdl,
)

__all__ = ["BonjourResponder", "BonjourBrowser", "mdns_group_endpoint"]

_LATENCIES = default_latencies()


def mdns_group_endpoint() -> Endpoint:
    return Endpoint(MDNS_MULTICAST_GROUP, MDNS_PORT, Transport.UDP)


class BonjourResponder(LegacyService):
    """A legacy Bonjour (mDNS) responder advertising services."""

    def __init__(
        self,
        host: str = "bonjour-service.local",
        port: int = MDNS_PORT,
        services: Optional[Dict[str, str]] = None,
        latency: Optional[LatencyModel] = None,
        name: str = "bonjour-service",
    ) -> None:
        super().__init__(
            name=name,
            endpoint=Endpoint(host, port, Transport.UDP),
            groups=[mdns_group_endpoint()],
            mdl=peer_spec(mdns_mdl),
            latency=latency if latency is not None else _LATENCIES.mdns_service,
        )
        #: service name (e.g. ``_test._tcp.local``) -> service URL.
        self.services = dict(
            services or {"_test._tcp.local": f"http://{host}:9000/service"}
        )

    def register(self, service_name: str, url: str) -> None:
        self.services[service_name] = url

    def build_reply(
        self, request: AbstractMessage, destination: Endpoint
    ) -> Optional[AbstractMessage]:
        if request.name != DNS_QUESTION:
            return None
        question = str(request.get("DomainName", ""))
        url = self.services.get(question)
        if url is None:
            return None
        reply = AbstractMessage(DNS_RESPONSE, protocol="mDNS")
        reply.set("ID", request.get("ID", 0), type_name="Integer")
        reply.set("Flags", DNS_RESPONSE_FLAGS, type_name="Integer")
        reply.set("QDCount", 0, type_name="Integer")
        reply.set("ANCount", 1, type_name="Integer")
        reply.set("AnswerName", question, type_name="FQDN")
        reply.set("AType", 16, type_name="Integer")  # TXT-style record carrying the URL
        reply.set("AClass", 1, type_name="Integer")
        reply.set("TTL", 120, type_name="Integer")
        reply.set("RDATA", url, type_name="String")
        return reply


class BonjourBrowser(LegacyClient):
    """A legacy Bonjour browse/lookup client."""

    _id_counter = itertools.count(2000)

    def __init__(
        self,
        host: str = "bonjour-client.local",
        port: int = 5200,
        client_overhead: Optional[LatencyModel] = None,
        name: str = "bonjour-client",
        query_id_start: Optional[int] = None,
    ) -> None:
        super().__init__(
            name=name,
            endpoint=Endpoint(host, port, Transport.UDP),
            mdl=peer_spec(mdns_mdl),
            client_overhead=(
                client_overhead
                if client_overhead is not None
                else _LATENCIES.mdns_client_overhead
            ),
        )
        #: ``query_id_start`` pins this browser to its own deterministic
        #: query-ID sequence (reproducible sweeps); by default browsers
        #: share the process-wide counter.
        if query_id_start is not None:
            self._id_counter = itertools.count(query_id_start)
        #: Query ID -> virtual time the browse was started (non-blocking API).
        self._pending_lookups: Dict[int, float] = {}
        #: Query ID -> result, cached so clear_responses() cannot lose it.
        self._completed_lookups: Dict[int, LookupResult] = {}

    def _question(self, query_id: int, service_name: str) -> AbstractMessage:
        question = AbstractMessage(DNS_QUESTION, protocol="mDNS")
        question.set("ID", query_id, type_name="Integer")
        question.set("Flags", 0, type_name="Integer")
        question.set("QDCount", 1, type_name="Integer")
        question.set("DomainName", service_name, type_name="FQDN")
        question.set("QType", 16, type_name="Integer")
        question.set("QClass", 1, type_name="Integer")
        return question

    def start_lookup(
        self, network: NetworkEngine, service_name: str = "_test._tcp.local"
    ) -> int:
        """Multicast one DNS question without blocking; returns its query ID.

        Use :meth:`lookup_result` to collect the matching response later
        (mDNS responders echo the query ID, so overlapping browses from
        many clients stay distinguishable).
        """
        query_id = next(self._id_counter) & 0xFFFF
        self._pending_lookups[query_id] = network.now()
        self._send(network, self._question(query_id, service_name), mdns_group_endpoint())
        return query_id

    def lookup_started_at(self, query_id: int) -> Optional[float]:
        """Virtual time a :meth:`start_lookup` question was sent."""
        return self._pending_lookups.get(query_id)

    def lookup_result(self, query_id: int) -> Optional[LookupResult]:
        """The response matching a :meth:`start_lookup` ID, or ``None`` so far."""
        cached = self._completed_lookups.get(query_id)
        if cached is not None:
            return cached
        started = self._pending_lookups.get(query_id)
        if started is None:
            return None
        for received_at, message, _ in self._responses:
            if message.name == DNS_RESPONSE and message.get("ID") == query_id:
                result = LookupResult(
                    found=True,
                    url=str(message.get("RDATA", "")),
                    response_time=received_at - started,
                    responses=1,
                )
                self._completed_lookups[query_id] = result
                return result
        return None

    def clear_responses(self) -> None:
        # Harvest responses for outstanding non-blocking browses first, so a
        # blocking lookup() cannot lose them.
        for query_id in list(self._pending_lookups):
            self.lookup_result(query_id)
        super().clear_responses()

    def lookup(
        self,
        network: NetworkEngine,
        service_name: str = "_test._tcp.local",
        timeout: float = 10.0,
    ) -> LookupResult:
        """Multicast a DNS question and wait for the matching response."""
        self.clear_responses()
        query_id = next(self._id_counter) & 0xFFFF
        started = network.now()
        self._send(network, self._question(query_id, service_name), mdns_group_endpoint())
        responses = self._await_responses(network, 1, timeout, DNS_RESPONSE)
        overhead = sample_latency(network, self.client_overhead, self)
        if not responses:
            return LookupResult(found=False, response_time=network.now() - started + overhead)
        received_at, reply, _ = responses[0]
        return LookupResult(
            found=True,
            url=str(reply.get("RDATA", "")),
            response_time=received_at - started + overhead,
            responses=len(responses),
        )
