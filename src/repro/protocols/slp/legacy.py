"""Simulated legacy SLP endpoints (stand-ins for the paper's OpenSLP apps).

The paper's case study uses OpenSLP for both the lookup client (user agent)
and the service (service agent).  These classes reproduce their observable
behaviour on the simulated network:

* :class:`SLPServiceAgent` answers multicast ``SLP_SrvReq`` messages whose
  service type matches one of its registrations; it is deliberately *slow*
  (about six seconds by default, per the calibration in
  :mod:`repro.network.latency`), which is the dominant cost in the paper's
  Fig. 12 whenever SLP is the answering side.
* :class:`SLPUserAgent` multicasts a ``SLP_SrvReq`` and waits for the first
  ``SLP_SrvReply``; OpenSLP's own request-preparation/collection overhead is
  added to the measured response time.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ...core.message import AbstractMessage
from ...network.addressing import Endpoint, Transport
from ...network.engine import NetworkEngine
from ...network.latency import LatencyModel, default_latencies
from ..common import LegacyClient, LegacyService, LookupResult, peer_spec, sample_latency
from .mdl import SLP_MULTICAST_GROUP, SLP_PORT, SLP_SRVREPLY, SLP_SRVREQ, slp_mdl

__all__ = ["SLPServiceAgent", "SLPUserAgent", "slp_group_endpoint"]

_LATENCIES = default_latencies()


def slp_group_endpoint() -> Endpoint:
    return Endpoint(SLP_MULTICAST_GROUP, SLP_PORT, Transport.UDP)


class SLPServiceAgent(LegacyService):
    """A legacy SLP service agent answering service lookups."""

    def __init__(
        self,
        host: str = "slp-service.local",
        port: int = SLP_PORT,
        services: Optional[Dict[str, str]] = None,
        latency: Optional[LatencyModel] = None,
        name: str = "slp-service",
    ) -> None:
        super().__init__(
            name=name,
            endpoint=Endpoint(host, port, Transport.UDP),
            groups=[slp_group_endpoint()],
            mdl=peer_spec(slp_mdl),
            latency=latency if latency is not None else _LATENCIES.slp_service,
        )
        #: service type -> service URL registrations.
        self.services = dict(
            services or {"service:test": f"service:test://{host}:9000"}
        )

    def register(self, service_type: str, url: str) -> None:
        self.services[service_type] = url

    def build_reply(
        self, request: AbstractMessage, destination: Endpoint
    ) -> Optional[AbstractMessage]:
        if request.name != SLP_SRVREQ:
            return None
        service_type = str(request.get("SRVType", ""))
        url = self.services.get(service_type)
        if url is None:
            return None
        reply = AbstractMessage(SLP_SRVREPLY, protocol="SLP")
        reply.set("XID", request.get("XID", 0), type_name="Integer")
        reply.set("LangTag", request.get("LangTag", "en"), type_name="String")
        reply.set("ErrorCode", 0, type_name="Integer")
        reply.set("URLCount", 1, type_name="Integer")
        reply.set("Lifetime", 65535, type_name="Integer")
        reply.set("URLEntry", url, type_name="String")
        return reply


class SLPUserAgent(LegacyClient):
    """A legacy SLP lookup client (OpenSLP user agent)."""

    _xid_counter = itertools.count(1000)

    def __init__(
        self,
        host: str = "slp-client.local",
        port: int = 5100,
        client_overhead: Optional[LatencyModel] = None,
        name: str = "slp-client",
        xid_start: Optional[int] = None,
    ) -> None:
        super().__init__(
            name=name,
            endpoint=Endpoint(host, port, Transport.UDP),
            mdl=peer_spec(slp_mdl),
            client_overhead=(
                client_overhead
                if client_overhead is not None
                else _LATENCIES.slp_client_overhead
            ),
        )
        #: ``xid_start`` pins this agent to its own deterministic XID
        #: sequence (reproducible sweeps: the same client issues the same
        #: identifiers every run); by default agents share the process-wide
        #: counter, mirroring fresh OpenSLP handles.
        if xid_start is not None:
            self._xid_counter = itertools.count(xid_start)
        #: XID -> virtual time the lookup was started (non-blocking API).
        self._pending_lookups: Dict[int, float] = {}
        #: XID -> result, cached so a later clear_responses() cannot lose it.
        self._completed_lookups: Dict[int, LookupResult] = {}

    def _srv_request(self, xid: int, service_type: str) -> AbstractMessage:
        request = AbstractMessage(SLP_SRVREQ, protocol="SLP")
        request.set("Version", 2, type_name="Integer")
        request.set("XID", xid, type_name="Integer")
        request.set("LangTag", "en", type_name="String")
        request.set("SRVType", service_type, type_name="String")
        return request

    def start_lookup(
        self, network: NetworkEngine, service_type: str = "service:test"
    ) -> int:
        """Multicast one SrvRqst without blocking; returns its XID.

        Use :meth:`lookup_result` to collect the matching reply later.
        This is what the concurrent-clients workload drives: many user
        agents with overlapping outstanding requests.
        """
        xid = next(self._xid_counter)
        self._pending_lookups[xid] = network.now()
        self._send(network, self._srv_request(xid, service_type), slp_group_endpoint())
        return xid

    def lookup_started_at(self, xid: int) -> Optional[float]:
        """Virtual time a :meth:`start_lookup` request was sent."""
        return self._pending_lookups.get(xid)

    def lookup_result(self, xid: int) -> Optional[LookupResult]:
        """The reply matching a :meth:`start_lookup` XID, or ``None`` so far."""
        cached = self._completed_lookups.get(xid)
        if cached is not None:
            return cached
        started = self._pending_lookups.get(xid)
        if started is None:
            return None
        for received_at, message, _ in self._responses:
            if message.name == SLP_SRVREPLY and message.get("XID") == xid:
                result = LookupResult(
                    found=True,
                    url=str(message.get("URLEntry", "")),
                    response_time=received_at - started,
                    responses=1,
                )
                self._completed_lookups[xid] = result
                return result
        return None

    def clear_responses(self) -> None:
        # Harvest replies for outstanding non-blocking lookups first, so a
        # blocking lookup() cannot lose them.
        for xid in list(self._pending_lookups):
            self.lookup_result(xid)
        super().clear_responses()

    def lookup(
        self,
        network: NetworkEngine,
        service_type: str = "service:test",
        timeout: float = 15.0,
    ) -> LookupResult:
        """Multicast a SrvRqst and wait for a SrvRply (OpenSLP default timeout 15 s)."""
        self.clear_responses()
        xid = next(self._xid_counter)
        started = network.now()
        self._send(network, self._srv_request(xid, service_type), slp_group_endpoint())
        responses = self._await_responses(network, 1, timeout, SLP_SRVREPLY)
        matching = [entry for entry in responses if entry[1].get("XID") == xid] or responses
        overhead = sample_latency(network, self.client_overhead, self)
        if not matching:
            return LookupResult(found=False, response_time=network.now() - started + overhead)
        received_at, reply, _ = matching[0]
        return LookupResult(
            found=True,
            url=str(reply.get("URLEntry", "")),
            response_time=received_at - started + overhead,
            responses=len(matching),
        )
