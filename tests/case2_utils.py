"""Shared case-2 (SLP client → Bonjour service) test helpers.

The sharded-runtime, elastic and arbitrary-drain suites all drive the same
fixture: a case-2 bridge deployed as a :class:`ShardedRuntime`, a batch of
SLP clients with pinned XIDs, and a hand-injected multicast mDNS answer.
One copy lives here so a change to the fixture (a new bridge kwarg, the
service URL) cannot silently diverge between suites.
"""

from __future__ import annotations

from repro.bridges.specs import slp_to_bonjour_bridge
from repro.core.mdl.base import create_composer
from repro.core.message import AbstractMessage
from repro.network.addressing import Endpoint, Transport
from repro.protocols.mdns.mdl import DNS_RESPONSE, DNS_RESPONSE_FLAGS, mdns_mdl
from repro.protocols.slp import SLPUserAgent
from repro.runtime import ShardedRuntime

SERVICE_URL = "http://bonjour-service.local:9000/service"
#: Built once: compiling a codec makes garbage of its own, which the
#: cycle-freedom tests must not count against the deployment.
_MDNS_COMPOSER = create_composer(mdns_mdl())


def deploy_case2(network, workers, **kwargs):
    """Deploy a case-2 bridge as a ``workers``-shard runtime on ``network``."""
    runtime = ShardedRuntime.from_bridge(slp_to_bonjour_bridge(**kwargs), workers=workers)
    runtime.deploy(network)
    return runtime


def attach_clients(network, count, xid_base=1000):
    """``count`` SLP clients with unique endpoints and pinned XID ranges."""
    clients = [
        SLPUserAgent(
            host=f"client-{i}.local",
            port=6000 + i,
            name=f"client-{i}",
            xid_start=xid_base + i * 16,
        )
        for i in range(count)
    ]
    for client in clients:
        network.attach(client)
    return clients


def mdns_answer(network, xid, destination=None):
    """Inject an mDNS response for ``xid`` into the colour group (or to
    ``destination``)."""
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
        _MDNS_COMPOSER.compose(response),
        source=Endpoint("adhoc-responder.local", 5353, Transport.UDP),
        destination=destination or Endpoint("224.0.0.251", 5353, Transport.UDP),
    )
