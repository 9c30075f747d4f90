"""Request bytes and the reference replies they must earn.

Requests are composed once, before any timing, with the repo's own SLP
codec; the 16-bit ``XID`` is the only thing that varies between lookups, so
a lookup's bytes are a template with two bytes substituted.

The reference reply comes from the *simulated single-engine twin* of the
workload's case: the same bridge builder, host, ports and legacy service
as the live SUT, but one ``StarlinkBridge`` on a ``SimulatedNetwork``.
The twin answers a sample of XIDs; every sampled reply must be the same
bytes with only the XID differing, which yields the template every live
reply is then compared against byte for byte.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from sut import HOST, build_bridge, build_service  # first: it puts src/ on sys.path
from spans import SLP_XID_OFFSET

from repro.core.mdl import create_composer
from repro.core.message import AbstractMessage
from repro.network.addressing import Endpoint, Transport
from repro.network.engine import NetworkNode
from repro.network.simulated import SimulatedNetwork
from repro.protocols.slp import SLP_SRVREQ, slp_mdl

SERVICE_TYPE = "service:test"
#: XIDs the twin is asked about, besides two whose bits are complementary
#: (so a byte that merely *correlates* with one XID cannot pass as constant).
_TWIN_SAMPLE = 6


class Template:
    """Datagram bytes with a 16-bit big-endian XID hole at a fixed offset."""

    def __init__(self, head: bytes, tail: bytes) -> None:
        self.head = head
        self.tail = tail

    def fill(self, xid: int) -> bytes:
        return self.head + xid.to_bytes(2, "big") + self.tail


def _template(samples: List[Tuple[int, bytes]], what: str) -> Template:
    xid, data = samples[0]
    template = Template(data[:SLP_XID_OFFSET], data[SLP_XID_OFFSET + 2 :])
    for xid, data in samples:
        if template.fill(xid) != data:
            raise AssertionError(
                f"{what} for XID {xid} differs from the others beyond its XID bytes"
            )
    return template


def _compose_request(xid: int) -> bytes:
    request = AbstractMessage(SLP_SRVREQ, protocol="SLP")
    request.set("Version", 2, type_name="Integer")
    request.set("XID", xid, type_name="Integer")
    request.set("LangTag", "en", type_name="String")
    request.set("SRVType", SERVICE_TYPE, type_name="String")
    return _COMPOSER.compose(request)


_COMPOSER = create_composer(slp_mdl())


class _RawClient(NetworkNode):
    """A simulated node that sends prepared bytes and keeps raw replies."""

    name = "bench-client"

    def __init__(self) -> None:
        self.endpoint = Endpoint(HOST, 21000, Transport.UDP)
        self.replies: List[bytes] = []

    def unicast_endpoints(self) -> List[Endpoint]:
        return [self.endpoint]

    def on_datagram(self, engine, data, source, destination) -> None:
        self.replies.append(bytes(data))


def templates(case: int, seed: int) -> Tuple[Template, Template]:
    """``(request, expected reply)`` templates for ``case``."""
    rng = random.Random(seed)
    xids = [0x5A5A, 0xA5A5] + rng.sample(range(1, 0xFFFF), _TWIN_SAMPLE)
    requests = [(xid, _compose_request(xid)) for xid in xids]
    request = _template(requests, "SLP request")

    network = SimulatedNetwork(seed=seed)
    bridge = build_bridge(case)
    engine = bridge.deploy(network)
    network.attach(build_service(case))
    client = _RawClient()
    network.attach(client)
    slp = engine.local_endpoint("SLP")
    replies = []
    for xid, data in requests:
        network.send(data, source=client.endpoint, destination=slp)
        network.run()
        if len(client.replies) != len(replies) + 1:
            raise AssertionError(f"the simulated twin did not answer XID {xid}")
        replies.append((xid, client.replies[-1]))
    return request, _template(replies, "twin reply")
