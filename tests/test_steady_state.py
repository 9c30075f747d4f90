"""A long-running live bridge is stationary.

The paper's Automata Engine serves every lookup it will ever see, so
nothing a session leaves behind may pile up: session state is freed by
reference counting when the session ends (no reference cycle for the
collector to find), and what outlives a session is an exact counter or
an entry in one ring of :data:`~repro.network.engine.RECENT_RECORDS`.

One live case-2 deployment (SLP client → Bonjour service) on
:class:`~repro.network.aio.AsyncSocketNetwork` serves 1 500 closed-loop
lookups from one raw UDP socket; the three tests read what it measured.
"""

from __future__ import annotations

import gc
import socket

import pytest

from repro.bridges.specs import BRIDGE_BUILDERS
from repro.core.mdl.base import create_composer
from repro.core.message import AbstractMessage
from repro.network.aio import AsyncSocketNetwork
from repro.network.engine import RECENT_RECORDS
from repro.network.latency import LatencyModel
from repro.network.sockets import loopback_available
from repro.protocols.mdns import BonjourResponder
from repro.protocols.slp import SLP_SRVREQ, slp_mdl
from repro.runtime.aio_live import AsyncLiveShardedRuntime

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)

HOST = "127.0.0.1"
BRIDGE_PORT = 30400
SERVICE_PORT = 30490
#: Bytes 10–11 of an SLPv2 header carry the XID.
XID_OFFSET = 10
#: Lookups with the collector off, then the window the object count is
#: read across (both ends after the rings are full).
CYCLE_LOOKUPS = 200
WINDOW = (500, 1500)


def _request_template():
    request = AbstractMessage(SLP_SRVREQ, protocol="SLP")
    request.set("Version", 2, type_name="Integer")
    request.set("XID", 0, type_name="Integer")
    request.set("LangTag", "en", type_name="String")
    request.set("SRVType", "service:test", type_name="String")
    data = create_composer(slp_mdl()).compose(request)
    return data[:XID_OFFSET], data[XID_OFFSET + 2 :]


class _Client:
    """One raw UDP socket doing closed-loop lookups, XIDs 1, 2, 3, ..."""

    def __init__(self, target) -> None:
        self.target = target
        self.head, self.tail = _request_template()
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((HOST, 0))
        self.sock.settimeout(5.0)
        self.sent = 0

    def lookups(self, until: int) -> None:
        while self.sent < until:
            self.sent += 1
            xid = self.sent.to_bytes(2, "big")
            self.sock.sendto(self.head + xid + self.tail, self.target)
            while True:
                reply = self.sock.recv(2048)
                if reply[XID_OFFSET : XID_OFFSET + 2] == xid:
                    break


@pytest.fixture(scope="module")
def served():
    network = AsyncSocketNetwork(host=HOST)
    bridge = BRIDGE_BUILDERS[2](host=HOST, base_port=BRIDGE_PORT, processing_delay=0.0)
    runtime = AsyncLiveShardedRuntime.from_bridge(bridge, workers=1)
    service = BonjourResponder(host=HOST, port=SERVICE_PORT, latency=LatencyModel(0.0, 0.0))
    slp = None
    client = None
    measured = {}
    try:
        runtime.deploy(network)
        network.attach(service)
        slp = runtime.public_endpoints["SLP"]
        client = _Client((slp.host, slp.port))
        gc.collect()
        gc.disable()
        try:
            client.lookups(CYCLE_LOOKUPS)
            measured["unreachable"] = gc.collect()
        finally:
            gc.enable()
        client.lookups(WINDOW[0])
        gc.collect()
        before = len(gc.get_objects())
        client.lookups(WINDOW[1])
        gc.collect()
        measured["growth"] = len(gc.get_objects()) - before
        measured["metrics"] = runtime.metrics(include_latency=False)
        measured["runtime"] = runtime
        measured["service"] = service
        yield measured
    finally:
        if client is not None:
            client.sock.close()
        runtime.undeploy()
        network.close()


def test_a_live_session_leaves_no_cyclic_garbage(served):
    """A hand-off is a timer; a timer that refers to its own handle is a
    cycle, and the cycle pins the parsed request until a collection."""
    assert served["unreachable"] / CYCLE_LOOKUPS < 1


def test_the_object_count_is_flat_once_the_rings_are_full(served):
    sessions = WINDOW[1] - WINDOW[0]
    assert served["growth"] / sessions < 0.5


def test_counts_stay_exact_while_the_rings_hold_the_most_recent(served):
    runtime, service = served["runtime"], served["service"]
    (row,) = served["metrics"].workers
    assert row.completed_sessions == WINDOW[1]
    assert row.evicted_sessions == 0
    assert runtime.completed_count == WINDOW[1]
    assert runtime.worker_session_counts() == [WINDOW[1]]
    (worker,) = runtime.workers
    assert len(worker.sessions) == RECENT_RECORDS
    assert len(runtime.sessions) == RECENT_RECORDS
    assert service.handled_count == WINDOW[1]
    assert len(service.handled) == RECENT_RECORDS
    # The ring keeps the newest records, in completion order.
    finished = [record.finished_at for record in worker.sessions]
    assert finished == sorted(finished)
