"""Direct layer probes: no bridge deployed, public functions timed directly.

A second kind of system under test, speaking the same pipe protocol as
``sut.py``.  It attaches one UDP echo node to a bare
``AsyncSocketNetwork`` — the driver's load generator measures
``network.echo_rtt_us`` / ``network.echo_per_s`` against it from outside,
which is the receive + dispatch + send floor under every bridged lookup —
and on ``STOP`` times four calls in-process before answering::

    network.bind_unbind_us    bind_endpoint + unbind_endpoint of one
                              ephemeral UDP port, on the loop thread, with
                              the receive transport installed in between
                              (what case 1 pays per session)
    network.tcp_exchange_us   one request/response over a fresh TCP
                              connection between two nodes of the network
                              (case 1's HTTP leg)
    runtime.ring.shard_for_us HashRing.shard_for on a 4-member ring
    core.mdl.probe_reject_us  the SLP first-bytes discriminator rejecting
                              a garbage datagram
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.mdl import discriminator_for  # noqa: E402
from repro.network.addressing import Endpoint, Transport  # noqa: E402
from repro.network.aio import AsyncSocketNetwork  # noqa: E402
from repro.network.engine import NetworkNode  # noqa: E402
from repro.protocols.slp import slp_mdl  # noqa: E402
from repro.runtime.sharding import HashRing  # noqa: E402

from garbage import GARBAGE_CORPUS  # noqa: E402
from sut import BRIDGE_PORT, HOST  # noqa: E402

_BINDS = 300
_EXCHANGES = 200
_CALLS = 20000


class _Echo(NetworkNode):
    """Answers every datagram with the same bytes, from where it arrived."""

    def __init__(self, name: str, endpoint: Endpoint) -> None:
        self.name = name
        self.endpoint = endpoint

    def unicast_endpoints(self):
        return [self.endpoint]

    def on_datagram(self, engine, data, source, destination) -> None:
        engine.send(data, source=self.endpoint, destination=source)


class _TcpClient(NetworkNode):
    """Runs ``_EXCHANGES`` sequential TCP exchanges, each sent on reply."""

    name = "probe-tcp-client"

    def __init__(self, endpoint: Endpoint, server: Endpoint) -> None:
        self.endpoint = endpoint
        self.server = server
        self.remaining = _EXCHANGES
        self.done = threading.Event()

    def unicast_endpoints(self):
        return [self.endpoint]

    def kick(self, engine) -> None:
        engine.send(b"GET / HTTP/1.1\r\n\r\n", source=self.endpoint, destination=self.server)

    def on_datagram(self, engine, data, source, destination) -> None:
        self.remaining -= 1
        if self.remaining:
            self.kick(engine)
        else:
            self.done.set()


def _bind_unbind_us(network: AsyncSocketNetwork, node: NetworkNode) -> float:
    async def run() -> float:
        started = perf_counter()
        for _ in range(_BINDS):
            bound = network.bind_endpoint(node, Endpoint(HOST, 0, Transport.UDP))
            await asyncio.sleep(0)  # the transport-install task runs
            await asyncio.sleep(0)
            network.unbind_endpoint(node, bound)
        return (perf_counter() - started) / _BINDS * 1e6

    return asyncio.run_coroutine_threadsafe(run(), network.loop).result(timeout=60)


def _tcp_exchange_us(network: AsyncSocketNetwork) -> float:
    server = _Echo("probe-tcp-echo", Endpoint(HOST, BRIDGE_PORT + 1, Transport.TCP))
    client = _TcpClient(Endpoint(HOST, BRIDGE_PORT + 2, Transport.TCP), server.endpoint)
    network.attach(server)
    network.attach(client)
    started = perf_counter()
    network.call_later(0.0, lambda: client.kick(network))
    if not client.done.wait(timeout=60):
        raise RuntimeError("TCP exchange probe did not finish")
    return (perf_counter() - started) / _EXCHANGES * 1e6


def _per_call_us(fn, arguments) -> float:
    started = perf_counter()
    for index in range(_CALLS):
        fn(arguments[index % len(arguments)])
    return (perf_counter() - started) / _CALLS * 1e6


def main() -> int:
    network = AsyncSocketNetwork(host=HOST, use_uvloop=False)
    echo = _Echo("probe-udp-echo", Endpoint(HOST, BRIDGE_PORT, Transport.UDP))
    try:
        network.attach(echo)
        print("READY " + json.dumps({"pid": os.getpid(), "slp": [HOST, BRIDGE_PORT]}), flush=True)
        sys.stdin.readline()
        keys = [(HOST, xid) for xid in range(1, 1025)]
        metrics = {
            "network.bind_unbind_us": _bind_unbind_us(network, echo),
            "network.tcp_exchange_us": _tcp_exchange_us(network),
            "runtime.ring.shard_for_us": _per_call_us(HashRing(4).shard_for, keys),
            "core.mdl.probe_reject_us": _per_call_us(
                discriminator_for(slp_mdl()).probe, GARBAGE_CORPUS
            ),
        }
        print("METRICS " + json.dumps(metrics), flush=True)
    finally:
        network.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
