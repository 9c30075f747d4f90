#!/usr/bin/env python3
"""Live sharded bridge: real sockets, sharded workers, a TCP leg and all.

The other examples run on the deterministic simulation.  This one deploys
the *same* bridge models on :class:`AsyncSocketNetwork` — real UDP and TCP
sockets on the loopback interface, all on one asyncio event loop — as an
:class:`AsyncLiveShardedRuntime`:

* a shard router owns the bridge's public endpoints and (emulated)
  multicast groups;
* two worker Automata Engines run behind it, their records all on the
  network's loop, sharing one read-only merged automaton;
* two legacy UPnP control points discover a legacy SLP service through it
  (the paper's case 3), including the control points' HTTP GET — a real
  TCP exchange that the bridge answers after its processing delay on the
  accepted connection's reply channel.

Run with:  python examples/live_sharded_bridge.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.bridges import upnp_to_slp_bridge
from repro.network.aio import AsyncSocketNetwork
from repro.network.sockets import loopback_available
from repro.network.latency import LatencyModel
from repro.protocols.slp import SLPServiceAgent
from repro.protocols.upnp import UPnPControlPoint
from repro.runtime.aio_live import AsyncLiveShardedRuntime

FAST = LatencyModel(0.001, 0.001)
NONE = LatencyModel(0.0, 0.0)


def main() -> None:
    if not loopback_available():
        # Sandboxes without network namespaces cannot bind loopback sockets;
        # the simulated examples cover the same logic there.
        print("loopback unavailable - skipping the live demo")
        return

    # The case-3 bridge (UPnP control point -> SLP service), addressed for
    # the loopback interface: on real sockets every node shares the host
    # 127.0.0.1 and is distinguished by its port range.
    bridge = upnp_to_slp_bridge(
        host="127.0.0.1", base_port=30000, processing_delay=0.005
    )
    runtime = AsyncLiveShardedRuntime.from_bridge(bridge, workers=2)

    with AsyncSocketNetwork() as network:
        runtime.deploy(network)

        # A legacy SLP service agent, and two legacy UPnP control points.
        service = SLPServiceAgent(host="127.0.0.1", port=30090, latency=FAST)
        network.attach(service)
        clients = [
            UPnPControlPoint(
                host="127.0.0.1", port=30095 + index,
                name=f"control-point-{index}", client_overhead=NONE,
            )
            for index in range(2)
        ]
        for client in clients:
            network.attach(client)

        # Fire both discoveries, then wait on the wall clock for completion
        # (start_control is non-blocking; the SSDP response triggers each
        # control point's HTTP GET automatically).
        tokens = [
            (client, client.start_control(network, "urn:schemas-upnp-org:service:test:1"))
            for client in clients
        ]
        network.run_until(
            lambda: all(client.control_result(token) for client, token in tokens),
            timeout=5.0,
        )

        for client, token in tokens:
            result = client.control_result(token)
            print(f"{client.name}: answered: {bool(result and result.found)}")
            if result:
                print(f"  URL:  {result.url}")
                print(f"  time: {result.response_time * 1000:.1f} ms (wall clock)")

        print("\nWhat the live sharded runtime did:")
        print(f"  workers:            {runtime.worker_count}")
        print(f"  sessions per shard: {runtime.worker_session_counts()}")
        print(f"  unrouted datagrams: {runtime.unrouted_datagrams}")
        for record in runtime.sessions:
            print(f"  session: received {record.received_names} -> sent {record.sent_names}")

        runtime.undeploy()


if __name__ == "__main__":
    main()
