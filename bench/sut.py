"""System under test: one bridge deployment, alone in its own process.

Launched by ``bench/run.py`` (never imported by it).  Builds the case's
bridge with ``processing_delay=0.0``, deploys it as a sharded live runtime
on real loopback sockets, attaches the case's legacy service in the same
process (multicast is emulated in-process, so the service must share the
network object), then speaks a two-line protocol on its pipes::

    stdout: READY {"pid": ..., "slp": [host, port]}
    stdin:  STOP
    stdout: METRICS {...runtime counters, read before undeploy...}

EOF on stdin is treated as ``STOP``, so a dead driver never leaves a SUT
behind.  With ``--traced`` the public seams of the deployed objects are
wrapped by :mod:`spans` before ``READY`` and the span aggregates ride on
the ``METRICS`` line.

This file is the benchmark's pinned import surface into ``repro`` (listed
in ``bench/README.md``): later refactors must keep it importable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bridges import BRIDGE_BUILDERS  # noqa: E402
from repro.network.latency import LatencyModel  # noqa: E402
from repro.protocols.mdns import BonjourResponder  # noqa: E402
from repro.protocols.upnp import UPnPDevice  # noqa: E402

HOST = "127.0.0.1"
#: Loopback ports owned by the benchmark (clear of the tests' 41xxx/42xxx).
BRIDGE_PORT = 21100
SERVICE_PORT = 21400
_ZERO = LatencyModel(0.0, 0.0)
SETTLE_S = 0.05


def build_bridge(case: int):
    """The case's bridge at the benchmark's address, zero modelled delay."""
    return BRIDGE_BUILDERS[case](host=HOST, base_port=BRIDGE_PORT, processing_delay=0.0)


def build_service(case: int):
    """The legacy service answering ``case``'s upstream leg, zero latency."""
    if case == 1:
        return UPnPDevice(
            host=HOST,
            ssdp_port=SERVICE_PORT,
            http_port=SERVICE_PORT + 1,
            ssdp_latency=_ZERO,
            http_latency=_ZERO,
        )
    if case == 2:
        return BonjourResponder(host=HOST, port=SERVICE_PORT, latency=_ZERO)
    raise ValueError(f"the benchmark drives SLP-client cases 1 and 2, not case {case}")


def _substrate(name: str):
    if name == "aio":
        from repro.network.aio import AsyncSocketNetwork
        from repro.runtime.aio_live import AsyncLiveShardedRuntime

        return AsyncSocketNetwork(host=HOST, use_uvloop=False), AsyncLiveShardedRuntime
    # Ad-hoc bake-offs only (ROADMAP direction 3); no workload names it.
    from repro.network.sockets import SocketNetwork
    from repro.runtime.live import LiveShardedRuntime

    return SocketNetwork(host=HOST), LiveShardedRuntime


def _counters(runtime) -> dict:
    """The runtime's own counters, flattened to the benchmark's names."""
    snapshot = runtime.metrics(include_latency=False)
    router = snapshot.router
    completed = [worker.completed_sessions for worker in snapshot.workers]
    return {
        "runtime.routed": router.routed_datagrams,
        "runtime.unrouted": router.unrouted_datagrams,
        "runtime.echoes_dropped": router.echoes_dropped,
        "runtime.sticky_entries_end": router.sticky_entries,
        "runtime.completed_per_worker": completed,
        "core.engine.discriminator_hits": runtime.discriminator_hits
        + runtime.router_discriminator_hits,
        "core.engine.discriminator_misses": router.discriminator_misses
        + sum(worker.discriminator_misses for worker in snapshot.workers),
        "core.engine.garbage_rejects": router.garbage_rejects
        + sum(worker.garbage_rejects for worker in snapshot.workers),
        "core.engine.sessions_completed": sum(completed),
        "core.engine.sessions_evicted": sum(
            worker.evicted_sessions for worker in snapshot.workers
        ),
        "core.engine.worker_errors": len(runtime.worker_errors),
        "network.errors": router.network_errors,
        "network.tcp_replies_dropped": router.tcp_replies_dropped,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", type=int, required=True, choices=(1, 2))
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--substrate", choices=("aio", "thread"), default="aio")
    parser.add_argument("--traced", metavar="TRACE_JSON", default=None)
    args = parser.parse_args()

    bridge = build_bridge(args.case)
    network, runtime_class = _substrate(args.substrate)
    runtime = runtime_class.from_bridge(bridge, workers=args.workers)
    service = build_service(args.case)
    recorder = None
    try:
        router = runtime.deploy(network)
        network.attach(service)
        if args.traced:  # run.py only asks for it on the single-loop substrate
            from spans import instrument

            recorder = instrument(network, router, bridge.merged.translation, service)
        slp = runtime.public_endpoints["SLP"]
        print("READY " + json.dumps({"pid": os.getpid(), "slp": [slp.host, slp.port]}), flush=True)
        sys.stdin.readline()  # "STOP", or EOF when the driver died
        # Every reply is out, but echoes of the last multicasts may still
        # sit in the router's socket buffer: let the loop go idle so the
        # counters are the same from run to run.
        time.sleep(SETTLE_S)
        metrics = _counters(runtime)
        if recorder is not None:
            metrics["spans"] = recorder.aggregates()
            recorder.dump(args.traced)
        print("METRICS " + json.dumps(metrics), flush=True)
    finally:
        runtime.undeploy()
        network.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
