"""Network engines: addressing, simulation, latency calibration and sockets.

The socket engine, :class:`repro.network.aio.AsyncSocketNetwork`, is not
re-exported here: importing it imports ``asyncio``, which simulation-only
users of this package should not pay for.
"""

from .addressing import Endpoint, Transport, endpoint_for_color
from .engine import NetworkEngine, NetworkNode
from .latency import CalibratedLatencies, LatencyModel, default_latencies
from .simulated import SimulatedNetwork

__all__ = [
    "Endpoint",
    "Transport",
    "endpoint_for_color",
    "NetworkEngine",
    "NetworkNode",
    "SimulatedNetwork",
    "LatencyModel",
    "CalibratedLatencies",
    "default_latencies",
]
