"""The network engine interface.

The network engine is the lowest layer of the Starlink architecture
(Fig. 6): it *"receives messages from the network and sends messages based
upon the protocol properties provided by the Automata Engine"*.  Everything
above it — parsers, composers, the automata engine — deals only in byte
arrays plus endpoint/colour information, so the engine can be swapped:

* :class:`repro.network.simulated.SimulatedNetwork` — a deterministic
  discrete-event simulation with a virtual clock, used by the tests and the
  evaluation harness (the paper's testbed latencies are modelled there);
* :class:`repro.network.aio.AsyncSocketNetwork` — real UDP/TCP sockets on
  the loopback interface, all on one asyncio event loop, for live
  deployments and the out-of-process benchmark (``bench/``).

Participants are :class:`NetworkNode` objects: they declare the unicast
endpoints they own and the multicast groups they join, and receive
datagrams through :meth:`NetworkNode.on_datagram`.  Periodic control
work (autoscaling, failure detection, telemetry) runs as a
:class:`ControlLoop` on the engine's own timer.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Protocol, Tuple

from .addressing import Endpoint

__all__ = ["NetworkNode", "NetworkEngine", "ControlLoop"]


class NetworkNode:
    """Base class for anything attached to a network engine.

    Sub-classes override :meth:`unicast_endpoints`, :meth:`multicast_groups`
    and :meth:`on_datagram`.  A node is purely reactive: it is handed every
    datagram addressed to one of its endpoints or groups and may send new
    datagrams in response.
    """

    #: Human-readable node name (used in logs and error messages).
    name: str = "node"

    def unicast_endpoints(self) -> List[Endpoint]:
        """Endpoints this node listens on (unicast)."""
        return []

    def multicast_groups(self) -> List[Endpoint]:
        """Multicast groups this node is a member of."""
        return []

    def on_datagram(
        self,
        engine: "NetworkEngine",
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        """Handle a datagram delivered to this node."""

    def on_attached(self, engine: "NetworkEngine") -> None:
        """Called when the node is registered with an engine."""


class NetworkEngine:
    """Abstract base class of network engines.

    Engines may optionally provide ``bind_endpoint(node, endpoint)`` /
    ``unbind_endpoint(node, endpoint)`` to let an attached node acquire and
    release additional unicast endpoints at runtime (per-session ephemeral
    source ports).  Callers feature-detect with ``getattr`` and fall back
    gracefully when the engine cannot bind late (e.g. the socket engine).
    """

    def now(self) -> float:
        """Current time in seconds (virtual for the simulation, wall otherwise)."""
        raise NotImplementedError

    def attach(self, node: NetworkNode) -> None:
        """Register a node: bind its endpoints and join its groups."""
        raise NotImplementedError

    def detach(self, node: NetworkNode) -> None:
        """Unregister a node."""
        raise NotImplementedError

    def send(
        self,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
        delay: float = 0.0,
    ) -> None:
        """Send ``data`` from ``source`` to ``destination``.

        Multicast destinations reach every group member except the sender.
        ``delay`` postpones the send by that many seconds (used by nodes to
        model their own processing latency).
        """
        raise NotImplementedError

    def call_later(self, delay: float, callback) -> None:
        """Schedule ``callback()`` after ``delay`` seconds."""
        raise NotImplementedError

    def departure(self, delay: float) -> float:
        """Seconds from now until a send costing its node ``delay`` seconds
        leaves: here the fixed ``delay``; a sharded worker's engine view
        queues it behind the worker's earlier sends."""
        return delay


class ControlLoop:
    """A step run every ``interval`` seconds on a network engine's timer.

    The one control-loop driver: the autoscaler, the failure detector and
    the telemetry collector all tick through it — a self-rescheduling
    ``call_later`` chain, on the virtual clock in a simulation and on the
    event loop live, so a live deployment stays one thread however many
    controllers run.  Subclasses implement :meth:`_step`.  A step that
    raises is recorded in :attr:`errors` and the chain keeps ticking: a
    control loop must survive one bad tick.  Until :meth:`stop`, a
    simulation never quiesces, so drive it with ``run_until``/``run_for``.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        #: Exceptions raised by steps (inspect after a run).
        self.errors: List[BaseException] = []
        self._network: Optional[NetworkEngine] = None
        self._running = False

    def start(self, network: NetworkEngine) -> None:
        if self._running:
            return
        self._network = network
        self._running = True
        network.call_later(self.interval, self._tick)

    def stop(self) -> None:
        """Cease rescheduling; the pending tick (if any) becomes a no-op."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        try:
            self._step()
        except Exception as exc:  # noqa: BLE001 - the control loop must survive
            self.errors.append(exc)
        if self._running:
            self._network.call_later(self.interval, self._tick)

    def _step(self) -> None:
        raise NotImplementedError
