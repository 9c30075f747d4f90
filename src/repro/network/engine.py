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

from collections import deque
from typing import Callable, Deque, Iterable, List, Optional, Protocol, Tuple

from .addressing import Endpoint

__all__ = ["NetworkNode", "NetworkEngine", "ControlLoop", "RECENT_RECORDS", "recent"]

#: How many entries a long-running node keeps of what it served (completed
#: and evicted sessions, parse failures, handled requests).  Each is an
#: exact counter plus a ring of this many most recent entries, so nothing
#: a session leaves behind outlives it unbounded.  The smallest power of
#: two at or above the largest read of any harness or test: the trace
#: overhead workload's 150 sessions on one engine.
RECENT_RECORDS = 256


def recent() -> Deque:
    """An empty ring of the :data:`RECENT_RECORDS` most recent entries."""
    return deque(maxlen=RECENT_RECORDS)


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

    Besides sending and timers, every engine can bind late — an attached
    node acquires and releases extra unicast endpoints at runtime
    (per-session ephemeral source ports) — and can wait:
    :meth:`run_until` / :meth:`run_for` advance the virtual clock in a
    simulation and block the calling thread on a socket engine, so a
    driver waits the same way on either.
    """

    #: Whether late binds request port 0 and leave reuse to the kernel
    #: (socket engines), rather than naming each port themselves.
    kernel_ephemeral_ports: bool = False

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

    def bind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> Endpoint:
        """Bind one extra unicast endpoint to an attached node; returns the
        bound endpoint (a socket engine substitutes a kernel-assigned port
        for port 0, so callers must use the return value)."""
        raise NotImplementedError

    def unbind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> None:
        """Release an endpoint bound with :meth:`bind_endpoint`."""
        raise NotImplementedError

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Wait until ``predicate()`` holds or ``timeout`` seconds pass;
        returns ``predicate()``."""
        raise NotImplementedError

    def run_for(self, duration: float) -> None:
        """Let ``duration`` seconds pass."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the engine's resources (nothing to release by default)."""

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
