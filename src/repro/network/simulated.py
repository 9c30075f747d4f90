"""A deterministic discrete-event simulated network.

The simulation provides what the paper's evaluation testbed provides — UDP
unicast and multicast, TCP request/response exchanges, and measurable
end-to-end times — while staying deterministic and fast: time is virtual,
events are processed in timestamp order, and all randomness (latency
jitter, packet loss) comes from a seeded generator.

Participants are :class:`~repro.network.engine.NetworkNode` objects.  A
node owns unicast endpoints, joins multicast groups, and reacts to
datagrams; reactions may send further datagrams (possibly after a delay, to
model service processing time).  Driver code — a legacy client performing a
lookup, or the evaluation harness — uses :meth:`SimulatedNetwork.run_until`
to advance virtual time until a condition holds.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.errors import NetworkError
from .addressing import Endpoint
from .engine import NetworkEngine, NetworkNode
from .latency import CalibratedLatencies, default_latencies

__all__ = ["SimulatedNetwork"]


class SimulatedNetwork(NetworkEngine):
    """Discrete-event network simulation with a virtual clock."""

    def __init__(
        self,
        latencies: Optional[CalibratedLatencies] = None,
        seed: int = 7,
        loss_rate: float = 0.0,
    ) -> None:
        self.latencies = latencies if latencies is not None else default_latencies()
        self.rng = random.Random(seed)
        #: Fraction of datagrams silently dropped (failure injection).
        self.loss_rate = loss_rate
        self._clock = 0.0
        self._sequence = itertools.count()
        self._events: List[Tuple[float, int, Callable[[], None]]] = []
        self._nodes: List[NetworkNode] = []
        self._unicast: Dict[Tuple[str, int, str], NetworkNode] = {}
        self._groups: Dict[Tuple[str, int], Set[NetworkNode]] = {}
        #: Trace of every delivered datagram: (time, source, destination, size).
        self.delivery_log: List[Tuple[float, Endpoint, Endpoint, int]] = []
        #: Count of datagrams dropped by loss injection.
        self.dropped = 0

    # ------------------------------------------------------------------
    # clock and scheduling
    # ------------------------------------------------------------------
    def now(self) -> float:
        return self._clock

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        if delay < 0:
            raise NetworkError(f"cannot schedule an event {delay}s in the past")
        heapq.heappush(self._events, (self._clock + delay, next(self._sequence), callback))

    def pending_events(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def attach(self, node: NetworkNode) -> None:
        if node in self._nodes:
            return
        self._nodes.append(node)
        for endpoint in node.unicast_endpoints():
            key = (endpoint.host, endpoint.port, endpoint.transport)
            if key in self._unicast and self._unicast[key] is not node:
                raise NetworkError(
                    f"endpoint {endpoint} already bound by node "
                    f"'{self._unicast[key].name}'"
                )
            self._unicast[key] = node
        for group in node.multicast_groups():
            self._groups.setdefault((group.host, group.port), set()).add(node)
        node.on_attached(self)

    def detach(self, node: NetworkNode) -> None:
        if node not in self._nodes:
            return
        self._nodes.remove(node)
        self._unicast = {key: n for key, n in self._unicast.items() if n is not node}
        for members in self._groups.values():
            members.discard(node)

    def rebind(self, node: NetworkNode) -> None:
        """Re-read a node's endpoints/groups (after it allocated new ones)."""
        if node in self._nodes:
            self.detach(node)
        self.attach(node)

    def bind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> Endpoint:
        """Bind one extra unicast endpoint to an already-attached node.

        The automata engine allocates per-session ephemeral source ports
        this way (exact upstream attribution); ``detach`` releases them
        all.  Returns the bound endpoint — unchanged here, but the socket
        engine's implementation may substitute a kernel-assigned port, so
        callers must use the return value.
        """
        key = (endpoint.host, endpoint.port, endpoint.transport)
        owner = self._unicast.get(key)
        if owner is not None and owner is not node:
            raise NetworkError(
                f"endpoint {endpoint} already bound by node '{owner.name}'"
            )
        self._unicast[key] = node
        return endpoint

    def unbind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> None:
        """Release an endpoint bound with :meth:`bind_endpoint`."""
        key = (endpoint.host, endpoint.port, endpoint.transport)
        if self._unicast.get(key) is node:
            del self._unicast[key]

    def node_for_endpoint(self, endpoint: Endpoint) -> Optional[NetworkNode]:
        return self._unicast.get((endpoint.host, endpoint.port, endpoint.transport))

    def group_members(self, group: Endpoint) -> Set[NetworkNode]:
        return set(self._groups.get((group.host, group.port), set()))

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
        delay: float = 0.0,
    ) -> None:
        """Queue delivery of ``data`` to every recipient of ``destination``."""
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.dropped += 1
            return
        recipients = self._recipients(source, destination)
        if not recipients:
            # Mirror UDP semantics: a datagram to nobody is silently dropped,
            # but keep a trace so tests can assert on it.
            self.dropped += 1
            return
        for recipient in recipients:
            latency = self.latencies.link.sample(self.rng)
            total_delay = max(0.0, delay) + latency

            def deliver(node: NetworkNode = recipient) -> None:
                self.delivery_log.append((self._clock, source, destination, len(data)))
                node.on_datagram(self, data, source, destination)

            self.call_later(total_delay, deliver)

    def _recipients(self, source: Endpoint, destination: Endpoint) -> List[NetworkNode]:
        if destination.is_multicast:
            members = self._groups.get((destination.host, destination.port), set())
            sender = self.node_for_endpoint(source)
            # Deterministic fan-out order: the per-recipient latency draws
            # below consume the seeded rng, so iterating the member *set*
            # (hash order = object addresses) would make delivery times
            # vary run to run — the byte-stable postmortem contract needs
            # every draw bound to the same recipient every run.
            return sorted(
                (node for node in members if node is not sender),
                key=lambda node: getattr(node, "name", ""),
            )
        node = self.node_for_endpoint(destination)
        return [node] if node is not None else []

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the next event; return False when the queue is empty."""
        if not self._events:
            return False
        when, _, callback = heapq.heappop(self._events)
        if when < self._clock:
            when = self._clock
        self._clock = when
        callback()
        return True

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until the event queue drains; return the number of events."""
        processed = 0
        while self._events and processed < max_events:
            self.step()
            processed += 1
        if self._events:
            raise NetworkError(
                f"simulation did not quiesce after {max_events} events"
            )
        return processed

    def run_until(
        self,
        predicate: Callable[[], bool],
        timeout: float,
        max_events: int = 1_000_000,
    ) -> bool:
        """Advance virtual time until ``predicate()`` holds or ``timeout`` passes.

        Returns ``True`` when the predicate became true.  The clock always
        advances to at least ``start + timeout`` when the predicate stays
        false (mirroring a blocking receive with a timeout), provided no
        events remain before the deadline.
        """
        deadline = self._clock + timeout
        processed = 0
        while not predicate():
            if processed >= max_events:
                raise NetworkError(
                    f"run_until exceeded {max_events} events without satisfying predicate"
                )
            if not self._events or self._events[0][0] > deadline:
                self._clock = deadline
                return predicate()
            self.step()
            processed += 1
        return True

    def run_for(self, duration: float, max_events: int = 1_000_000) -> None:
        """Advance the clock by ``duration`` seconds, processing due events."""
        deadline = self._clock + duration
        processed = 0
        while self._events and self._events[0][0] <= deadline:
            if processed >= max_events:
                raise NetworkError("run_for exceeded event budget")
            self.step()
            processed += 1
        self._clock = deadline
