"""Shared plumbing for the legacy protocol endpoints used by the case studies.

The paper's evaluation runs *legacy applications* — an OpenSLP lookup
client and service, a Cyberlink UPnP control point and device, a Bonjour
browser and responder — and drops the Starlink framework between them.
This module provides the building blocks for our simulated equivalents:

* :class:`LegacyService` — a reactive responder node that parses requests
  with the protocol's MDL, asks a subclass for the reply, and sends it back
  after a configurable processing latency (the latency is what calibrates
  the evaluation, see :mod:`repro.network.latency`);
* :class:`LegacyClient` — a driver node that performs blocking lookups on a
  simulated network and reports the measured response time, adding the
  legacy client library's own overhead;
* :class:`LookupResult` — the outcome of one lookup.

The legacy endpoints deliberately speak only their own protocol and know
nothing about Starlink: transparency of the bridge is part of what the case
study demonstrates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from ..core.errors import ParseError
from ..core.mdl.base import create_composer, create_parser
from ..core.mdl.spec import MDLSpec
from ..core.message import AbstractMessage
from ..network.addressing import Endpoint
from ..network.engine import NetworkEngine, NetworkNode, recent
from ..network.latency import LatencyModel

__all__ = ["LookupResult", "LegacyService", "LegacyClient", "rng_for", "sample_latency"]


def rng_for(network: NetworkEngine, node: NetworkNode) -> random.Random:
    """The simulation's seeded generator when there is one (determinism),
    else ``node``'s own: seeded once on first use and kept, so successive
    samples on a live network differ and none pays for a seeding."""
    rng = getattr(network, "rng", None)
    if rng is None:
        rng = getattr(node, "_latency_rng", None)
        if rng is None:
            rng = node._latency_rng = random.Random(0)  # type: ignore[attr-defined]
    return rng


def sample_latency(
    network: NetworkEngine, model: Optional[LatencyModel], node: NetworkNode
) -> float:
    """One delay drawn from ``model`` for ``node`` (0.0 with no model)."""
    if model is None:
        return 0.0
    return model.sample(rng_for(network, node))


@dataclass
class LookupResult:
    """Outcome of one legacy lookup."""

    found: bool
    url: str = ""
    response_time: float = 0.0
    responses: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.found


class LegacyService(NetworkNode):
    """Base class of simulated legacy services (responders).

    Sub-classes set :attr:`mdl` and implement :meth:`build_reply`; the base
    class handles parsing, latency and addressing.
    """

    def __init__(
        self,
        name: str,
        endpoint: Endpoint,
        groups: Optional[List[Endpoint]] = None,
        mdl: Optional[MDLSpec] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.name = name
        self._endpoint = endpoint
        self._groups = list(groups or [])
        if mdl is None:
            raise ValueError(f"legacy service {name} needs an MDL specification")
        self.mdl = mdl
        self.parser = create_parser(mdl)
        self.composer = create_composer(mdl)
        self.latency = latency
        #: Requests handled: the count, and a ring of the most recent
        #: message instances, for assertions in tests.
        self.handled_count = 0
        self.handled: Deque[AbstractMessage] = recent()
        #: Requests that could not be parsed or matched.
        self.ignored: int = 0

    # -- NetworkNode ----------------------------------------------------
    def unicast_endpoints(self) -> List[Endpoint]:
        return [self._endpoint]

    def multicast_groups(self) -> List[Endpoint]:
        return list(self._groups)

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        try:
            request = self.parser.parse(data)
        except ParseError:
            self.ignored += 1
            return
        reply = self.build_reply(request, destination)
        if reply is None:
            self.ignored += 1
            return
        self.handled_count += 1
        self.handled.append(request)
        payload = self.composer.compose(reply)
        delay = sample_latency(engine, self.latency, self)
        engine.send(payload, source=self._endpoint, destination=source, delay=delay)

    # -- to be overridden -------------------------------------------------
    def build_reply(
        self, request: AbstractMessage, destination: Endpoint
    ) -> Optional[AbstractMessage]:
        """Return the reply message for ``request`` or ``None`` to ignore it."""
        raise NotImplementedError


class LegacyClient(NetworkNode):
    """Base class of simulated legacy lookup clients.

    A client owns one unicast endpoint, sends requests (usually to a
    multicast group) and collects the responses addressed back to it.  The
    blocking :meth:`_await_responses` helper advances the simulated clock
    until a response arrives or the protocol timeout expires.
    """

    def __init__(
        self,
        name: str,
        endpoint: Endpoint,
        mdl: MDLSpec,
        client_overhead: Optional[LatencyModel] = None,
    ) -> None:
        self.name = name
        self._endpoint = endpoint
        self.mdl = mdl
        self.parser = create_parser(mdl)
        self.composer = create_composer(mdl)
        self.client_overhead = client_overhead
        self._responses: List[Tuple[float, AbstractMessage, Endpoint]] = []
        #: Raw bytes of every response, in arrival order (the evaluation
        #: asserts translated outputs are byte-identical across runtimes).
        self._raw_responses: List[bytes] = []

    # -- NetworkNode ----------------------------------------------------
    def unicast_endpoints(self) -> List[Endpoint]:
        return [self._endpoint]

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        try:
            message = self.parser.parse(data)
        except ParseError:
            return
        self._record_response(engine.now(), message, source, data)

    def _record_response(
        self, now: float, message: AbstractMessage, source: Endpoint, data: bytes
    ) -> None:
        self._responses.append((now, message, source))
        self._raw_responses.append(bytes(data))

    # -- helpers for subclasses ------------------------------------------
    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint

    def clear_responses(self) -> None:
        self._responses.clear()
        self._raw_responses.clear()

    @property
    def responses(self) -> List[Tuple[float, AbstractMessage, Endpoint]]:
        return list(self._responses)

    @property
    def raw_responses(self) -> List[bytes]:
        return list(self._raw_responses)

    def _send(self, network: NetworkEngine, message: AbstractMessage, destination: Endpoint) -> None:
        network.send(self.composer.compose(message), source=self._endpoint, destination=destination)

    def _await_responses(
        self,
        network: NetworkEngine,
        minimum: int,
        timeout: float,
        message_name: Optional[str] = None,
    ) -> List[Tuple[float, AbstractMessage, Endpoint]]:
        """Advance the network until ``minimum`` matching responses arrived."""

        def matching() -> List[Tuple[float, AbstractMessage, Endpoint]]:
            return [
                entry
                for entry in self._responses
                if message_name is None or entry[1].name == message_name
            ]

        network.run_until(lambda: len(matching()) >= minimum, timeout=timeout)
        return matching()
