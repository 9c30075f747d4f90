"""Endpoints, multicast groups and transports.

The network engine of the Starlink architecture needs to know, for every
send or receive, *where* and *how*: host, port, transport protocol, and
whether the destination is a multicast group.  Those attributes come from
the colour of the automaton state driving the operation (see
:class:`repro.core.automata.color.NetworkColor`); this module provides the
value types the engines work with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..core.automata.color import NetworkColor

__all__ = ["Transport", "Endpoint", "endpoint_for_color"]


class Transport:
    """Transport protocol names used throughout the network layer."""

    UDP = "udp"
    TCP = "tcp"


@lru_cache(maxsize=1024)
def _is_multicast_host(host: str) -> bool:
    """IPv4 multicast addresses live in 224.0.0.0/4.

    Memoised per host string (bounded: peers' source addresses never come
    through here, only send destinations): every send asks this, and the
    answer for ``127.0.0.1`` does not change between datagrams.
    """
    try:
        return 224 <= int(host.split(".")[0]) <= 239
    except ValueError:
        return False


@dataclass(frozen=True)
class Endpoint:
    """A network endpoint: host, port and transport."""

    host: str
    port: int
    transport: str = Transport.UDP

    @property
    def is_multicast(self) -> bool:
        """IPv4 multicast addresses live in 224.0.0.0/4."""
        return _is_multicast_host(self.host)

    def with_port(self, port: int) -> "Endpoint":
        return Endpoint(self.host, port, self.transport)

    def with_host(self, host: str) -> "Endpoint":
        return Endpoint(host, self.port, self.transport)

    def __str__(self) -> str:
        return f"{self.transport}://{self.host}:{self.port}"


def endpoint_for_color(color: NetworkColor, host: Optional[str] = None) -> Endpoint:
    """Derive the destination endpoint implied by a network colour.

    For a multicast colour the destination is the group address and port
    (``239.255.255.253:427`` for SLP); for a unicast colour the caller must
    supply the host (typically learnt from a previously received message or
    set by a ``set_host`` λ-action).
    """
    if color.is_multicast and color.group:
        return Endpoint(color.group, color.port, color.transport)
    return Endpoint(host or "0.0.0.0", color.port, color.transport)
