"""Whether this environment can run the socket engine at all.

The engine itself is :class:`repro.network.aio.AsyncSocketNetwork`; this
module holds only the probe the live tests, benchmarks (``bench/``
included) and examples gate themselves on.
"""

from __future__ import annotations

import socket

__all__ = ["loopback_available"]


def loopback_available() -> bool:
    """Whether this environment permits loopback UDP *and* TCP sockets.

    Some sandboxes and minimal containers forbid them; the live tests,
    benchmarks and examples probe with this and skip themselves.  The
    gated code binds UDP sockets, binds TCP listeners *and* dials TCP
    connections, so the probe exercises all three — a sandbox that allows
    UDP but blocks TCP (or allows binds but blocks connects) must fail it.
    """
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            with socket.create_connection(
                ("127.0.0.1", server.getsockname()[1]), timeout=1.0
            ):
                pass
        finally:
            server.close()
        return True
    except OSError:
        return False
