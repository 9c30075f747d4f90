"""Tests for the loopback socket network engines.

The contract suite runs twice — once against the thread-per-socket
:class:`SocketNetwork` and once against the event-loop
:class:`AsyncSocketNetwork` — because the two engines promise the same
``NetworkEngine`` behaviour on different substrates.  All tests exercise
real UDP/TCP sockets on 127.0.0.1 plus the in-process multicast
emulation, and are skipped automatically when the environment forbids
binding loopback sockets (some sandboxes do).
"""

from __future__ import annotations

import socket
import time
from typing import List

import pytest

from repro.network.addressing import Endpoint, Transport
from repro.network.aio import AsyncSocketNetwork
from repro.network.engine import NetworkNode
from repro.network.sockets import SocketNetwork, loopback_available

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)

ENGINES = {"thread": SocketNetwork, "aio": AsyncSocketNetwork}


@pytest.fixture(params=sorted(ENGINES))
def make_network(request):
    """Factory fixture: one engine flavour per parameterized run.

    Engines opened through the factory are closed on teardown even when
    the test body raises before its ``with`` block would have.
    """
    opened = []

    def factory(**kwargs):
        network = ENGINES[request.param](**kwargs)
        opened.append(network)
        return network

    yield factory
    for network in opened:
        try:
            network.close()
        except Exception:
            pass


class Sink(NetworkNode):
    def __init__(self, name: str, endpoints: List[Endpoint], groups: List[Endpoint] = ()):
        self.name = name
        self._endpoints = endpoints
        self._groups = list(groups)
        self.received: List[bytes] = []

    def unicast_endpoints(self) -> List[Endpoint]:
        return self._endpoints

    def multicast_groups(self) -> List[Endpoint]:
        return list(self._groups)

    def on_datagram(self, engine, data, source, destination):
        self.received.append(data)


class EchoTcp(Sink):
    def on_datagram(self, engine, data, source, destination):
        super().on_datagram(engine, data, source, destination)
        engine.send(b"pong:" + data, source=self._endpoints[0], destination=source)


class DelayedEchoTcp(Sink):
    """A TCP server that answers *after* its handler has returned.

    This is the shape of every bridged TCP exchange: the automata engine
    schedules the translated response behind its processing delay (and a
    shard router first hands the request to a worker thread), so the reply
    is sent long after ``on_datagram`` returned.  The engine must keep the
    accepted connection open as the reply channel until then.
    """

    def __init__(self, name, endpoints, delay: float = 0.15):
        super().__init__(name, endpoints)
        self.delay = delay

    def on_datagram(self, engine, data, source, destination):
        super().on_datagram(engine, data, source, destination)
        engine.send(
            b"late:" + data,
            source=self._endpoints[0],
            destination=source,
            delay=self.delay,
        )


def _wait(predicate, timeout: float = 2.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def test_udp_unicast_delivery(make_network):
    with make_network() as network:
        port = _free_port()
        sink = Sink("sink", [Endpoint("127.0.0.1", port, Transport.UDP)])
        network.attach(sink)
        network.send(b"hello", Endpoint("127.0.0.1", 0, Transport.UDP), Endpoint("127.0.0.1", port))
        assert _wait(lambda: sink.received)
        assert sink.received[0] == b"hello"


def test_emulated_multicast_fans_out(make_network):
    with make_network() as network:
        group = Endpoint("239.9.9.9", 9999, Transport.UDP)
        a = Sink("a", [Endpoint("127.0.0.1", _free_port(), Transport.UDP)], [group])
        b = Sink("b", [Endpoint("127.0.0.1", _free_port(), Transport.UDP)], [group])
        network.attach(a)
        network.attach(b)
        network.send(b"ping", Endpoint("127.0.0.1", 0, Transport.UDP), group)
        assert _wait(lambda: a.received and b.received)


def test_tcp_request_response(make_network):
    with make_network() as network:
        port = _free_port()
        server = EchoTcp("server", [Endpoint("127.0.0.1", port, Transport.TCP)])
        client_port = _free_port()
        client = Sink("client", [Endpoint("127.0.0.1", client_port, Transport.UDP)])
        network.attach(server)
        network.attach(client)
        network.send(
            b"GET /x HTTP/1.1\r\n\r\n",
            Endpoint("127.0.0.1", client_port, Transport.UDP),
            Endpoint("127.0.0.1", port, Transport.TCP),
        )
        assert _wait(lambda: client.received, timeout=3.0)
        assert client.received[0].startswith(b"pong:GET /x")


def test_tcp_delayed_reply_reaches_a_client_that_finished_sending(make_network):
    """Regression: a server reply scheduled after dispatch must still arrive.

    Before the reply-channel fix the engine closed the accepted connection
    as soon as ``on_datagram`` returned; the delayed reply then fell back to
    dialling the peer's kernel-ephemeral port and died with
    ``ConnectionRefusedError``, which is exactly how every bridge case with
    a TCP/HTTP leg failed live.
    """
    with make_network() as network:
        port = _free_port()
        server = DelayedEchoTcp(
            "server", [Endpoint("127.0.0.1", port, Transport.TCP)], delay=0.2
        )
        client_port = _free_port()
        client = Sink("client", [Endpoint("127.0.0.1", client_port, Transport.UDP)])
        network.attach(server)
        network.attach(client)
        network.send(
            b"GET /slow HTTP/1.1\r\n\r\n",
            Endpoint("127.0.0.1", client_port, Transport.UDP),
            Endpoint("127.0.0.1", port, Transport.TCP),
        )
        assert _wait(lambda: client.received, timeout=5.0)
        assert client.received[0] == b"late:GET /slow HTTP/1.1\r\n\r\n"


def test_tcp_unanswered_connection_closes_after_reply_timeout(make_network):
    """A node that never answers must not hold the client forever."""
    with make_network(tcp_reply_timeout=0.2) as network:
        port = _free_port()
        server = Sink("mute", [Endpoint("127.0.0.1", port, Transport.TCP)])
        client_port = _free_port()
        client = Sink("client", [Endpoint("127.0.0.1", client_port, Transport.UDP)])
        network.attach(server)
        network.attach(client)
        started = time.monotonic()
        network.send(
            b"ping",
            Endpoint("127.0.0.1", client_port, Transport.UDP),
            Endpoint("127.0.0.1", port, Transport.TCP),
        )
        # The sender's read loop ends on the server's timeout close (EOF,
        # empty response, nothing delivered) well before its own deadline.
        assert time.monotonic() - started < 3.0
        assert server.received == [b"ping"]
        assert client.received == []


def test_reply_after_channel_close_is_dropped_not_raised():
    """Regression: a reply losing the race against the handler's timeout.

    ``send()`` can fetch the reply channel just before the handler's
    ``finally`` pops and closes it; the write must then be counted as a
    dropped reply, not raise on (and kill) the sending timer thread, and
    not fall through to dialling the peer's kernel-ephemeral port.

    Thread engine only — it pokes the engine's internals.  The async
    engine's equivalent race is covered by
    ``test_delayed_reply_past_timeout_lands_in_error_log``, which runs on
    both engines.
    """
    from repro.network.sockets import _TcpReplyChannel

    with SocketNetwork() as network:
        a, b = socket.socketpair()
        channel = _TcpReplyChannel(a)
        channel.close()
        b.close()
        peer = ("127.0.0.1", 54321)
        with network._lock:
            network._tcp_replies[peer] = channel
        network._send_tcp(
            b"too late",
            Endpoint("127.0.0.1", 1, Transport.UDP),
            Endpoint(peer[0], peer[1], Transport.TCP),
        )
        assert network.tcp_replies_dropped == 1


def test_delayed_reply_past_timeout_lands_in_error_log(make_network):
    """A delayed send that misses the reply window must not vanish.

    Once the handler has popped (or retired) the channel, the engine falls
    back to dialling the peer's ephemeral port and fails; on a timer
    thread that exception used to be silently dropped — it now lands in
    the engine's ``errors`` list like ``WorkerLoop.errors``.
    """
    with make_network(tcp_reply_timeout=0.1) as network:
        port = _free_port()
        server = DelayedEchoTcp(
            "server", [Endpoint("127.0.0.1", port, Transport.TCP)], delay=0.6
        )
        client_port = _free_port()
        client = Sink("client", [Endpoint("127.0.0.1", client_port, Transport.UDP)])
        network.attach(server)
        network.attach(client)
        network.send(
            b"GET /very-slow HTTP/1.1\r\n\r\n",
            Endpoint("127.0.0.1", client_port, Transport.UDP),
            Endpoint("127.0.0.1", port, Transport.TCP),
        )
        assert _wait(
            lambda: network.errors or network.tcp_replies_dropped, timeout=5.0
        )
        assert client.received == []


def test_receiver_thread_survives_a_raising_handler(make_network):
    """A node whose handler raises must not kill its receiver.

    The port would stay bound but permanently deaf otherwise; the error is
    recorded in the engine's ``errors`` list and the next datagram
    delivered.
    """

    class Faulty(Sink):
        def on_datagram(self, engine, data, source, destination):
            super().on_datagram(engine, data, source, destination)
            if data == b"bad":
                raise RuntimeError("handler blew up")

    with make_network() as network:
        port = _free_port()
        node = Faulty("faulty", [Endpoint("127.0.0.1", port, Transport.UDP)])
        network.attach(node)
        src = Endpoint("127.0.0.1", 0, Transport.UDP)
        network.send(b"bad", src, Endpoint("127.0.0.1", port))
        assert _wait(lambda: network.errors)
        assert str(network.errors[0]) == "handler blew up"
        network.send(b"good", src, Endpoint("127.0.0.1", port))
        assert _wait(lambda: b"good" in node.received)


def test_now_is_monotonic_and_call_later_fires(make_network):
    with make_network() as network:
        fired = []
        network.call_later(0.05, lambda: fired.append(True))
        first = network.now()
        assert _wait(lambda: fired)
        assert network.now() >= first


# ----------------------------------------------------------------------
# timer lifecycle: leak, close, and detach semantics (both engines)
# ----------------------------------------------------------------------


def test_fired_timers_are_pruned(make_network):
    """Regression: ``call_later`` must not accumulate fired timers.

    The thread engine used to append every ``threading.Timer`` to
    ``_timers`` and only clear the list in ``close()`` — a long-lived
    deployment scheduling periodic work (eviction sweeps, telemetry
    ticks) leaked one Timer thread object per tick, unbounded.  Both
    engines now remove a timer from the registry when it fires.
    """
    with make_network() as network:
        fired = []
        for _ in range(100):
            network.call_later(0.0, lambda: fired.append(True))
        assert _wait(lambda: len(fired) == 100)
        # The registry holds pending timers only; after all 100 fired it
        # must be empty, not a graveyard of spent handles.
        assert _wait(lambda: len(network._timers) == 0)


def test_no_timer_callback_after_close(make_network):
    """A timer that outlives ``close()`` must not run its callback."""
    with make_network() as network:
        fired = []
        network.call_later(0.15, lambda: fired.append(True))
    time.sleep(0.4)
    assert fired == []


class TickingNode(Sink):
    """A node that schedules a periodic timer chain from its dispatch.

    The chain is re-armed from inside the previous tick — the shape of
    every eviction sweep — so ownership must survive the reschedule, not
    just the first ``call_later``.
    """

    def __init__(self, name, endpoints, period: float = 0.05):
        super().__init__(name, endpoints)
        self.period = period
        self.ticks = 0

    def on_attached(self, engine) -> None:
        engine.call_later(self.period, lambda: self._tick(engine))

    def _tick(self, engine) -> None:
        self.ticks += 1
        engine.call_later(self.period, lambda: self._tick(engine))


def test_detach_stops_the_nodes_timer_chain(make_network):
    """Regression: ``detach`` used to leave the node's timers running.

    A detached worker shell's eviction sweep kept firing into the engine
    (and rescheduling itself forever).  Timers are attributed to the node
    whose dispatch scheduled them; once that node is detached they become
    no-ops and the chain dies.
    """
    with make_network() as network:
        node = TickingNode(
            "ticker", [Endpoint("127.0.0.1", _free_port(), Transport.UDP)]
        )
        network.attach(node)
        assert _wait(lambda: node.ticks >= 2)
        network.detach(node)
        settled = node.ticks
        time.sleep(0.25)
        assert node.ticks <= settled + 1  # one in-flight tick may land
        final = node.ticks
        time.sleep(0.25)
        assert node.ticks == final
        assert not network.errors


def test_detach_is_safe_while_timers_pending(make_network):
    """Detaching a node with pending timers must not raise or fire them."""
    with make_network() as network:
        node = TickingNode(
            "brief", [Endpoint("127.0.0.1", _free_port(), Transport.UDP)],
            period=0.3,
        )
        network.attach(node)
        network.detach(node)
        network.detach(node)  # double detach is a no-op
        time.sleep(0.5)
        assert node.ticks == 0
        assert not network.errors


# ----------------------------------------------------------------------
# pipelined TCP: a second exchange on the same accepted connection (aio)
# ----------------------------------------------------------------------


def test_tcp_pipelined_second_exchange_same_connection():
    """The async engine serves sequential exchanges on one connection.

    A raw client sends a request, reads the reply, then — without
    reconnecting — sends a second request and reads its reply.  The
    thread engine closes after one exchange (connection-per-request);
    the async handler loops: read → dispatch → await reply → read again.
    """
    with AsyncSocketNetwork(tcp_reply_timeout=2.0) as network:
        port = _free_port()
        server = EchoTcp("server", [Endpoint("127.0.0.1", port, Transport.TCP)])
        network.attach(server)

        client = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        try:
            client.sendall(b"first")
            first = client.recv(65536)
            assert first == b"pong:first"
            client.sendall(b"second")
            second = client.recv(65536)
            assert second == b"pong:second"
        finally:
            client.close()
        assert server.received == [b"first", b"second"]


def test_tcp_pipelined_connection_closes_when_client_goes_quiet():
    """After a served exchange the handler waits one reply window, then closes."""
    with AsyncSocketNetwork(tcp_reply_timeout=0.2) as network:
        port = _free_port()
        server = EchoTcp("server", [Endpoint("127.0.0.1", port, Transport.TCP)])
        network.attach(server)

        client = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        try:
            client.sendall(b"only")
            assert client.recv(65536) == b"pong:only"
            client.settimeout(3.0)
            # The server ends the idle connection; the client reads EOF.
            assert client.recv(65536) == b""
        finally:
            client.close()


# ----------------------------------------------------------------------
# uvloop gating (optional accelerator, never a hard dependency)
# ----------------------------------------------------------------------


def test_uvloop_is_optional_and_gated():
    """`use_uvloop=None` adapts; `True` requires; `False` pins stdlib."""
    from repro.network.aio import uvloop_available

    with AsyncSocketNetwork(use_uvloop=False) as network:
        assert network.uvloop_active is False
    with AsyncSocketNetwork() as network:
        assert network.uvloop_active == uvloop_available()
    if not uvloop_available():
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            AsyncSocketNetwork(use_uvloop=True)


# ----------------------------------------------------------------------
# runtime endpoint binding (both engines)
# ----------------------------------------------------------------------


def test_bind_endpoint_after_attach_delivers_and_unbinds(make_network):
    """The live per-session ephemeral port substrate: a node can acquire a
    kernel-assigned UDP endpoint at runtime, receive on it, and release it
    (ROADMAP satellite: `bind_endpoint` on the socket engine)."""
    with make_network() as network:
        node = Sink("late", [Endpoint("127.0.0.1", _free_port(), Transport.UDP)])
        network.attach(node)
        assert network.kernel_ephemeral_ports
        bound = network.bind_endpoint(node, Endpoint("127.0.0.1", 0, Transport.UDP))
        assert bound.port != 0

        src = Endpoint("127.0.0.1", 0, Transport.UDP)
        network.send(b"to-ephemeral", src, bound)
        assert _wait(lambda: b"to-ephemeral" in node.received)

        network.unbind_endpoint(node, bound)
        # The port is returned to the kernel: a fresh socket can bind it.
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            assert _wait(lambda: _rebindable(probe, bound.port))
        finally:
            probe.close()


def _rebindable(sock: socket.socket, port: int) -> bool:
    try:
        sock.bind(("127.0.0.1", port))
        return True
    except OSError:
        return False


def test_bind_endpoint_rejects_tcp_and_foreign_rebind(make_network):
    from repro.core.errors import NetworkError

    with make_network() as network:
        a = Sink("a", [Endpoint("127.0.0.1", _free_port(), Transport.UDP)])
        b = Sink("b", [Endpoint("127.0.0.1", _free_port(), Transport.UDP)])
        network.attach(a)
        network.attach(b)
        with pytest.raises(NetworkError):
            network.bind_endpoint(a, Endpoint("127.0.0.1", 0, Transport.TCP))
        bound = network.bind_endpoint(a, Endpoint("127.0.0.1", 0, Transport.UDP))
        with pytest.raises(NetworkError):
            network.bind_endpoint(b, bound)
        # Unbinding by a node that does not own the endpoint is a no-op.
        network.unbind_endpoint(b, bound)
        network.send(b"still-mine", Endpoint("127.0.0.1", 0, Transport.UDP), bound)
        assert _wait(lambda: b"still-mine" in a.received)


def test_ephemeral_binds_never_share_a_port(make_network):
    """Per-session port-0 binds get ports nothing else in the process holds.

    With ``SO_REUSEADDR`` on a port-0 bind, Linux may hand out a port
    another ``SO_REUSEADDR`` socket of the process already has: a session
    then shadows a service on a fixed port, or two sessions share a port
    and the first to finish closes the other's socket (the benchmark's
    lost lookups).  A few hundred binds make such a collision near
    certain inside ``ip_local_port_range``.
    """
    with make_network() as network:
        # A declared port the kernel picked from the ephemeral range:
        # attach binds it with ``SO_REUSEADDR``, like any service port.
        fixed = Endpoint("127.0.0.1", _free_port(), Transport.UDP)
        node = Sink("sessions", [fixed])
        network.attach(node)
        bound = [
            network.bind_endpoint(node, Endpoint("127.0.0.1", 0, Transport.UDP))
            for _ in range(400)
        ]
        ports = [endpoint.port for endpoint in bound]
        assert len(set(ports)) == len(ports)
        assert fixed.port not in ports

        # One session ending closes its own socket and no other.
        network.unbind_endpoint(node, bound[0])
        src = Endpoint("127.0.0.1", 0, Transport.UDP)
        survivors = bound[1:] + [fixed]
        for endpoint in survivors:
            network.send(b"port-%d" % endpoint.port, src, endpoint)
        expected = {b"port-%d" % endpoint.port for endpoint in survivors}
        assert _wait(lambda: expected <= set(node.received), timeout=5.0)
    # The thread engine's receivers hold a closed socket's port until their
    # next poll; without ``SO_REUSEADDR`` that would fail a later test's
    # fixed-port bind that happens to land on one of these 400.
    assert _wait(lambda: all(_released(port) for port in ports), timeout=3.0)


def _released(port: int) -> bool:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        return _rebindable(probe, port)
    finally:
        probe.close()
