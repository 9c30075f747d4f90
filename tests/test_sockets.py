"""Tests for the loopback socket network engine.

The suite runs once per event loop the platform has — the stdlib loop
always, uvloop where it is installed — against
:class:`AsyncSocketNetwork`'s ``NetworkEngine`` contract.  All tests
exercise real UDP/TCP sockets on 127.0.0.1 plus the in-process multicast
emulation, and are skipped automatically when the environment forbids
binding loopback sockets (some sandboxes do).
"""

from __future__ import annotations

import gc
import os
import socket
import struct
import threading
import time
import warnings
import weakref
from typing import List

import pytest

from repro.core.errors import NetworkError
from repro.network.addressing import Endpoint, Transport
from repro.network.aio import (
    _DRAIN_BOUND,
    _TCP_IDLE_TIMEOUT,
    AsyncSocketNetwork,
    _TcpConnection,
    uvloop_available,
)
from repro.network.engine import NetworkNode
from repro.network.sockets import loopback_available

pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)

#: ``use_uvloop`` values the suite runs under.
LOOPS = [False] + ([True] if uvloop_available() else [])


@pytest.fixture(params=LOOPS, ids=lambda use_uvloop: "uvloop" if use_uvloop else "aio")
def make_network(request):
    """Factory fixture: one event loop per parameterized run.

    Engines opened through the factory are closed on teardown even when
    the test body raises before its ``with`` block would have.
    """
    opened = []

    def factory(**kwargs):
        network = AsyncSocketNetwork(use_uvloop=request.param, **kwargs)
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
    shard router first hands the request to a worker queue), so the reply
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
    """A port free for both UDP and a TCP listener.

    The TCP probe binds port 0 with ``SO_REUSEADDR``, so the kernel also
    skips ports a client connection holds in ``TIME_WAIT`` (those refuse
    a listener's bind, ``SO_REUSEADDR`` or not).
    """
    while True:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as tcp:
            tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            tcp.bind(("127.0.0.1", 0))
            port = tcp.getsockname()[1]
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as udp:
                if _rebindable(udp, port):
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

    A sender can find the reply channel just as the handler's timeout
    retires it; the write must then be counted as a dropped reply — not
    raise to the sender, not land in ``errors``, and not fall through to
    dialling the peer's kernel-ephemeral port.  (It pokes the engine's
    internals to hit the window; the same race by timing alone is
    ``test_delayed_reply_past_timeout_lands_in_error_log``.)
    """
    with AsyncSocketNetwork() as network:
        peer = ("127.0.0.1", 54321)
        channel = _TcpConnection(network, socket.socket(), None, None, peer)
        channel.close()  # retired: the reply window is over
        network._tcp_replies[peer] = channel
        network.send(
            b"too late",
            Endpoint("127.0.0.1", 1, Transport.UDP),
            Endpoint(peer[0], peer[1], Transport.TCP),
        )
        assert network.tcp_replies_dropped == 1
        assert network.errors == []


def test_delayed_reply_past_timeout_lands_in_error_log(make_network):
    """A delayed send that misses the reply window must not vanish.

    Once the handler has popped (or retired) the channel, the engine falls
    back to dialling the peer's ephemeral port and fails; a timer callback
    has no caller to raise to, so the exception lands in the engine's
    ``errors`` list like ``AsyncWorkerLoop.errors``.
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
# waiting: run_until / run_for block the caller while the loop works
# ----------------------------------------------------------------------


def test_run_until_returns_true_as_soon_as_the_predicate_holds(make_network):
    network = make_network()
    fired = threading.Event()
    network.call_later(0.05, fired.set)
    started = time.monotonic()
    assert network.run_until(fired.is_set, timeout=5.0) is True
    assert time.monotonic() - started < 1.0


def test_run_until_returns_false_no_earlier_than_its_timeout(make_network):
    network = make_network()
    started = time.monotonic()
    assert network.run_until(lambda: False, timeout=0.1) is False
    assert time.monotonic() - started >= 0.1


def test_waiting_on_the_loop_thread_raises_instead_of_hanging(make_network):
    """Nothing a wait on the loop thread waits for could run: refused."""
    network = make_network()
    raised: List[BaseException] = []
    done = threading.Event()

    def on_loop() -> None:
        for wait in (lambda: network.run_until(lambda: False, timeout=5.0),
                     lambda: network.run_for(5.0)):
            try:
                wait()
            except NetworkError as exc:
                raised.append(exc)
        done.set()

    network.call_later(0.0, on_loop)
    assert done.wait(2.0)
    assert len(raised) == 2 and not network.errors


def test_run_until_returns_promptly_after_close(make_network):
    network = make_network()
    network.close()
    started = time.monotonic()
    assert network.run_until(lambda: False, timeout=5.0) is False
    assert time.monotonic() - started < 1.0


def test_run_for_waits_at_least_its_duration(make_network):
    network = make_network()
    fired = []
    network.call_later(0.0, lambda: fired.append(True))
    started = time.monotonic()
    network.run_for(0.05)
    assert time.monotonic() - started >= 0.05
    assert fired


# ----------------------------------------------------------------------
# timer lifecycle: leak, close, and detach semantics
# ----------------------------------------------------------------------


def test_fired_timers_are_pruned(make_network):
    """Regression: ``call_later`` must not accumulate fired timers.

    A long-lived deployment scheduling periodic work (eviction sweeps,
    telemetry ticks) would otherwise leak one spent handle per tick,
    unbounded: the engine removes a timer from the registry when it fires.
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


def test_close_cancels_pending_timers_and_frees_their_callbacks(make_network):
    """``close()`` cancels every pending timer, and reference counting
    alone frees a cancelled timer's callback: no cycle keeps it alive."""

    class Callback:
        def __call__(self) -> None:
            raise AssertionError("a cancelled timer ran")

    network = make_network()
    callback = Callback()
    freed = weakref.ref(callback)
    network.call_later(60.0, callback)
    del callback
    assert _wait(lambda: len(network._timers) == 1)
    gc.disable()
    try:
        network.close()
        assert not network._timers
        assert freed() is None
    finally:
        gc.enable()


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
# pipelined TCP: a second exchange on the same accepted connection
# ----------------------------------------------------------------------


def test_tcp_pipelined_second_exchange_same_connection():
    """The engine serves sequential exchanges on one connection.

    A raw client sends a request, reads the reply, then — without
    reconnecting — sends a second request and reads its reply: the
    handler loops read → dispatch → await reply → read again.
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
# runtime endpoint binding
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
    # Closing the engine released every one of them: a later test's
    # fixed-port bind may land on any of these 400.
    assert _wait(lambda: all(_released(port) for port in ports), timeout=3.0)


def _released(port: int) -> bool:
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        return _rebindable(probe, port)
    finally:
        probe.close()


# ----------------------------------------------------------------------
# the UDP reader (raw ``add_reader``, bounded drain)
# ----------------------------------------------------------------------

HOST = "127.0.0.1"


@pytest.fixture(
    params=LOOPS, ids=lambda use_uvloop: "uvloop" if use_uvloop else "asyncio"
)
def aio_network(request):
    network = AsyncSocketNetwork(use_uvloop=request.param)
    yield network
    network.close()


def _stall(network: AsyncSocketNetwork) -> threading.Event:
    """Block the loop thread until the returned event is set, so that what
    the test sends meanwhile queues in the kernel's receive buffers."""
    entered, release = threading.Event(), threading.Event()

    def block() -> None:
        entered.set()
        release.wait(5.0)

    network.loop.call_soon_threadsafe(block)
    assert entered.wait(2.0)
    return release


class Logged(Sink):
    """A sink that also appends ``(name, data)`` to a log shared by several
    nodes — the order handlers ran in, across sockets."""

    def __init__(self, name, endpoints, log):
        super().__init__(name, endpoints)
        self.log = log

    def on_datagram(self, engine, data, source, destination):
        super().on_datagram(engine, data, source, destination)
        self.log.append((self.name, data))


def _udp_sender() -> socket.socket:
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sender.bind((HOST, 0))
    return sender


def test_reader_delivers_a_queued_backlog_whole_and_in_order(aio_network):
    """More than three drains' worth queued before the loop looks: every
    datagram arrives, in order, and the counters show the batching."""
    count = 3 * _DRAIN_BOUND + 5
    sink = Sink("sink", [Endpoint(HOST, _free_port(), Transport.UDP)])
    aio_network.attach(sink)
    release = _stall(aio_network)
    with _udp_sender() as sender:
        for index in range(count):
            sender.sendto(b"%d" % index, (HOST, sink._endpoints[0].port))
        release.set()
        assert _wait(lambda: len(sink.received) == count)
    assert sink.received == [b"%d" % index for index in range(count)]
    assert aio_network.udp_datagrams == count
    # Four drains of at most the bound each; a trailing empty wake-up or
    # two is the loop's business.
    assert 4 <= aio_network.udp_wakeups < count // 2
    assert not aio_network.errors


def test_reader_yields_to_other_sockets_after_the_bound(aio_network):
    """A flooded socket drains at most the bound per wake-up: the one
    datagram on a quiet socket is handled before the flood's next one."""
    log: List[tuple] = []
    flooded = Logged("flooded", [Endpoint(HOST, _free_port(), Transport.UDP)], log)
    quiet = Logged("quiet", [Endpoint(HOST, _free_port(), Transport.UDP)], log)
    aio_network.attach(flooded)
    aio_network.attach(quiet)
    release = _stall(aio_network)
    with _udp_sender() as sender:
        for index in range(_DRAIN_BOUND + 1):
            sender.sendto(b"%d" % index, (HOST, flooded._endpoints[0].port))
        sender.sendto(b"me too", (HOST, quiet._endpoints[0].port))
        release.set()
        assert _wait(lambda: len(log) == _DRAIN_BOUND + 2)
    assert log.index(("quiet", b"me too")) < log.index(
        ("flooded", b"%d" % _DRAIN_BOUND)
    )
    assert [data for name, data in log if name == "flooded"] == [
        b"%d" % index for index in range(_DRAIN_BOUND + 1)
    ]


def test_reader_survives_a_raising_handler_inside_one_drain(aio_network):
    """Both datagrams are read by the same wake-up: the first handler's
    exception is recorded and the second datagram still delivered."""

    class Faulty(Sink):
        def on_datagram(self, engine, data, source, destination):
            super().on_datagram(engine, data, source, destination)
            if data == b"bad":
                raise RuntimeError("handler blew up")

    node = Faulty("faulty", [Endpoint(HOST, _free_port(), Transport.UDP)])
    aio_network.attach(node)
    release = _stall(aio_network)
    with _udp_sender() as sender:
        sender.sendto(b"bad", (HOST, node._endpoints[0].port))
        sender.sendto(b"good", (HOST, node._endpoints[0].port))
        release.set()
        assert _wait(lambda: node.received == [b"bad", b"good"])
    assert [str(error) for error in aio_network.errors] == ["handler blew up"]
    assert aio_network.udp_wakeups == 1


def test_handler_unbinding_its_own_socket_ends_the_drain_cleanly(aio_network):
    """The per-session ephemeral case: the handler releases the port the
    datagram arrived on while more datagrams sit behind it.  Delivery on
    that binding stops there; nothing reads the closed socket (no
    ``EBADF`` in ``errors``) and the node's other socket is unaffected."""

    class OneShot(Sink):
        def on_datagram(self, engine, data, source, destination):
            super().on_datagram(engine, data, source, destination)
            if destination.port != self._endpoints[0].port:
                engine.unbind_endpoint(self, destination)

    node = OneShot("session", [Endpoint(HOST, _free_port(), Transport.UDP)])
    aio_network.attach(node)
    bound = aio_network.bind_endpoint(node, Endpoint(HOST, 0, Transport.UDP))
    release = _stall(aio_network)
    with _udp_sender() as sender:
        for payload in (b"reply", b"duplicate", b"straggler"):
            sender.sendto(payload, (HOST, bound.port))
        sender.sendto(b"fixed", (HOST, node._endpoints[0].port))
        release.set()
        assert _wait(lambda: b"fixed" in node.received)
        time.sleep(0.05)
    assert sorted(node.received) == [b"fixed", b"reply"]
    assert not aio_network.errors
    assert _released(bound.port)


def test_off_loop_late_bind_receives_what_arrived_before_its_reader(aio_network):
    """A bind from a control thread registers its reader by a marshalled
    callback; a datagram that beats the callback waits in the kernel
    buffer and is delivered once the reader exists."""
    node = Sink("late", [Endpoint(HOST, _free_port(), Transport.UDP)])
    aio_network.attach(node)
    release = _stall(aio_network)
    bound = aio_network.bind_endpoint(node, Endpoint(HOST, 0, Transport.UDP))
    with _udp_sender() as sender:
        sender.sendto(b"early bird", (HOST, bound.port))
        release.set()
        assert _wait(lambda: node.received == [b"early bird"])
    assert not aio_network.errors


def test_largest_udp_datagram_arrives_whole(aio_network):
    """65 507 bytes is the largest IPv4 UDP payload; the 64 KiB read
    buffer must not truncate it."""
    payload = bytes(range(256)) * 255 + bytes(227)
    assert len(payload) == 65507
    sink = Sink("sink", [Endpoint(HOST, _free_port(), Transport.UDP)])
    aio_network.attach(sink)
    with _udp_sender() as sender:
        sender.sendto(payload, (HOST, sink._endpoints[0].port))
        assert _wait(lambda: sink.received)
    assert sink.received == [payload]


def test_emulated_multicast_copies_go_out_in_node_name_order(aio_network):
    """The fan-out order is the members' names, not the addresses of the
    node objects (which differ from process to process)."""
    group = Endpoint("239.9.9.9", 9999, Transport.UDP)
    log: List[tuple] = []
    members = []
    for name in ("delta", "alpha", "charlie", "bravo", "echo"):
        node = Logged(name, [Endpoint(HOST, _free_port(), Transport.UDP)], log)
        node._groups = [group]
        aio_network.attach(node)
        members.append(node)
    sent: List[int] = []
    plain_send = aio_network._send_udp

    def recording_send(data, source, destination):
        sent.append(destination.port)
        plain_send(data, source, destination)

    aio_network._send_udp = recording_send
    by_name = sorted(members, key=lambda node: node.name)
    aio_network.send(b"ping", Endpoint(HOST, 0, Transport.UDP), group)
    assert sent == [node._endpoints[0].port for node in by_name]
    # A member that leaves is dropped from the cached list.
    aio_network.detach(by_name[0])
    del sent[:]
    aio_network.send(b"ping", Endpoint(HOST, 0, Transport.UDP), group)
    assert sent == [node._endpoints[0].port for node in by_name[1:]]
    assert _wait(lambda: len(log) == 9)


def test_worker_queue_depth_is_bounded_by_the_drain_bound(aio_network):
    """A 1 000-datagram burst never queues more than bound x sockets.

    Each reader wake-up hands at most the drain bound per socket to the
    worker, and an unpaused worker runs every record as it arrives.  So
    the overload backlog stays in the kernel receive buffer (where
    ``RcvbufErrors`` counts what overflows) instead of moving into an
    unbounded in-process queue: the worker's own queue stays empty.
    """
    from types import SimpleNamespace

    from repro.runtime.worker import ShardWorker

    executed: List[bytes] = []

    class Feeder(Sink):
        """Two sockets posting every datagram to one worker."""

        max_depth = 0

        def on_datagram(self, engine, data, source, destination):
            worker.post(lambda: executed.append(data))
            self.max_depth = max(self.max_depth, worker.queue_depth)

    worker = ShardWorker(SimpleNamespace(name="w0", _recorder=None), aio_network)
    ports = [_free_port(), _free_port()]
    feeder = Feeder("feeder", [Endpoint(HOST, port, Transport.UDP) for port in ports])
    aio_network.attach(feeder)
    # Hold the loop so both sockets start with a backlog of several drains,
    # then keep the burst coming while it works that off.
    release = _stall(aio_network)
    with _udp_sender() as sender:
        for index in range(1000):
            if index == 200:
                release.set()
            sender.sendto(b"%d" % index, (HOST, ports[index % 2]))

    def quiescent() -> bool:
        before = (aio_network.udp_datagrams, len(executed))
        time.sleep(0.05)
        after = (aio_network.udp_datagrams, len(executed))
        return before == after and after[0] == after[1] and not worker.queue_depth

    assert _wait(quiescent, timeout=5.0)
    # Everything the kernel kept was read and executed, each socket's
    # datagrams in the order they were sent ...
    assert aio_network.udp_datagrams >= 200
    assert len(executed) == aio_network.udp_datagrams
    for parity in (0, 1):
        sent = [int(data) for data in executed if int(data) % 2 == parity]
        assert sent == sorted(sent)
    # ... and the in-process backlog stayed within the drain bound: an
    # unpaused worker queues nothing at all.
    assert feeder.max_depth == 0 < _DRAIN_BOUND
    assert not aio_network.errors and not worker.errors


# ----------------------------------------------------------------------
# the TCP state machines (raw accept / dial on add_reader / add_writer)
# ----------------------------------------------------------------------


class BigReply(Sink):
    """Answers every request with ``size`` bytes in one send."""

    def __init__(self, name, endpoints, size: int):
        super().__init__(name, endpoints)
        self.payload = bytes(range(256)) * (size // 256)

    def on_datagram(self, engine, data, source, destination):
        super().on_datagram(engine, data, source, destination)
        engine.send(self.payload, source=self._endpoints[0], destination=source)


class PingPong(Sink):
    """Dials ``server`` again on every reply until ``remaining`` runs out."""

    def __init__(self, name, endpoints, server: Endpoint, remaining: int):
        super().__init__(name, endpoints)
        self.server = server
        self.remaining = remaining
        self.done = threading.Event()

    def kick(self, engine) -> None:
        engine.send(b"GET / HTTP/1.1\r\n\r\n", source=self._endpoints[0], destination=self.server)

    def on_datagram(self, engine, data, source, destination):
        super().on_datagram(engine, data, source, destination)
        self.remaining -= 1
        if self.remaining:
            self.kick(engine)
        else:
            self.done.set()


def _reply_size() -> int:
    """4 MiB, or the kernel's largest TCP send buffer if that is larger: a
    reply this size can never sit whole in the server's send buffer."""
    try:
        with open("/proc/sys/net/ipv4/tcp_wmem") as limits:
            largest = int(limits.read().split()[2])
    except (OSError, ValueError, IndexError):
        largest = 0
    return max(4 << 20, largest)


def _slow_reader(port: int) -> socket.socket:
    """A client with a small receive window that sends one request and
    half-closes: a large reply cannot leave the server in one ``send``."""
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)
    client.settimeout(10.0)
    client.connect((HOST, port))
    client.sendall(b"GET /big HTTP/1.1\r\n\r\n")
    client.shutdown(socket.SHUT_WR)
    return client


def _read_to_eof(client: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = client.recv(1 << 20)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def test_tcp_request_split_over_short_gaps_arrives_as_one(aio_network):
    """Each gap is shorter than the idle timeout, all of them together
    longer: the idle window restarts on every chunk, so one request."""
    server = EchoTcp("server", [Endpoint(HOST, _free_port(), Transport.TCP)])
    aio_network.attach(server)
    with socket.create_connection((HOST, server._endpoints[0].port), timeout=5.0) as client:
        for part in (b"GET /a", b"b HTTP/1.1\r\n", b"\r\n"):
            client.sendall(part)
            time.sleep(_TCP_IDLE_TIMEOUT * 0.6)
        assert client.recv(65536) == b"pong:GET /ab HTTP/1.1\r\n\r\n"
    assert server.received == [b"GET /ab HTTP/1.1\r\n\r\n"]


def test_tcp_reply_larger_than_the_send_buffer_arrives_whole(aio_network):
    """A reply larger than the send buffer cannot leave in one ``send``: the
    rest goes out from a writer callback, every byte in order before EOF."""
    server = BigReply("big", [Endpoint(HOST, _free_port(), Transport.TCP)], _reply_size())
    aio_network.attach(server)
    writers: List[int] = []
    if not aio_network.uvloop_active:
        add_writer = aio_network.loop.add_writer

        def spy(fd, callback, *args):
            writers.append(fd)
            return add_writer(fd, callback, *args)

        aio_network.loop.add_writer = spy
    with _slow_reader(server._endpoints[0].port) as client:
        time.sleep(0.2)  # the server fills every buffer on the way
        assert _read_to_eof(client) == server.payload
    assert writers or aio_network.uvloop_active
    assert not aio_network.errors and aio_network.tcp_replies_dropped == 0


def test_tcp_client_reset_mid_reply_is_a_dropped_reply(aio_network):
    """A client that resets while a large reply is still going out costs
    that reply (counted, nothing raised) and nothing else: the listener
    serves the next connection in full."""
    server = BigReply("big", [Endpoint(HOST, _free_port(), Transport.TCP)], _reply_size())
    aio_network.attach(server)
    port = server._endpoints[0].port
    with _slow_reader(port) as client:
        assert client.recv(1024)  # the reply has started
        client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    assert _wait(lambda: aio_network.tcp_replies_dropped == 1)
    assert all(isinstance(error, NetworkError) for error in aio_network.errors)
    with _slow_reader(port) as client:
        assert _read_to_eof(client) == server.payload
    assert len(server.received) == 2 and aio_network.tcp_accepts == 2


def test_tcp_dial_to_a_closed_port_fails_on_loop_and_raises_off_loop(aio_network):
    client = Sink("client", [Endpoint(HOST, _free_port(), Transport.UDP)])
    aio_network.attach(client)
    source, closed = client._endpoints[0], Endpoint(HOST, _free_port(), Transport.TCP)
    aio_network.call_later(0.0, lambda: aio_network.send(b"ping", source, closed))
    assert _wait(lambda: aio_network.errors)
    time.sleep(0.05)
    assert [type(error) for error in aio_network.errors] == [NetworkError]
    with pytest.raises(NetworkError, match="refused"):
        aio_network.send(b"ping", source, closed)
    assert len(aio_network.errors) == 1  # raised to the sender instead
    assert aio_network.tcp_dials == 2 and not aio_network._tcp_live


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _loop_state(loop) -> tuple:
    """Registered descriptors and live timer handles of a stdlib loop."""
    return (
        set(loop._selector.get_map()),
        [handle for handle in loop._scheduled if not handle.cancelled()],
    )


def _loop_state_now(network) -> tuple:
    box: List[tuple] = []
    read = threading.Event()
    network.loop.call_soon_threadsafe(lambda: (box.append(_loop_state(network.loop)), read.set()))
    assert read.wait(2.0)
    return box[0]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_tcp_exchanges_and_close_leave_no_descriptor_or_registration(make_network):
    """500 sequential exchanges, then ``close()`` with one mid-flight: every
    socket is closed — by the engine, not by the garbage collector — and
    nothing stays registered or scheduled."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        _exchange_then_close(make_network)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _exchange_then_close(make_network) -> None:
    before = _open_fds()
    network = make_network(tcp_reply_timeout=30.0)
    if network.uvloop_active:
        pytest.skip("reads the stdlib loop's selector and timer heap")
    server = EchoTcp("server", [Endpoint(HOST, _free_port(), Transport.TCP)])
    client = PingPong(
        "client", [Endpoint(HOST, _free_port(), Transport.UDP)], server._endpoints[0], 500
    )
    mute = Sink("mute", [Endpoint(HOST, _free_port(), Transport.TCP)])
    for node in (server, client, mute):
        network.attach(node)
    attached, state = _open_fds(), _loop_state_now(network)
    network.call_later(0.0, lambda: client.kick(network))
    assert client.done.wait(30.0)
    assert _wait(lambda: _open_fds() == attached)
    assert _loop_state_now(network) == state
    assert network.tcp_dials == network.tcp_accepts == 500 and not network.errors

    # Mid-flight: the mute server never answers, so its connection and the
    # dial both wait on timers when the network closes.
    network.call_later(
        0.0, lambda: network.send(b"hang", client._endpoints[0], mute._endpoints[0])
    )
    assert _wait(lambda: mute.received)
    at_stop: List[tuple] = []
    stop = network.loop.stop

    def recording_stop():
        at_stop.append(_loop_state(network.loop))
        stop()

    network.loop.stop = recording_stop
    self_pipe = network.loop._ssock.fileno()  # the loop's own wake-up reader
    network.close()
    assert at_stop == [({self_pipe}, [])]
    assert _open_fds() == before
