"""A socket-backed network engine for live loopback demos.

This engine drives the same :class:`~repro.network.engine.NetworkNode`
abstraction as the simulation, but over real BSD sockets bound to the
loopback interface:

* **UDP unicast** uses real ``SOCK_DGRAM`` sockets — one per endpoint a
  node owns — with a background receiver thread per socket.
* **UDP multicast** is *emulated in-process*: joining ``239.x.x.x:p`` adds
  the node to a local registry and sends to that group fan out directly to
  the members' real UDP sockets.  True IP multicast is often unavailable in
  containers and CI runners, and the emulation preserves the delivery
  semantics the framework relies on.
* **TCP** endpoints get a listening socket; each accepted connection reads
  one request (until the peer half-closes or a short idle timeout expires),
  hands it to the owning node, and keeps the connection open as the node's
  **reply channel**: whatever the node later sends to the ephemeral peer
  endpoint is written back on the same connection, which is then closed.
  The channel survives the node's handler returning — a node that answers
  *after a delay* (a translated response scheduled behind a processing
  delay, or a sharded router handing the request to a worker thread) still
  reaches the waiting client, instead of the engine dialling the peer's
  kernel-ephemeral port and hitting ``ConnectionRefusedError``.  An
  unanswered connection is closed after ``tcp_reply_timeout`` seconds.

The engine exists to demonstrate that the framework's logic is independent
of the transport substrate; the evaluation harness uses the simulation for
determinism and speed, while :mod:`repro.runtime.live` deploys the sharded
runtime on this engine for real wall-clock benchmarks.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.errors import ConfigurationError, NetworkError
from .addressing import Endpoint, Transport
from .engine import NetworkEngine, NetworkNode

__all__ = [
    "SocketNetwork",
    "FaultyNetwork",
    "FaultInjectorMixin",
    "FaultPlan",
    "loopback_available",
]


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

_RECV_BUFFER = 65536
_TCP_IDLE_TIMEOUT = 0.2
#: UDP receiver threads poll at this interval so they notice their socket
#: was closed (a blocked ``recvfrom`` holds the fd alive forever otherwise).
_UDP_POLL_INTERVAL = 0.5

#: Seconds an accepted TCP connection stays open waiting for the owning
#: node's (possibly delayed) reply before the engine gives up and closes it.
DEFAULT_TCP_REPLY_TIMEOUT = 5.0


class _TcpReplyChannel:
    """An accepted TCP connection held open as a node's reply channel."""

    def __init__(self, connection: socket.socket) -> None:
        self.connection = connection
        #: Set once a reply has been written; the accept handler waits on
        #: this instead of closing the connection right after dispatch.
        self.replied = threading.Event()
        #: Serialises writes against the handler's close.
        self.lock = threading.Lock()
        self.closed = False

    def write(self, data: bytes) -> bool:
        """Write ``data`` back to the peer; ``False`` if already closed.

        The handler's timeout can close the channel between a sender
        looking it up and writing, so "already closed" is an expected
        race, reported by return value rather than an exception.
        """
        with self.lock:
            if self.closed:
                return False
            self.connection.sendall(data)
        self.replied.set()
        return True

    def close(self) -> None:
        with self.lock:
            if self.closed:
                return
            self.closed = True
            try:
                self.connection.close()
            except OSError:
                pass


class SocketNetwork(NetworkEngine):
    """Network engine backed by real loopback sockets."""

    #: Late binds go through the kernel: request port 0 and the OS assigns
    #: a free ephemeral port.  The automata engine (and the UPnP control
    #: point) feature-detect this to skip their deterministic port ranges
    #: and TIME_WAIT quarantine — the kernel manages reuse.
    kernel_ephemeral_ports = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        tcp_reply_timeout: float = DEFAULT_TCP_REPLY_TIMEOUT,
    ) -> None:
        self.host = host
        self.tcp_reply_timeout = tcp_reply_timeout
        self._nodes: List[NetworkNode] = []
        self._udp_sockets: Dict[Tuple[str, int], socket.socket] = {}
        self._tcp_servers: Dict[Tuple[str, int], socket.socket] = {}
        self._endpoint_owner: Dict[Tuple[str, int, str], NetworkNode] = {}
        self._groups: Dict[Tuple[str, int], Set[NetworkNode]] = {}
        self._threads: List[threading.Thread] = []
        #: UDP receiver thread per bound (host, port), so unbind_endpoint
        #: can drop the reference — per-session ephemeral binds would
        #: otherwise grow the thread list without bound on a long run.
        self._udp_threads: Dict[Tuple[str, int], threading.Thread] = {}
        self._timers: List[threading.Timer] = []
        #: Sockets bound on behalf of each attached node (``id(node)`` →
        #: registry kind + key), so :meth:`detach` can close exactly them.
        self._owned_sockets: Dict[int, List[Tuple[str, Tuple[str, int]]]] = {}
        #: Open TCP reply channels keyed by the peer's ephemeral endpoint.
        self._tcp_replies: Dict[Tuple[str, int], _TcpReplyChannel] = {}
        #: Replies that lost the race against the handler's reply timeout:
        #: the channel was closed between lookup and write, the client is
        #: gone, and the reply is dropped (counted, not raised).
        self.tcp_replies_dropped = 0
        #: Exceptions raised by ``call_later`` callbacks on timer threads
        #: (delayed sends included), which would otherwise vanish with the
        #: thread; inspect after a run, like ``WorkerLoop.errors``.
        self.errors: List[BaseException] = []
        self._lock = threading.Lock()
        #: The node whose handler is currently executing on *this* thread
        #: (receiver, acceptor handler, or timer).  ``call_later`` reads it
        #: to attribute the timer to that node, so :meth:`detach` can make
        #: the node's outstanding timers no-ops.
        self._dispatch_owner = threading.local()
        self._running = True

    # ------------------------------------------------------------------
    def now(self) -> float:
        return time.monotonic()

    def _current_owner(self) -> Optional[NetworkNode]:
        return getattr(self._dispatch_owner, "node", None)

    def _dispatch(
        self,
        node: NetworkNode,
        callback: Callable[[], None],
    ) -> None:
        """Run ``callback`` with ``node`` as the current dispatch owner.

        Every path that enters node code (datagram delivery, attach,
        timer callbacks re-entering on behalf of their owner) goes
        through here, so timers the node schedules — including chained
        reschedules like the eviction sweep — attribute to it.
        """
        previous = self._current_owner()
        self._dispatch_owner.node = node
        try:
            callback()
        finally:
            self._dispatch_owner.node = previous

    def _owner_detached(self, owner: Optional[NetworkNode]) -> bool:
        if owner is None:
            return False
        return all(existing is not owner for existing in self._nodes)

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        owner = self._current_owner()
        timer_box: List[threading.Timer] = []

        def run() -> None:
            # Remove-on-fire: a long-lived deployment with periodic timer
            # chains must not accumulate one dead Timer object per tick.
            with self._lock:
                if timer_box:
                    try:
                        self._timers.remove(timer_box[0])
                    except ValueError:
                        pass
            # A timer that races close() must not fire into closed
            # sockets; one scheduled by a since-detached node must not
            # deliver a stale callback (e.g. an eviction sweep) into a
            # retry deployment on the same network.
            if not self._running or self._owner_detached(owner):
                return
            try:
                if owner is not None:
                    self._dispatch(owner, callback)
                else:
                    callback()
            except Exception as exc:  # noqa: BLE001 - timer threads have no caller
                self.errors.append(exc)

        timer = threading.Timer(max(0.0, delay), run)
        timer_box.append(timer)
        timer.daemon = True
        with self._lock:
            self._timers.append(timer)
        timer.start()

    # ------------------------------------------------------------------
    def attach(self, node: NetworkNode) -> None:
        if node in self._nodes:
            return
        self._nodes.append(node)
        for endpoint in node.unicast_endpoints():
            self._bind(node, endpoint)
        for group in node.multicast_groups():
            self._groups.setdefault((group.host, group.port), set()).add(node)
        self._dispatch(node, lambda: node.on_attached(self))

    def detach(self, node: NetworkNode) -> None:
        """Remove ``node`` and close the sockets bound on its behalf.

        Closing unblocks the node's receiver/acceptor threads (their
        blocking calls raise and the threads exit) and frees the ports, so
        the same endpoints can be re-bound by a later attach — a failed
        deployment can unwind and retry on the same network.  A node that
        was never attached (or only partially attached before its
        ``attach`` raised mid-bind) detaches as a no-op / partial cleanup.
        """
        if node not in self._nodes:
            return
        self._nodes.remove(node)
        self._endpoint_owner = {
            key: owner for key, owner in self._endpoint_owner.items() if owner is not node
        }
        for members in self._groups.values():
            members.discard(node)
        for kind, key in self._owned_sockets.pop(id(node), []):
            registry = self._udp_sockets if kind == "udp" else self._tcp_servers
            sock = registry.pop(key, None)
            if sock is not None:
                self._close_socket(sock, wake=kind == "tcp")
            if kind == "udp":
                self._udp_threads.pop(key, None)

    def bind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> Endpoint:
        """Bind one extra UDP endpoint to ``node`` after attach.

        Port ``0`` asks the kernel for a free ephemeral port; the
        actually-bound :class:`Endpoint` is returned either way, and a
        receiver thread delivers its datagrams to ``node`` like any
        attached endpoint.  This is what gives live engines per-session
        ephemeral source ports (exact reply attribution for token-less
        legs, matching the simulation).  TCP is rejected: an accepted
        connection already *is* an exact reply channel, so late TCP binds
        have nothing to attribute.
        """
        if endpoint.transport == Transport.TCP:
            raise NetworkError(
                "late TCP binds are not supported; TCP replies return on "
                "the accepted connection"
            )
        with self._lock:
            key = (endpoint.host, endpoint.port, endpoint.transport)
            if endpoint.port != 0:
                owner = self._endpoint_owner.get(key)
                if owner is not None and owner is not node:
                    raise NetworkError(
                        f"endpoint {endpoint} already bound by node '{owner.name}'"
                    )
        actual_port = self._bind_udp(node, endpoint)
        bound = Endpoint(endpoint.host, actual_port, Transport.UDP)
        with self._lock:
            self._endpoint_owner[(bound.host, bound.port, bound.transport)] = node
        return bound

    def unbind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> None:
        """Release an endpoint bound with :meth:`bind_endpoint`.

        Closes the socket (its receiver thread notices on the next poll
        and exits) and forgets the registrations, so the port returns to
        the kernel.
        """
        key = (endpoint.host, endpoint.port)
        with self._lock:
            if self._endpoint_owner.get(key + (endpoint.transport,)) is not node:
                return
            del self._endpoint_owner[key + (endpoint.transport,)]
            sock = self._udp_sockets.pop(key, None)
            owned = self._owned_sockets.get(id(node))
            if owned is not None and ("udp", key) in owned:
                owned.remove(("udp", key))
            # Drop the receiver thread's reference too (it exits on its
            # next poll once the socket closes); per-session binds must
            # not accumulate dead Thread objects over a long run.
            thread = self._udp_threads.pop(key, None)
            if thread is not None:
                try:
                    self._threads.remove(thread)
                except ValueError:
                    pass
        if sock is not None:
            self._close_socket(sock, wake=False)

    @staticmethod
    def _close_socket(sock: socket.socket, wake: bool) -> None:
        if wake:
            # A thread blocked in accept() holds the fd alive past close(),
            # keeping the port bound; shutdown() wakes it first.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        try:
            sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Stop receiver threads and close every socket."""
        self._running = False
        with self._lock:
            timers, self._timers = self._timers, []
        for timer in timers:
            timer.cancel()
        for sock in self._udp_sockets.values():
            self._close_socket(sock, wake=False)
        for sock in self._tcp_servers.values():
            self._close_socket(sock, wake=True)
        for channel in list(self._tcp_replies.values()):
            channel.close()
        self._udp_sockets.clear()
        self._tcp_servers.clear()
        self._tcp_replies.clear()
        self._owned_sockets.clear()
        self._udp_threads.clear()

    def __enter__(self) -> "SocketNetwork":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _bind(self, node: NetworkNode, endpoint: Endpoint) -> None:
        key = (endpoint.host, endpoint.port, endpoint.transport)
        if key in self._endpoint_owner and self._endpoint_owner[key] is not node:
            raise NetworkError(f"endpoint {endpoint} already bound")
        self._endpoint_owner[key] = node
        if endpoint.transport == Transport.TCP:
            self._bind_tcp(node, endpoint)
        else:
            self._bind_udp(node, endpoint)

    def _bind_udp(self, node: NetworkNode, endpoint: Endpoint) -> int:
        """Bind a UDP socket, start its receiver, return the actual port
        (which differs from the requested one only for port 0)."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        if endpoint.port != 0:
            # Only for declared ports (quick rebind after a restart).  With
            # the option set, a port-0 bind may be handed a port another
            # ``SO_REUSEADDR`` socket of this process already holds — a
            # session would shadow a service or another session's socket.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((endpoint.host, endpoint.port))
        actual_port = sock.getsockname()[1]
        self._udp_sockets[(endpoint.host, actual_port)] = sock
        self._owned_sockets.setdefault(id(node), []).append(
            ("udp", (endpoint.host, actual_port))
        )

        sock.settimeout(_UDP_POLL_INTERVAL)

        def receiver() -> None:
            while self._running:
                try:
                    data, peer = sock.recvfrom(_RECV_BUFFER)
                except socket.timeout:
                    continue
                except OSError:
                    return
                source = Endpoint(peer[0], peer[1], Transport.UDP)
                destination = Endpoint(endpoint.host, actual_port, Transport.UDP)
                try:
                    self._dispatch(
                        node, lambda: node.on_datagram(self, data, source, destination)
                    )
                except Exception as exc:  # noqa: BLE001 - keep the port alive
                    # A handler exception must not kill the receiver: the
                    # port would stay bound but permanently deaf.  Record
                    # it (like timer-thread errors) and keep receiving.
                    self.errors.append(exc)

        thread = threading.Thread(target=receiver, daemon=True, name=f"udp-{actual_port}")
        thread.start()
        self._threads.append(thread)
        self._udp_threads[(endpoint.host, actual_port)] = thread
        return actual_port

    def _bind_tcp(self, node: NetworkNode, endpoint: Endpoint) -> None:
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((endpoint.host, endpoint.port))
        server.listen(8)
        actual_port = server.getsockname()[1]
        self._tcp_servers[(endpoint.host, actual_port)] = server
        self._owned_sockets.setdefault(id(node), []).append(
            ("tcp", (endpoint.host, actual_port))
        )

        def acceptor() -> None:
            while self._running:
                try:
                    connection, peer = server.accept()
                except OSError:
                    return
                handler = threading.Thread(
                    target=self._handle_tcp_connection,
                    args=(node, connection, peer, endpoint.host, actual_port),
                    daemon=True,
                )
                handler.start()
                self._threads.append(handler)

        thread = threading.Thread(target=acceptor, daemon=True, name=f"tcp-{actual_port}")
        thread.start()
        self._threads.append(thread)

    def _handle_tcp_connection(
        self,
        node: NetworkNode,
        connection: socket.socket,
        peer: Tuple[str, int],
        host: str,
        port: int,
    ) -> None:
        connection.settimeout(_TCP_IDLE_TIMEOUT)
        chunks: List[bytes] = []
        while True:
            try:
                chunk = connection.recv(_RECV_BUFFER)
            except socket.timeout:
                break
            except OSError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        request = b"".join(chunks)
        source = Endpoint(peer[0], peer[1], Transport.TCP)
        destination = Endpoint(host, port, Transport.TCP)
        channel = _TcpReplyChannel(connection)
        with self._lock:
            self._tcp_replies[(peer[0], peer[1])] = channel
        try:
            try:
                self._dispatch(
                    node, lambda: node.on_datagram(self, request, source, destination)
                )
            except Exception as exc:  # noqa: BLE001 - record, then close below
                self.errors.append(exc)
            else:
                # The node's reply may be scheduled rather than written
                # inline (a processing delay, or a shard router handing the
                # request to a worker thread): keep the reply channel open
                # until the reply has actually been written, bounded by the
                # reply timeout.  A handler that raised sends no reply, so
                # there is nothing to wait for.
                channel.replied.wait(self.tcp_reply_timeout)
        finally:
            with self._lock:
                self._tcp_replies.pop((peer[0], peer[1]), None)
            channel.close()

    # ------------------------------------------------------------------
    def send(
        self,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
        delay: float = 0.0,
    ) -> None:
        if delay > 0:
            self.call_later(delay, lambda: self.send(data, source, destination))
            return
        if destination.is_multicast:
            members = self._groups.get((destination.host, destination.port), set())
            sender = self._endpoint_owner.get(
                (source.host, source.port, source.transport)
            )
            for member in members:
                if member is sender:
                    continue
                for endpoint in member.unicast_endpoints():
                    if endpoint.transport == Transport.UDP:
                        self._send_udp(data, source, endpoint)
                        break
            return
        if destination.transport == Transport.TCP:
            self._send_tcp(data, source, destination)
        else:
            self._send_udp(data, source, destination)

    def _send_udp(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        sock = self._udp_sockets.get((source.host, source.port))
        if sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sock.sendto(data, (destination.host, destination.port))
            finally:
                sock.close()
            return
        sock.sendto(data, (destination.host, destination.port))

    def _send_tcp(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        # If the destination is an open reply channel (the peer of an accepted
        # connection), answer on that connection.
        with self._lock:
            reply_channel = self._tcp_replies.get((destination.host, destination.port))
        if reply_channel is not None:
            try:
                wrote = reply_channel.write(data)
            except OSError as exc:
                raise NetworkError(f"TCP reply to {destination} failed: {exc}") from exc
            if not wrote:
                # The handler's reply timeout closed the channel between the
                # lookup above and the write: the client is gone, so the
                # reply is dropped — dialling the peer's kernel-ephemeral
                # port would only manufacture a ConnectionRefusedError.
                with self._lock:
                    self.tcp_replies_dropped += 1
            return
        # Otherwise open a client connection, send, and feed any response back
        # to the owning node of the source endpoint.
        owner = self._endpoint_owner.get((source.host, source.port, source.transport)) or (
            self._endpoint_owner.get((source.host, source.port, Transport.UDP))
        )
        # Read deadline slightly above the server side's reply timeout, so an
        # unanswered request ends in the server's clean EOF (empty response)
        # rather than racing it with a client-side timeout error.
        try:
            with socket.create_connection(
                (destination.host, destination.port),
                timeout=self.tcp_reply_timeout + 2.0,
            ) as connection:
                connection.sendall(data)
                connection.shutdown(socket.SHUT_WR)
                chunks: List[bytes] = []
                while True:
                    chunk = connection.recv(_RECV_BUFFER)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except OSError as exc:
            raise NetworkError(f"TCP send to {destination} failed: {exc}") from exc
        response = b"".join(chunks)
        if response and owner is not None:
            self._dispatch(
                owner, lambda: owner.on_datagram(self, response, destination, source)
            )


class FaultPlan:
    """Deterministic per-window fault decisions for :class:`FaultyNetwork`.

    One plan governs one loss window: it is seeded from ``(seed, window)``
    so the decision sequence depends only on the seed, the window index
    and the order of sends *inside* the window — never on how many
    datagrams flowed before the window opened (live runs have
    nondeterministic background traffic between windows).  Same seed and
    window → byte-for-byte the same verdict trace, which is what the
    determinism tests pin.
    """

    #: Verdicts a draw can return, in probability order.
    VERDICTS = ("drop", "dup", "reorder", "pass")

    def __init__(
        self,
        seed: int,
        window: int = 0,
        loss: float = 0.35,
        duplicate: float = 0.15,
        reorder: float = 0.15,
    ) -> None:
        for name, rate in (("loss", loss), ("duplicate", duplicate), ("reorder", reorder)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(f"{name} rate must be in [0, 1], got {rate!r}")
        if loss + duplicate + reorder > 1.0:
            raise ConfigurationError(
                "loss + duplicate + reorder rates must not exceed 1.0, got "
                f"{loss + duplicate + reorder}"
            )
        self.seed = seed
        self.window = window
        self.loss = loss
        self.duplicate = duplicate
        self.reorder = reorder
        self._rng = random.Random(f"fault-plan:{seed}:{window}")
        #: The verdicts drawn so far, in order (the deterministic trace).
        self.decisions: List[str] = []

    def draw(self) -> str:
        """The verdict for the next datagram: drop | dup | reorder | pass."""
        roll = self._rng.random()
        if roll < self.loss:
            verdict = "drop"
        elif roll < self.loss + self.duplicate:
            verdict = "dup"
        elif roll < self.loss + self.duplicate + self.reorder:
            verdict = "reorder"
        else:
            verdict = "pass"
        self.decisions.append(verdict)
        return verdict


class FaultInjectorMixin:
    """Seeded UDP fault injection decorating a network's ``_send_udp``.

    Mix in *before* a concrete engine class (``class FaultyNetwork(
    FaultInjectorMixin, SocketNetwork)``): while a **loss window** is
    open, every outgoing datagram draws a verdict from the window's
    :class:`FaultPlan` — dropped, duplicated, reordered (held back one
    slot and sent after the *next* datagram) or passed through.  Outside
    a window the engine is byte-for-byte the plain engine: no verdict is
    drawn, nothing is counted, and closing a window flushes any held
    datagram, so faults can never leak past the window bounds (the
    bounds tests pin this).

    TCP and the receive path are untouched — the injector models a lossy
    UDP segment, which is the fault the paper's discovery protocols
    actually face.  Thread-safe: verdicts and the one-slot holdback are
    serialised under a dedicated lock (receiver threads, worker loops and
    timer threads all send concurrently; on the asyncio engine the loop
    thread sends while control threads open and close windows).
    """

    def _init_fault_state(
        self,
        seed: int,
        loss: float,
        duplicate: float,
        reorder: float,
    ) -> None:
        self.seed = seed
        self.loss = loss
        self.duplicate = duplicate
        self.reorder = reorder
        #: Windows opened so far; each gets its own freshly-seeded plan.
        self.windows_opened = 0
        #: Fault counters across all windows.
        self.udp_dropped = 0
        self.udp_duplicated = 0
        self.udp_reordered = 0
        #: ``(window, verdict)`` for every in-window datagram, in order.
        self.decisions: List[Tuple[int, str]] = []
        self._plan: Optional[FaultPlan] = None
        self._held: Optional[Tuple[bytes, Endpoint, Endpoint]] = None
        self._fault_lock = threading.Lock()

    @property
    def window_open(self) -> bool:
        return self._plan is not None

    def open_loss_window(self) -> FaultPlan:
        """Start injecting faults; returns the window's plan.

        Seeded from ``(seed, window_index)``, so traces are reproducible
        per window regardless of traffic between windows.  Opening while
        a window is already open is an error — nested windows would make
        the per-window seeding ambiguous.
        """
        with self._fault_lock:
            if self._plan is not None:
                raise ConfigurationError("a loss window is already open")
            self._plan = FaultPlan(
                self.seed,
                self.windows_opened,
                loss=self.loss,
                duplicate=self.duplicate,
                reorder=self.reorder,
            )
            self.windows_opened += 1
            return self._plan

    def close_loss_window(self) -> None:
        """Stop injecting faults and flush any held (reordered) datagram.

        Closing an already-closed window is a no-op, so harness cleanup
        paths can close unconditionally.
        """
        with self._fault_lock:
            self._plan = None
            held, self._held = self._held, None
        if held is not None:
            data, source, destination = held
            super()._send_udp(data, source, destination)

    def _send_udp(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        with self._fault_lock:
            plan = self._plan
            if plan is None:
                # Outside a window: pure pass-through (no draw, no count).
                # Send under the lock so a concurrent close's flush cannot
                # overtake a datagram already committed as "pass".
                super()._send_udp(data, source, destination)
                return
            verdict = plan.draw()
            self.decisions.append((plan.window, verdict))
            if verdict == "drop":
                self.udp_dropped += 1
                return
            if verdict == "reorder" and self._held is None:
                # Hold this datagram one slot: the *next* send goes out
                # first, then the held one follows (a one-slot swap).
                self._held = (data, source, destination)
                self.udp_reordered += 1
                return
            held, self._held = self._held, None
            super()._send_udp(data, source, destination)
            if verdict == "dup":
                self.udp_duplicated += 1
                super()._send_udp(data, source, destination)
            if held is not None:
                held_data, held_source, held_destination = held
                super()._send_udp(held_data, held_source, held_destination)


class FaultyNetwork(FaultInjectorMixin, SocketNetwork):
    """A :class:`SocketNetwork` with seeded UDP fault injection.

    See :class:`FaultInjectorMixin` for the injection semantics;
    :class:`~repro.network.aio.AsyncFaultyNetwork` is the same mixin over
    the asyncio engine.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        tcp_reply_timeout: float = DEFAULT_TCP_REPLY_TIMEOUT,
        seed: int = 0,
        loss: float = 0.35,
        duplicate: float = 0.15,
        reorder: float = 0.15,
    ) -> None:
        super().__init__(host=host, tcp_reply_timeout=tcp_reply_timeout)
        self._init_fault_state(seed, loss, duplicate, reorder)
