"""The socket network engine: real loopback sockets on one asyncio loop.

This engine drives the same :class:`~repro.network.engine.NetworkNode`
abstraction as the simulation — attach/detach, ``send``, ``call_later``,
late ``bind_endpoint``/``unbind_endpoint`` — over real BSD sockets, with
every socket, timer and handler on **one event loop**:

* **UDP** endpoints are raw non-blocking sockets registered with
  ``loop.add_reader``; the engine's own reader drains up to
  :data:`_DRAIN_BOUND` datagrams per wake-up with ``recvfrom(64 KiB)`` and
  dispatches each on the loop thread.  (asyncio's datagram transport reads
  one per iteration into 256 KiB, past malloc's mmap threshold: 17.1 µs a
  loopback send + receive against 3.1 µs.)  The bound keeps a flooded
  socket from starving the rest and the backlog in the kernel buffer, where
  it is counted (docs/architecture.md, "The UDP reader").
* **UDP multicast** is *emulated in-process* (true IP multicast is often
  unavailable in containers and CI): a send to a joined ``239.x.x.x:p``
  group fans out to the members' real UDP sockets.
* **TCP** is two state machines on raw non-blocking sockets, driven by
  ``add_reader`` / ``add_writer`` and one timer handle each — no streams,
  no tasks (≈ 85–145 µs per exchange on a bare loop against 380–590 µs
  through asyncio's streams; docs/architecture.md, "The TCP path").  A
  listener's reader accepts up to :data:`_DRAIN_BOUND` connections per
  wake-up; each :class:`_TcpConnection` is the node's **reply channel**,
  so a reply sent *after a delay* (behind a processing delay or a worker
  queue) still goes back on the connection instead of being dialled to the
  peer's kernel-ephemeral port.  A send to any other TCP endpoint is a
  :class:`_TcpDial`.
* **Timers** are ``loop.call_later`` handles: heap entries pruned on fire,
  so a periodic eviction sweep costs a recycled handle per tick.  A timer
  finds its handle by a sequence number, never holds it: the cycle would
  pin every hand-off's request until a collection.

The public surface is a synchronous, thread-safe facade over a loop on a
daemon thread: calls from other threads (control plane, test drivers,
fault-window flushes) are marshalled onto it, calls on it (a handler
sending, a per-session bind) run inline.  Binds are synchronous on raw
sockets from any thread; the reader is registered in the same call on the
loop thread, else by one marshalled callback.  Off-loop drivers wait with
``run_until`` / ``run_for``, as they advance the simulation's clock.
``uvloop`` is used when importable (``use_uvloop=False`` opts out,
``True`` requires it).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import errno
import os
import socket
import threading
import time
from functools import partial
from itertools import count
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.errors import ConfigurationError, NetworkError
from .addressing import Endpoint, Transport
from .engine import NetworkEngine, NetworkNode
from .faults import FaultPlan

__all__ = ["AsyncSocketNetwork", "AsyncFaultyNetwork", "uvloop_available"]

_RECV_BUFFER = 65536
_TCP_IDLE_TIMEOUT = 0.2

#: Seconds an accepted TCP connection waits for the node's (possibly
#: delayed) reply before the engine closes it.
DEFAULT_TCP_REPLY_TIMEOUT = 5.0

#: Seconds a cross-thread marshal may take (only a stopped loop gets close).
_MARSHAL_TIMEOUT = 10.0

#: Datagrams (or connections) one wake-up drains from one socket.
_DRAIN_BOUND = 32

#: Seconds between two looks at an off-loop :meth:`AsyncSocketNetwork.run_until`
#: predicate.
_POLL_INTERVAL = 0.002


def uvloop_available() -> bool:
    """Whether the optional uvloop accelerator is importable."""
    try:
        import uvloop  # noqa: F401
    except Exception:  # noqa: BLE001 - any import failure means "no"
        return False
    return True


def _new_event_loop(use_uvloop: Optional[bool]) -> Tuple[asyncio.AbstractEventLoop, bool]:
    if use_uvloop is None or use_uvloop:
        try:
            import uvloop

            return uvloop.new_event_loop(), True
        except Exception as exc:  # noqa: BLE001 - fall back unless required
            if use_uvloop:
                raise ConfigurationError(f"uvloop was requested but is not usable: {exc}") from exc
    return asyncio.new_event_loop(), False


class _UdpBinding:
    """One bound UDP socket (bound synchronously, so its port is known at
    once from any thread), read by the loop's own reader callback."""

    __slots__ = ("sock", "fd", "node", "destination", "closed")

    def __init__(self, sock: socket.socket, node: NetworkNode, host: str, port: int) -> None:
        self.sock = sock
        #: Kept beside the socket: ``fileno()`` is -1 once it is closed.
        self.fd = sock.fileno()
        self.node = node
        #: What every datagram read here was addressed to, built once.
        self.destination = Endpoint(host, port, Transport.UDP)
        self.closed = False

    def close(self, loop: asyncio.AbstractEventLoop) -> None:
        """Unregister the reader, then close the socket (loop-thread only,
        idempotent): the port is free when this returns, so a
        detach-then-rebind never races the kernel."""
        if self.closed:
            return
        self.closed = True
        loop.remove_reader(self.fd)
        try:
            self.sock.close()
        except OSError:
            pass


class _TcpStream:
    """A non-blocking TCP socket, its reader/writer registrations and one
    timer handle (loop-thread only)."""

    __slots__ = ("network", "loop", "sock", "fd", "chunks", "pending", "timer",
                 "reading", "writing", "closed")

    def __init__(self, network: "AsyncSocketNetwork", sock: Optional[socket.socket]) -> None:
        self.network, self.loop, self.sock = network, network._loop, sock
        self.fd = -1 if sock is None else sock.fileno()
        self.chunks: List[bytes] = []
        self.pending: Optional[memoryview] = None
        self.timer: Optional[asyncio.TimerHandle] = None
        self.reading = self.writing = self.closed = False
        network._tcp_live.add(self)

    def _arm(self, delay: Optional[float]) -> None:
        """Restart the timer for ``delay`` seconds (``None``: stop it)."""
        if self.timer is not None:
            self.timer.cancel()
        self.timer = None if delay is None else self.loop.call_later(delay, self._on_timer)

    def _watch(self, readable: bool, writable: bool) -> None:
        """Leave exactly the wanted callbacks registered."""
        if readable != self.reading:
            self.reading = readable
            if readable:
                self.loop.add_reader(self.fd, self._on_readable)
            else:
                self.loop.remove_reader(self.fd)
        if writable != self.writing:
            self.writing = writable
            if writable:
                self.loop.add_writer(self.fd, self._on_writable)
            else:
                self.loop.remove_writer(self.fd)

    def _read(self) -> Tuple[bool, bool]:
        """Read up to the drain bound: ``(anything arrived, EOF)``."""
        arrived = False
        for _ in range(_DRAIN_BOUND):
            try:
                chunk = self.sock.recv(_RECV_BUFFER)
            except (BlockingIOError, InterruptedError):
                break
            if not chunk:
                return arrived, True
            self.chunks.append(chunk)
            arrived = True
        return arrived, False

    def _flush(self) -> bool:
        """Send what is pending; ``True`` once all of it is out."""
        try:
            self.pending = self.pending[self.sock.send(self.pending) :]
        except (BlockingIOError, InterruptedError):  # connecting, or buffer full
            return False
        return not self.pending

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._arm(None)
            self._watch(False, False)
            self.network._tcp_live.discard(self)
            if self.sock is not None:
                self.sock.close()


class _TcpConnection(_TcpStream):
    """An accepted connection: read a request, dispatch it, reply, repeat.

    A request ends at the peer's half-close or after :data:`_TCP_IDLE_TIMEOUT`
    of quiet (empty if the connection was quiet from the start).  Then the
    connection is the reply channel in ``_tcp_replies`` for up to
    ``tcp_reply_timeout`` seconds, else it closes.  After the reply (a
    dropped one if the client is gone) it closes if the peer half-closed,
    else waits up to the reply timeout for the next sequential request.
    """

    __slots__ = ("node", "destination", "peer", "source", "window", "first", "eof", "awaiting")

    def __init__(self, network: "AsyncSocketNetwork", sock: socket.socket,
                 node: Optional[NetworkNode], destination: Optional[Endpoint],
                 peer: Tuple[str, int]) -> None:
        super().__init__(network, sock)
        self.node, self.destination, self.peer = node, destination, (peer[0], peer[1])
        self.source = Endpoint(peer[0], peer[1], Transport.TCP)
        self.window, self.first = _TCP_IDLE_TIMEOUT, True
        self.eof = self.awaiting = False

    def _on_timer(self) -> None:
        self.timer = None
        if self.awaiting:
            self.close()  # unanswered: the client reads EOF
        else:
            self._end_request()  # the peer went quiet

    def _on_readable(self) -> None:
        try:
            arrived, self.eof = self._read()
        except OSError:  # reset: what arrived is the request, if anything
            if not self.chunks:
                self.close()
                return
            arrived = self.eof = True
        if self.eof:
            self._end_request()
            return
        if arrived or self.timer is None:
            self._arm(_TCP_IDLE_TIMEOUT if arrived else self.window)
        self._watch(True, False)

    def _end_request(self) -> None:
        """Dispatch what was read, with this connection as the reply channel."""
        self._arm(None)
        self._watch(False, False)
        if self.chunks:
            request = b"".join(self.chunks)
            self.chunks = []
        elif self.first:
            request = b""
        else:
            self.close()  # no next request
            return
        self.first = False
        network, node = self.network, self.node
        self.awaiting = True
        network._tcp_replies[self.peer] = self
        try:
            network._dispatch(node, lambda: node.on_datagram(
                network, request, self.source, self.destination))
        except Exception as exc:  # noqa: BLE001 - record, close unanswered
            network.errors.append(exc)
            if self.awaiting:
                self.close()
            return
        if self.awaiting:
            self._arm(network.tcp_reply_timeout)

    def reply(self, data: bytes) -> bool:
        """Write ``data`` as the reply; ``False`` if no request awaits one."""
        if not self.awaiting:
            return False
        self._retire()
        self._arm(None)
        self.pending = memoryview(data)
        self._on_writable()
        return True

    def _on_writable(self) -> None:
        try:
            done = self._flush()
        except OSError:  # the client went away mid-reply
            self.network.tcp_replies_dropped += 1
            self.close()
            return
        if not done:
            self._watch(False, True)
        elif self.eof:
            self.close()
        else:  # the next request: its first bytes may take a reply timeout
            self.window = self.network.tcp_reply_timeout
            self._on_readable()

    def _retire(self) -> None:
        self.awaiting = False
        if self.network._tcp_replies.get(self.peer) is self:
            del self.network._tcp_replies[self.peer]

    def close(self) -> None:
        if self.awaiting:
            self._retire()
        super().close()


class _TcpDial(_TcpStream):
    """An exchange this network starts: connect, send, half-close, read to EOF.

    The request goes out right after ``connect_ex`` (on loopback the
    handshake is done by then; a writer callback covers the rest; a failed
    connect is the send's error).  The response, read under one deadline
    above the server's reply timeout, goes to ``owner``; the outcome
    resolves ``future`` for an off-loop sender, else a failure joins ``errors``.
    """

    __slots__ = ("owner", "source", "destination", "future")

    def __init__(self, network: "AsyncSocketNetwork", data: bytes, owner: Optional[NetworkNode],
                 source: Endpoint, destination: Endpoint, future: Optional[asyncio.Future]) -> None:
        super().__init__(network, None)
        self.owner, self.source, self.destination = owner, source, destination
        self.pending = memoryview(data)
        self.future = future
        if not network._running:
            self.close()
            return
        network.tcp_dials += 1
        self._arm(network.tcp_reply_timeout + 2.0)
        try:
            self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self.fd = self.sock.fileno()
            self.sock.setblocking(False)
            code = self.sock.connect_ex((destination.host, destination.port))
            if code not in (0, errno.EINPROGRESS, errno.EAGAIN, errno.EINTR):
                raise OSError(code, os.strerror(code))
        except OSError as exc:
            self._fail(exc)
            return
        self._on_writable()

    def _on_timer(self) -> None:
        self.timer = None
        self._fail(TimeoutError("no response before the deadline"))

    def _on_writable(self) -> None:
        try:
            done = self._flush()
            if done:
                self.sock.shutdown(socket.SHUT_WR)
        except OSError as exc:  # refused, reset, unreachable
            self._fail(exc)
            return
        self._watch(done, not done)

    def _on_readable(self) -> None:
        try:
            if not self._read()[1]:
                return
        except OSError as exc:
            self._fail(exc)
            return
        response, owner, network, error = b"".join(self.chunks), self.owner, self.network, None
        if response and owner is not None:
            try:
                network._dispatch(owner, lambda: owner.on_datagram(
                    network, response, self.destination, self.source))
            except Exception as exc:  # noqa: BLE001 - the owner's handler raised
                error = exc
        self._end(error)

    def _fail(self, exc: BaseException) -> None:
        error = NetworkError(f"TCP send to {self.destination} failed: {exc}")
        error.__cause__ = exc
        self._end(error)

    def _end(self, error: Optional[BaseException]) -> None:
        """Close, then hand the outcome to the waiting sender or ``errors``."""
        future, self.future = self.future, None
        self.close()
        if future is not None and not future.done():
            if error is None:
                future.set_result(None)
            else:
                future.set_exception(error)
        elif error is not None:
            self.network.errors.append(error)

    def close(self) -> None:
        super().close()
        if self.future is not None:  # closed under a waiting sender
            self._end(NetworkError(f"TCP send to {self.destination} aborted: network closed"))


class AsyncSocketNetwork(NetworkEngine):
    """Network engine backed by real loopback sockets on one event loop."""

    #: Late binds request port 0 and the kernel manages reuse, so the
    #: automata engine skips its deterministic port ranges and quarantine.
    kernel_ephemeral_ports = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        tcp_reply_timeout: float = DEFAULT_TCP_REPLY_TIMEOUT,
        use_uvloop: Optional[bool] = None,
    ) -> None:
        self.host = host
        self.tcp_reply_timeout = tcp_reply_timeout
        self._nodes: List[NetworkNode] = []
        self._udp_binds: Dict[Tuple[str, int], _UdpBinding] = {}
        self._tcp_binds: Dict[Tuple[str, int], _UdpBinding] = {}
        self._endpoint_owner: Dict[Tuple[str, int, str], NetworkNode] = {}
        self._groups: Dict[Tuple[str, int], Set[NetworkNode]] = {}
        #: Per group, the ``(member, first UDP endpoint)`` pairs a multicast
        #: goes to, by node name; rebuilt (never mutated) on attach/detach.
        self._group_targets: Dict[Tuple[str, int], List[Tuple[NetworkNode, Endpoint]]] = {}
        self._owned_sockets: Dict[int, List[Tuple[str, Tuple[str, int]]]] = {}
        #: Accepted connections awaiting a reply, by peer ``(host, port)``.
        self._tcp_replies: Dict[Tuple[str, int], _TcpConnection] = {}
        #: Open accepted connections and dials — closed on close.
        self._tcp_live: Set[_TcpStream] = set()
        #: Live timer handles by sequence number; pruned on fire.
        self._timers: Dict[int, asyncio.Handle] = {}
        self._timer_keys = count()
        self.tcp_replies_dropped = 0
        #: Connections accepted and exchanges dialled.
        self.tcp_accepts = 0
        self.tcp_dials = 0
        #: UDP reader wake-ups and the datagrams they drained.
        self.udp_wakeups = 0
        self.udp_datagrams = 0
        #: Exceptions on the loop with no caller to raise to (handlers,
        #: timers, fire-and-forget sends), like ``ShardWorker.errors``.
        self.errors: List[BaseException] = []
        self._lock = threading.Lock()
        self._dispatch_owner = threading.local()
        self._running = True
        self._closed = False
        self._loop, self.uvloop_active = _new_event_loop(use_uvloop)
        self._loop_thread_ident: Optional[int] = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run_loop, daemon=True, name="aio-network")
        self._thread.start()
        self._started.wait(_MARSHAL_TIMEOUT)

    # -- loop plumbing -------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop_thread_ident = threading.get_ident()
        self._loop.call_soon(self._started.set)
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The engine's event loop (every handler, timer and worker record runs on it)."""
        return self._loop

    def on_loop_thread(self) -> bool:
        return threading.get_ident() == self._loop_thread_ident

    def _call_on_loop(self, coro):
        """Run ``coro`` on the loop and return its result (blocking)."""
        if self.on_loop_thread():
            raise RuntimeError("_call_on_loop must not be used from the loop thread")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout=_MARSHAL_TIMEOUT)
        except concurrent.futures.TimeoutError as exc:
            future.cancel()
            raise NetworkError("event loop did not respond in time") from exc

    # -- dispatch-owner bookkeeping -------------------------------------
    # ``call_later`` attributes a timer to the node whose handler is running,
    # so :meth:`detach` can make the node's outstanding timers no-ops.
    def _current_owner(self) -> Optional[NetworkNode]:
        return getattr(self._dispatch_owner, "node", None)

    def _dispatch(self, node: NetworkNode, callback: Callable[[], None]) -> None:
        """Run ``callback`` with ``node`` as the current dispatch owner (every
        path into node code does, so chained reschedules attribute too)."""
        previous = self._current_owner()
        self._dispatch_owner.node = node
        try:
            callback()
        finally:
            self._dispatch_owner.node = previous

    def _owner_detached(self, owner: Optional[NetworkNode]) -> bool:
        return owner is not None and all(existing is not owner for existing in self._nodes)

    # ------------------------------------------------------------------
    def now(self) -> float:
        return time.monotonic()

    def _refuse_loop_wait(self, name: str) -> None:
        if self.on_loop_thread():
            raise NetworkError(f"{name} on the event loop thread would deadlock: "
                               "nothing it waits for can run while it blocks")

    def run_until(self, predicate: Callable[[], bool], timeout: float) -> bool:
        """Block the calling thread until ``predicate()`` holds, ``timeout``
        wall seconds pass or the loop thread is gone; returns
        ``predicate()``.  Off-loop only: the loop does the work."""
        self._refuse_loop_wait("run_until")
        deadline = time.monotonic() + timeout
        while (not predicate() and time.monotonic() < deadline
               and self._thread.is_alive()):
            time.sleep(_POLL_INTERVAL)
        return predicate()

    def run_for(self, duration: float) -> None:
        """Block the calling thread for ``duration`` wall seconds while the
        loop runs on.  Off-loop only."""
        self._refuse_loop_wait("run_for")
        time.sleep(duration)

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        owner = self._current_owner()
        if self.on_loop_thread():
            self._schedule_timer(max(0.0, delay), callback, owner)
        else:
            try:
                self._loop.call_soon_threadsafe(
                    self._schedule_timer, max(0.0, delay), callback, owner
                )
            except RuntimeError:
                pass  # loop closed: the engine is shut down, timers moot

    def _schedule_timer(
        self, delay: float, callback: Callable[[], None], owner: Optional[NetworkNode]
    ) -> None:
        if not self._running:
            return
        key = next(self._timer_keys)
        run = partial(self._fire_timer, key, callback, owner)
        # A zero delay runs on the loop's next pass, ahead of the I/O that
        # pass reads, as a plain callback would (a router's hand-off is
        # one): the heap orders it after that I/O instead.
        if delay > 0:
            self._timers[key] = self._loop.call_later(delay, run)
        else:
            self._timers[key] = self._loop.call_soon(run)

    def _fire_timer(
        self, key: int, callback: Callable[[], None], owner: Optional[NetworkNode]
    ) -> None:
        self._timers.pop(key, None)
        # Not into closed sockets, nor from a since-detached node into a
        # retry deployment on the same network.
        if not self._running or self._owner_detached(owner):
            return
        try:
            if owner is not None:
                self._dispatch(owner, callback)
            else:
                callback()
        except Exception as exc:  # noqa: BLE001 - timers have no caller
            self.errors.append(exc)

    # -- attach / detach ------------------------------------------------
    def attach(self, node: NetworkNode) -> None:
        if node in self._nodes:
            return
        self._nodes.append(node)
        for endpoint in node.unicast_endpoints():
            self._bind(node, endpoint)
        for group in node.multicast_groups():
            self._groups.setdefault((group.host, group.port), set()).add(node)
        self._rebuild_group_targets()
        self._dispatch(node, lambda: node.on_attached(self))

    def detach(self, node: NetworkNode) -> None:
        """Remove ``node``, close its sockets (synchronously, so a failed
        deployment can retry on the same endpoints at once) and make its
        timers no-ops.  A never or partially attached node is a no-op /
        partial cleanup."""
        if node not in self._nodes:
            return
        self._nodes.remove(node)
        self._endpoint_owner = {
            key: owner for key, owner in self._endpoint_owner.items() if owner is not node
        }
        for members in self._groups.values():
            members.discard(node)
        self._rebuild_group_targets()
        owned = self._owned_sockets.pop(id(node), [])
        if owned:
            self._release_owned(owned)

    def _rebuild_group_targets(self) -> None:
        """Recompute every group's send list, sorted by node name like
        ``SimulatedNetwork._recipients`` (a set iterates in address order,
        which differs from process to process)."""
        targets: Dict[Tuple[str, int], List[Tuple[NetworkNode, Endpoint]]] = {}
        for group, members in self._groups.items():
            pairs = []
            for member in sorted(members, key=lambda node: getattr(node, "name", "")):
                for endpoint in member.unicast_endpoints():
                    if endpoint.transport == Transport.UDP:
                        pairs.append((member, endpoint))
                        break
            targets[group] = pairs
        self._group_targets = targets

    def _release_owned(self, owned: List[Tuple[str, Tuple[str, int]]]) -> None:
        if self.on_loop_thread() or not self._thread.is_alive():
            self._close_owned(owned)
        else:
            async def _close() -> None:
                self._close_owned(owned)

            try:
                self._call_on_loop(_close())
            except NetworkError:
                self._close_owned(owned)

    def _close_owned(self, owned: List[Tuple[str, Tuple[str, int]]]) -> None:
        for kind, key in owned:
            if kind == "udp":
                udp = self._udp_binds.pop(key, None)
                if udp is not None:
                    udp.close(self._loop)
            else:
                tcp = self._tcp_binds.pop(key, None)
                if tcp is not None:
                    tcp.close(self._loop)

    # -- binding --------------------------------------------------------
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
        """Bind a UDP socket synchronously and start reading it.

        The raw bind makes the port immediately real (sends work, the
        kernel buffers arrivals) from any thread.  On the loop thread —
        where an engine binds per-session ephemeral ports in the middle of
        session processing — the reader is registered before this returns;
        from any other thread the registration is one marshalled callback,
        and datagrams arriving before it runs wait in the kernel buffer
        (readiness is level-triggered, so the reader fires for them).
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        if endpoint.port != 0:
            # Only for declared ports (quick rebind after a restart).  With
            # the option set, a port-0 bind may be handed a port another
            # ``SO_REUSEADDR`` socket of this process already holds — a
            # session would shadow a service or another session's socket.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((endpoint.host, endpoint.port))
        except OSError:
            sock.close()
            raise
        sock.setblocking(False)
        actual_port = sock.getsockname()[1]
        binding = _UdpBinding(sock, node, endpoint.host, actual_port)
        self._udp_binds[(endpoint.host, actual_port)] = binding
        self._owned_sockets.setdefault(id(node), []).append(
            ("udp", (endpoint.host, actual_port))
        )
        if self.on_loop_thread():
            self._start_reading(binding)
        else:
            try:
                self._loop.call_soon_threadsafe(self._start_reading, binding)
            except RuntimeError:
                pass  # loop closed: the engine is shut down
        return actual_port

    def _start_reading(self, binding: _UdpBinding) -> None:
        if binding.closed or not self._running:
            return
        self._loop.add_reader(binding.fd, self._on_udp_readable, binding)

    def _on_udp_readable(self, binding: _UdpBinding) -> None:
        """Drain up to :data:`_DRAIN_BOUND` datagrams and dispatch each.

        Runs on the loop thread whenever the socket is readable.  The
        bound is what keeps one flooded socket from starving the others:
        whatever is left stays in the kernel buffer, the (level-triggered)
        reader fires again on the next loop iteration, and in between
        every other ready socket and timer gets its turn.

        ``node.on_datagram`` is looked up per datagram (instances may be
        wrapped after attach), a raising handler is recorded and the drain
        goes on, and a handler that closes this very binding — a session
        releasing its ephemeral port — ends it before the next read.
        """
        self.udp_wakeups += 1
        sock = binding.sock
        node = binding.node
        destination = binding.destination
        owner = self._dispatch_owner
        previous = getattr(owner, "node", None)
        owner.node = node
        received = 0
        try:
            while received < _DRAIN_BOUND and self._running and not binding.closed:
                try:
                    data, addr = sock.recvfrom(_RECV_BUFFER)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError as exc:
                    # ICMP-style errors (port unreachable) surface here on
                    # some platforms; they are the substrate's problem
                    # report, not a crash.
                    self.errors.append(exc)
                    break
                received += 1
                try:
                    node.on_datagram(
                        self, data, Endpoint(addr[0], addr[1], Transport.UDP), destination
                    )
                except Exception as exc:  # noqa: BLE001 - keep the endpoint alive
                    self.errors.append(exc)
        finally:
            owner.node = previous
            self.udp_datagrams += received

    def _bind_tcp(self, node: NetworkNode, endpoint: Endpoint) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((endpoint.host, endpoint.port))
            sock.listen(128)
        except OSError:
            sock.close()
            raise
        sock.setblocking(False)
        actual_port = sock.getsockname()[1]
        # Held like a UDP binding; what reads it is the accept handler.
        listener = _UdpBinding(sock, node, endpoint.host, actual_port)
        listener.destination = Endpoint(endpoint.host, actual_port, Transport.TCP)
        self._tcp_binds[(endpoint.host, actual_port)] = listener
        self._owned_sockets.setdefault(id(node), []).append(("tcp", (endpoint.host, actual_port)))
        if self.on_loop_thread():
            self._start_accepting(listener)
        else:
            try:
                self._loop.call_soon_threadsafe(self._start_accepting, listener)
            except RuntimeError:
                pass  # loop closed: the engine is shut down

    def _start_accepting(self, listener: _UdpBinding) -> None:
        if not listener.closed and self._running:
            self._loop.add_reader(listener.fd, self._on_tcp_acceptable, listener)

    def _on_tcp_acceptable(self, listener: _UdpBinding) -> None:
        """Accept up to :data:`_DRAIN_BOUND` connections and start reading each."""
        for _ in range(_DRAIN_BOUND):
            if listener.closed:  # a handler detached its node
                return
            try:
                sock, peer = listener.sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except ConnectionAbortedError:
                continue  # reset before it was accepted
            except OSError as exc:
                # Out of descriptors, say: rest a second, do not spin.
                self.errors.append(exc)
                self._loop.remove_reader(listener.fd)
                self._loop.call_later(1.0, self._start_accepting, listener)
                return
            self.tcp_accepts += 1
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            _TcpConnection(self, sock, listener.node, listener.destination, peer)._on_readable()

    # -- late binds (per-session ephemeral ports) -----------------------
    def bind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> Endpoint:
        if endpoint.transport == Transport.TCP:
            raise NetworkError("late TCP binds are not supported; TCP replies return on "
                               "the accepted connection")
        with self._lock:
            key = (endpoint.host, endpoint.port, endpoint.transport)
            if endpoint.port != 0:
                owner = self._endpoint_owner.get(key)
                if owner is not None and owner is not node:
                    raise NetworkError(f"endpoint {endpoint} already bound by node '{owner.name}'")
        actual_port = self._bind_udp(node, endpoint)
        bound = Endpoint(endpoint.host, actual_port, Transport.UDP)
        with self._lock:
            self._endpoint_owner[(bound.host, bound.port, bound.transport)] = node
        return bound

    def unbind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> None:
        key = (endpoint.host, endpoint.port)
        with self._lock:
            if self._endpoint_owner.get(key + (endpoint.transport,)) is not node:
                return
            del self._endpoint_owner[key + (endpoint.transport,)]
            owned = self._owned_sockets.get(id(node))
            if owned is not None and ("udp", key) in owned:
                owned.remove(("udp", key))
        self._release_owned([("udp", key)])

    # -- sending --------------------------------------------------------
    def send(
        self, data: bytes, source: Endpoint, destination: Endpoint, delay: float = 0.0
    ) -> None:
        if delay > 0:
            self.call_later(delay, lambda: self.send(data, source, destination))
            return
        if self.on_loop_thread():
            # Mid-dispatch: UDP and reply writes complete inline; a dial runs
            # on, its failure landing in ``errors`` (no blocking on the loop).
            self._send_now(data, source, destination)
            return
        if not self._running or not self._thread.is_alive():
            return
        self._call_on_loop(self._send_async(data, source, destination))

    async def _send_async(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        if (not destination.is_multicast) and destination.transport == Transport.TCP:
            # Off-loop callers block: the exchange's failure raises to them.
            future = self._loop.create_future()
            self._send_tcp(data, source, destination, future)
            await future
            return
        self._send_now(data, source, destination)

    def _send_now(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        if destination.is_multicast:
            sender = self._endpoint_owner.get(
                (source.host, source.port, source.transport)
            )
            for member, endpoint in self._group_targets.get(
                (destination.host, destination.port), ()
            ):
                if member is not sender:
                    self._send_udp(data, source, endpoint)
            return
        if destination.transport == Transport.TCP:
            self._send_tcp(data, source, destination)
        else:
            self._send_udp(data, source, destination)

    def _send_tcp(self, data: bytes, source: Endpoint, destination: Endpoint,
                  future: Optional[asyncio.Future] = None) -> None:
        """Reply on an open channel to ``destination``, else dial it for the
        node owning ``source``.  Loop-thread only."""
        channel = self._tcp_replies.get((destination.host, destination.port))
        if channel is not None:
            if not channel.reply(data):
                self.tcp_replies_dropped += 1
            if future is not None:
                future.set_result(None)
            return
        owners = self._endpoint_owner
        owner = owners.get((source.host, source.port, source.transport)) or owners.get(
            (source.host, source.port, Transport.UDP))
        _TcpDial(self, data, owner, source, destination, future)

    def _send_udp(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        """The UDP send seam (fault injectors decorate exactly this).

        Raw non-blocking ``sendto`` — thread-agnostic, so a fault window
        flushing from a control thread needs no marshalling.  A full
        socket buffer is a legitimate UDP drop, not an error.
        """
        addr = (destination.host, destination.port)
        binding = self._udp_binds.get((source.host, source.port))
        if binding is not None and not binding.closed:
            try:
                binding.sock.sendto(data, addr)
            except (BlockingIOError, InterruptedError):
                pass
            return
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.sendto(data, addr)
        finally:
            sock.close()

    # -- teardown --------------------------------------------------------
    async def _shutdown(self) -> None:
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        for exchange in list(self._tcp_live):
            exchange.close()
        for binding in [*self._udp_binds.values(), *self._tcp_binds.values()]:
            binding.close(self._loop)
        self._udp_binds.clear()
        self._tcp_binds.clear()
        self._owned_sockets.clear()
        # One tick so off-loop senders waiting on an aborted dial hear of it.
        await asyncio.sleep(0)

    def close(self) -> None:
        """Stop the event loop, close every socket, cancel every timer."""
        if self._closed:
            return
        self._closed = True
        self._running = False
        if self._thread.is_alive() and not self.on_loop_thread():
            try:
                future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
                future.result(timeout=_MARSHAL_TIMEOUT)
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:
                pass
            self._thread.join(timeout=_MARSHAL_TIMEOUT)

    def __enter__(self) -> "AsyncSocketNetwork":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class AsyncFaultyNetwork(AsyncSocketNetwork):
    """An :class:`AsyncSocketNetwork` with seeded UDP fault injection.

    While a **loss window** is open, every outgoing datagram draws a
    verdict from the window's :class:`~repro.network.faults.FaultPlan` —
    dropped, duplicated, reordered (held back one slot and sent after the
    *next* datagram) or passed through.  Outside a window the engine is
    byte-for-byte the plain engine: no verdict is drawn, nothing is
    counted, and closing a window flushes any held datagram, so faults can
    never leak past the window bounds (the bounds tests pin this).

    TCP and the receive path are untouched — the injector models a lossy
    UDP segment, which is the fault the paper's discovery protocols
    actually face.  Thread-safe: verdicts and the one-slot holdback are
    serialised under a dedicated lock (the loop thread sends while a
    harness thread opens and closes windows).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        tcp_reply_timeout: float = DEFAULT_TCP_REPLY_TIMEOUT,
        seed: int = 0,
        loss: float = 0.35,
        duplicate: float = 0.15,
        reorder: float = 0.15,
        use_uvloop: Optional[bool] = None,
    ) -> None:
        super().__init__(host=host, tcp_reply_timeout=tcp_reply_timeout, use_uvloop=use_uvloop)
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
