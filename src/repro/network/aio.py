"""The socket network engine: real loopback sockets on one asyncio loop.

This engine drives the same :class:`~repro.network.engine.NetworkNode`
abstraction as the simulation — attach/detach, ``send``, ``call_later``,
late ``bind_endpoint``/``unbind_endpoint`` — over real BSD sockets, with
every socket, timer and handler on **one event loop**:

* **UDP** endpoints are raw non-blocking sockets registered with
  ``loop.add_reader``.  When one is readable the engine's own reader
  drains up to :data:`_DRAIN_BOUND` datagrams with ``recvfrom(64 KiB)``
  and dispatches each to its owning node *on the loop thread*.  Not
  asyncio's stock datagram transport: that reads one datagram per loop
  iteration with ``recvfrom(256 KiB)``, and a 256 KiB ``bytes`` crosses
  malloc's mmap threshold — a loopback send + receive measured 17.1 µs
  that way against 3.1 µs at 64 KiB.  The bound keeps one flooded
  socket from starving the rest and keeps the backlog where it is counted:
  what a wake-up does not read stays in the kernel buffer, and a worker
  queue fed by these readers never holds more than bound × feeding
  sockets jobs (docs/architecture.md, "The UDP reader").
* **UDP multicast** is *emulated in-process*: joining ``239.x.x.x:p`` adds
  the node to a local registry and sends to that group fan out directly to
  the members' real UDP sockets.  True IP multicast is often unavailable in
  containers and CI runners, and the emulation preserves the delivery
  semantics the framework relies on.
* **TCP** endpoints become ``asyncio.start_server`` servers.  Each accepted
  connection reads a request (until the peer half-closes or a short idle
  timeout expires), dispatches it, and holds the connection open as the
  node's **reply channel**: whatever the node later sends to the ephemeral
  peer endpoint is written back on the same connection.  The channel
  survives the node's handler returning — a node that answers *after a
  delay* (a translated response scheduled behind a processing delay, or a
  shard router handing the request to a worker queue) still reaches the
  waiting client, instead of the engine dialling the peer's
  kernel-ephemeral port and hitting ``ConnectionRefusedError``.  An
  unanswered connection is closed after ``tcp_reply_timeout`` seconds; an
  answered one loops back for the *next* request on the same connection
  (pipelined sequential exchanges).
* **Timers** are ``loop.call_later`` handles: heap entries pruned on fire,
  so a periodic eviction sweep costs a recycled handle per tick.

The public surface is a synchronous, thread-safe facade: the event loop
runs on a dedicated daemon thread, and calls arriving from other threads
(deploy/undeploy on the control plane, test drivers, fault-window flushes)
are marshalled onto it.  Calls already *on* the loop thread (a node's
handler sending, an engine binding a per-session ephemeral port inside
session processing) run inline — socket binds are performed synchronously
on raw sockets so they work from any thread; on the loop thread the reader
is registered in the same call, from elsewhere by one marshalled callback
(datagrams arriving in between simply wait in the kernel buffer).

``uvloop`` is used for the event loop when importable (pass
``use_uvloop=False`` to opt out, ``True`` to require it); the engine is
complete on the stdlib loop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import threading
import time
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.errors import ConfigurationError, NetworkError
from .addressing import Endpoint, Transport
from .engine import NetworkEngine, NetworkNode
from .faults import FaultInjectorMixin

__all__ = ["AsyncSocketNetwork", "AsyncFaultyNetwork", "uvloop_available"]

_RECV_BUFFER = 65536
_TCP_IDLE_TIMEOUT = 0.2

#: Seconds an accepted TCP connection stays open waiting for the owning
#: node's (possibly delayed) reply before the engine gives up and closes it.
DEFAULT_TCP_REPLY_TIMEOUT = 5.0

#: Seconds a cross-thread marshal onto the loop may take before the caller
#: gives up (generous: only a stopped loop ever gets close).
_MARSHAL_TIMEOUT = 10.0

#: Datagrams one readiness wake-up drains from one socket before yielding
#: to the loop (see :meth:`AsyncSocketNetwork._on_udp_readable`).
_DRAIN_BOUND = 32


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
                raise ConfigurationError(
                    f"uvloop was requested but is not usable: {exc}"
                ) from exc
    return asyncio.new_event_loop(), False


class _UdpBinding:
    """One bound UDP socket, read by the loop's own reader callback.

    The raw socket is bound synchronously (so the port is known to the
    caller immediately, from any thread) and registered with
    ``loop.add_reader``.  Sends go straight to the raw non-blocking
    socket — UDP ``sendto`` never blocks meaningfully, and a full buffer
    is a legitimate datagram drop.
    """

    __slots__ = ("sock", "fd", "node", "destination", "closed")

    def __init__(
        self, sock: socket.socket, node: NetworkNode, host: str, port: int
    ) -> None:
        self.sock = sock
        #: Kept beside the socket: ``fileno()`` is -1 once it is closed.
        self.fd = sock.fileno()
        self.node = node
        #: What every datagram read here was addressed to, built once.
        self.destination = Endpoint(host, port, Transport.UDP)
        self.closed = False

    def close(self, loop: asyncio.AbstractEventLoop) -> None:
        """Unregister the reader, then close the socket.

        Loop-thread only; idempotent.  Both steps are synchronous, so the
        port is released before the caller returns and a detach-then-rebind
        retry never races the kernel.  (An off-loop bind closed before its
        reader was registered has nothing to remove; the descriptor is
        still ours at this point, so the call cannot hit a stranger's.)
        """
        if self.closed:
            return
        self.closed = True
        loop.remove_reader(self.fd)
        try:
            self.sock.close()
        except OSError:
            pass


class _TcpBinding:
    """One listening TCP socket plus its (eventually installed) server."""

    def __init__(self, sock: socket.socket, node: NetworkNode, host: str, port: int) -> None:
        self.sock = sock
        self.node = node
        self.host = host
        self.port = port
        self.server: Optional[asyncio.AbstractServer] = None
        self.closed = False

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.server is not None:
            self.server.close()
        try:
            self.sock.close()
        except OSError:
            pass


class _AsyncTcpReplyChannel:
    """An accepted TCP connection held open as a node's reply channel.

    Loop-thread only: writes and the handler's teardown all run on the
    event loop, so no lock is needed.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.replied = asyncio.Event()
        self.closed = False

    def write(self, data: bytes) -> bool:
        """Write ``data`` back to the peer; ``False`` if already closed."""
        if self.closed or self.writer.is_closing():
            return False
        self.writer.write(data)
        self.replied.set()
        return True

    def retire(self) -> None:
        """Mark unusable without closing the connection (the handler may
        loop back for a pipelined next request on the same stream)."""
        self.closed = True


class AsyncSocketNetwork(NetworkEngine):
    """Network engine backed by real loopback sockets on one event loop."""

    #: Late binds go through the kernel: request port 0 and the OS assigns
    #: a free ephemeral port.  The automata engine (and the UPnP control
    #: point) feature-detect this to skip their deterministic port ranges
    #: and TIME_WAIT quarantine — the kernel manages reuse.
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
        self._tcp_binds: Dict[Tuple[str, int], _TcpBinding] = {}
        self._endpoint_owner: Dict[Tuple[str, int, str], NetworkNode] = {}
        self._groups: Dict[Tuple[str, int], Set[NetworkNode]] = {}
        #: Per group, the ``(member, first UDP endpoint)`` pairs an emulated
        #: multicast is sent to, sorted by node name; rebuilt (never
        #: mutated) on attach/detach, so a send iterates a stable list.
        self._group_targets: Dict[
            Tuple[str, int], List[Tuple[NetworkNode, Endpoint]]
        ] = {}
        self._owned_sockets: Dict[int, List[Tuple[str, Tuple[str, int]]]] = {}
        self._tcp_replies: Dict[Tuple[str, int], _AsyncTcpReplyChannel] = {}
        #: Live ``loop.call_later`` handles; pruned on fire.
        self._timers: Set[asyncio.TimerHandle] = set()
        #: In-flight loop tasks (TCP dials, server installs, accepted
        #: connection handlers) — cancelled on close.
        self._tasks: Set["asyncio.Task"] = set()
        self.tcp_replies_dropped = 0
        #: Reader wake-ups and the datagrams they drained: their ratio is
        #: the mean batch per wake-up, the loop's saturation signal.
        self.udp_wakeups = 0
        self.udp_datagrams = 0
        #: Exceptions from node handlers, timer callbacks and
        #: fire-and-forget sends on the loop, which have no caller to raise
        #: to; inspect after a run, like ``AsyncWorkerLoop.errors``.
        self.errors: List[BaseException] = []
        self._lock = threading.Lock()
        self._dispatch_owner = threading.local()
        self._running = True
        self._closed = False
        self._loop, self.uvloop_active = _new_event_loop(use_uvloop)
        self._loop_thread_ident: Optional[int] = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, daemon=True, name="aio-network"
        )
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
        """The engine's event loop (the runtime schedules worker tasks on it)."""
        return self._loop

    def on_loop_thread(self) -> bool:
        return threading.get_ident() == self._loop_thread_ident

    def _spawn(self, coro) -> None:
        """Fire-and-forget a coroutine on the loop, from any thread."""

        def _start() -> None:
            if not self._running:
                coro.close()
                return
            task = self._loop.create_task(coro)
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)

        if self.on_loop_thread():
            _start()
        else:
            try:
                self._loop.call_soon_threadsafe(_start)
            except RuntimeError:
                coro.close()  # loop already closed

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
    # The node whose handler is currently executing: ``call_later`` reads
    # it to attribute the timer to that node, so :meth:`detach` can make
    # the node's outstanding timers no-ops.
    def _current_owner(self) -> Optional[NetworkNode]:
        return getattr(self._dispatch_owner, "node", None)

    def _dispatch(self, node: NetworkNode, callback: Callable[[], None]) -> None:
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

    # ------------------------------------------------------------------
    def now(self) -> float:
        return time.monotonic()

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
        self,
        delay: float,
        callback: Callable[[], None],
        owner: Optional[NetworkNode],
    ) -> None:
        if not self._running:
            return
        handle_box: List[asyncio.TimerHandle] = []

        def run() -> None:
            if handle_box:
                self._timers.discard(handle_box[0])
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
            except Exception as exc:  # noqa: BLE001 - timers have no caller
                self.errors.append(exc)

        handle = self._loop.call_later(delay, run)
        handle_box.append(handle)
        self._timers.add(handle)

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
        """Remove ``node`` and close the sockets bound on its behalf.

        Port release is synchronous (the close is marshalled onto the loop
        and waited for), so a failed deployment can unwind and retry on
        the same endpoints immediately.  Timers the node scheduled become
        no-ops.  A node that was never attached (or only partially
        attached before its ``attach`` raised mid-bind) detaches as a
        no-op / partial cleanup.
        """
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
        """Recompute every group's send list from its membership.

        Sorted by node name, like ``SimulatedNetwork._recipients``: the
        member *set* iterates in object-address order, which would make
        the order of a multicast's copies differ from process to process.
        A member without a UDP endpoint receives nothing.
        """
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
                    tcp.close()

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
        bound is what keeps one flooded socket from starving the others
        and the worker queues from growing without limit: whatever is left
        stays in the kernel buffer, the (level-triggered) reader fires
        again on the next loop iteration, and in between every other ready
        socket, timer and worker task gets its turn.

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
        binding = _TcpBinding(sock, node, endpoint.host, actual_port)
        self._tcp_binds[(endpoint.host, actual_port)] = binding
        self._owned_sockets.setdefault(id(node), []).append(
            ("tcp", (endpoint.host, actual_port))
        )
        self._spawn(self._install_tcp_server(binding))

    async def _install_tcp_server(self, binding: _TcpBinding) -> None:
        if binding.closed or not self._running:
            return

        async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            await self._handle_tcp_client(binding, reader, writer)

        try:
            server = await asyncio.start_server(handler, sock=binding.sock)
        except Exception as exc:  # noqa: BLE001 - surface, don't crash the loop
            self.errors.append(exc)
            return
        binding.server = server
        if binding.closed or not self._running:
            server.close()

    # -- late binds (per-session ephemeral ports) -----------------------
    def bind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> Endpoint:
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
        key = (endpoint.host, endpoint.port)
        with self._lock:
            if self._endpoint_owner.get(key + (endpoint.transport,)) is not node:
                return
            del self._endpoint_owner[key + (endpoint.transport,)]
            owned = self._owned_sockets.get(id(node))
            if owned is not None and ("udp", key) in owned:
                owned.remove(("udp", key))
        self._release_owned([("udp", key)])

    # -- TCP serving ----------------------------------------------------
    async def _read_tcp_request(
        self, reader: asyncio.StreamReader, first: bool
    ) -> Tuple[Optional[bytes], bool]:
        """Read one request; returns ``(request, eof)``.

        ``request`` is ``None`` when no further request arrived (the
        pipelined handler then closes the drained connection).  On the
        first read an idle connection dispatches an empty request after
        one idle period; later reads wait up to the reply timeout for the
        next pipelined request.
        """
        chunks: List[bytes] = []
        window = _TCP_IDLE_TIMEOUT if first else self.tcp_reply_timeout
        while True:
            try:
                chunk = await asyncio.wait_for(reader.read(_RECV_BUFFER), window)
            except asyncio.TimeoutError:
                if chunks:
                    return b"".join(chunks), False
                return (b"" if first else None), False
            except OSError:
                return (b"".join(chunks) if chunks else None), True
            if not chunk:
                if chunks:
                    return b"".join(chunks), True
                return (b"" if first else None), True
            chunks.append(chunk)
            window = _TCP_IDLE_TIMEOUT

    async def _handle_tcp_client(
        self,
        binding: _TcpBinding,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        node = binding.node
        peer = writer.get_extra_info("peername") or ("?", 0)
        peer_key = (peer[0], peer[1])
        source = Endpoint(peer[0], peer[1], Transport.TCP)
        destination = Endpoint(binding.host, binding.port, Transport.TCP)
        first = True
        try:
            while self._running:
                request, eof = await self._read_tcp_request(reader, first)
                if request is None:
                    break
                first = False
                channel = _AsyncTcpReplyChannel(writer)
                self._tcp_replies[peer_key] = channel
                answered = False
                try:
                    try:
                        self._dispatch(
                            node,
                            lambda: node.on_datagram(self, request, source, destination),
                        )
                    except Exception as exc:  # noqa: BLE001 - record, close below
                        self.errors.append(exc)
                    else:
                        try:
                            await asyncio.wait_for(
                                channel.replied.wait(), self.tcp_reply_timeout
                            )
                            answered = True
                        except asyncio.TimeoutError:
                            pass
                finally:
                    if self._tcp_replies.get(peer_key) is channel:
                        del self._tcp_replies[peer_key]
                    channel.retire()
                if not answered or eof:
                    # Unanswered: close (the client sees EOF).  Answered +
                    # peer half-closed: drained.
                    break
                try:
                    await writer.drain()
                except OSError:
                    break
        finally:
            if task is not None:
                self._tasks.discard(task)
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - teardown
                pass

    # -- sending --------------------------------------------------------
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
        if self.on_loop_thread():
            # A node handler (or timer) sending mid-dispatch: UDP and
            # reply-channel writes complete inline; a fresh TCP dial is a
            # task whose failure lands in ``errors`` (the loop cannot
            # block on its own round trip).
            self._send_now(data, source, destination)
            return
        if not self._running or not self._thread.is_alive():
            return
        self._call_on_loop(self._send_async(data, source, destination))

    async def _send_async(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        if (not destination.is_multicast) and destination.transport == Transport.TCP:
            # Blocking semantics for off-loop callers: the dial's
            # failure raises to the sender.
            await self._send_tcp(data, source, destination)
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
            if self._write_tcp_reply(data, destination):
                return
            self._spawn(self._send_tcp_logged(data, source, destination))
        else:
            self._send_udp(data, source, destination)

    def _write_tcp_reply(self, data: bytes, destination: Endpoint) -> bool:
        """Write on an open reply channel; ``True`` if one was found."""
        channel = self._tcp_replies.get((destination.host, destination.port))
        if channel is None:
            return False
        try:
            wrote = channel.write(data)
        except OSError as exc:
            raise NetworkError(f"TCP reply to {destination} failed: {exc}") from exc
        if not wrote:
            self.tcp_replies_dropped += 1
        return True

    async def _send_tcp_logged(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        try:
            await self._send_tcp(data, source, destination)
        except NetworkError as exc:
            self.errors.append(exc)

    async def _send_tcp(self, data: bytes, source: Endpoint, destination: Endpoint) -> None:
        if self._write_tcp_reply(data, destination):
            return
        owner = self._endpoint_owner.get(
            (source.host, source.port, source.transport)
        ) or self._endpoint_owner.get((source.host, source.port, Transport.UDP))
        writer: Optional[asyncio.StreamWriter] = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(destination.host, destination.port),
                self.tcp_reply_timeout + 2.0,
            )
            writer.write(data)
            await writer.drain()
            if writer.can_write_eof():
                writer.write_eof()
            # Read deadline slightly above the server's reply timeout, so
            # an unanswered request ends in the server's clean EOF rather
            # than racing a client-side timeout.
            response = await asyncio.wait_for(
                reader.read(), self.tcp_reply_timeout + 2.0
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise NetworkError(f"TCP send to {destination} failed: {exc}") from exc
        finally:
            if writer is not None:
                try:
                    writer.close()
                except Exception:  # noqa: BLE001 - teardown
                    pass
        if response and owner is not None:
            self._dispatch(
                owner, lambda: owner.on_datagram(self, response, destination, source)
            )

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
        for handle in list(self._timers):
            handle.cancel()
        self._timers.clear()
        for task in list(self._tasks):
            task.cancel()
        self._tasks.clear()
        for udp in list(self._udp_binds.values()):
            udp.close(self._loop)
        for tcp in list(self._tcp_binds.values()):
            tcp.close()
        for channel in list(self._tcp_replies.values()):
            channel.retire()
            try:
                channel.writer.close()
            except Exception:  # noqa: BLE001 - teardown
                pass
        self._udp_binds.clear()
        self._tcp_binds.clear()
        self._tcp_replies.clear()
        self._owned_sockets.clear()
        # One tick so cancellations propagate before the loop stops.
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


class AsyncFaultyNetwork(FaultInjectorMixin, AsyncSocketNetwork):
    """An :class:`AsyncSocketNetwork` with seeded UDP fault injection.

    See :class:`~repro.network.faults.FaultInjectorMixin` for the
    injection semantics.
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
        super().__init__(
            host=host, tcp_reply_timeout=tcp_reply_timeout, use_uvloop=use_uvloop
        )
        self._init_fault_state(seed, loss, duplicate, reorder)
