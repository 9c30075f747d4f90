"""One worker loop, on either runtime: a worker engine's records, in order.

A sharded deployment never attaches a worker engine to the network
itself.  Each pooled worker is a :class:`ShardWorker`:

* a **shell** node attached in the engine's place, owning its unicast
  endpoints and its per-session ephemeral ports, which hands every
  datagram it receives to the worker as a record;
* an **engine view** — the network as the engine sees it: sends pass
  through, timers the engine sets come home as records, and the worker's
  serial **send clock** lives here (see :meth:`_WorkerEngineView.departure`);
* the worker's records: keyed hand-offs from the router, upstream
  datagrams, engine timers and control jobs (a heartbeat ping, a wedge).

Each record arrives through the event that delivers it — a datagram
delivery, a ``call_later`` firing — and runs at once on an idle,
unpaused worker.  Otherwise it waits in a ``deque`` that is drained when
the running record or the pause ends, so one worker's records run one at
a time and in arrival order.  The router's fan-out passes are the one
caller that runs a worker's code outside a record, and only while the
worker is :attr:`~ShardWorker.idle`, which is exactly when a record would
run at once; a pass that meets a paused worker is posted to it as a
record instead.  Nothing here knows which substrate it runs
on: on the simulation the events are virtual-clock events, live they are
socket reads and timers on the one event-loop thread, and both are
single-threaded, so no record ever runs concurrently with another.

:meth:`ShardWorker.pause` is the one wedge: records, fan-out passes
included, keep arriving and queue (``queue_depth``), pings stop being answered (``heartbeat_age``)
and ``busy_backlog`` reports the pause on top of the send clock, until
the pause ends and the queued records run in order.  Nothing is lost.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, List, Optional, Tuple

from ..core.engine.automata_engine import AutomataEngine
from ..network.addressing import Endpoint
from ..network.engine import NetworkEngine, NetworkNode
from ..obs.tracing import STAGE_QUEUE_WAIT

__all__ = ["ShardWorker"]

#: One queued record: the job, its trace id, and the tracer-clock time it
#: was handed off at (``None`` when there is no hand-off wait to record).
_Record = Tuple[Callable[[], object], int, Optional[float]]


class _WorkerEngineView(NetworkEngine):
    """The network engine as one worker sees it: sends pass through,
    callbacks come home, and translated sends queue on a serial clock."""

    def __init__(self, worker: "ShardWorker") -> None:
        self._worker = worker
        self._network = worker.network
        #: Network-clock time the worker's serial send clock frees up.
        self.free_at = 0.0

    def now(self) -> float:
        return self._network.now()

    def departure(self, delay: float) -> float:
        """Queue a send costing ``delay`` seconds behind the worker's
        earlier sends: it departs at ``max(now, free_at) + delay``, so
        overlapping sessions on one worker wait for each other and each
        added worker buys real capacity."""
        now = self._network.now()
        self.free_at = max(now, self.free_at) + delay
        return self.free_at - now

    def send(
        self,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
        delay: float = 0.0,
    ) -> None:
        self._network.send(data, source=source, destination=destination, delay=delay)

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        self._network.call_later(delay, partial(self._worker.post, callback))

    @property
    def kernel_ephemeral_ports(self) -> bool:
        """Whether the substrate assigns ephemeral ports itself (bind to 0)."""
        return self._network.kernel_ephemeral_ports

    def bind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> Endpoint:
        """Bind a per-session ephemeral endpoint to the worker's shell, so
        replies received on it come home as records (and a detached shell
        takes its ephemeral ports with it).  Returns the bound
        :class:`Endpoint`."""
        return self._network.bind_endpoint(self._worker.shell, endpoint)

    def unbind_endpoint(self, node: NetworkNode, endpoint: Endpoint) -> None:
        self._network.unbind_endpoint(self._worker.shell, endpoint)


class _WorkerShell(NetworkNode):
    """The node attached to the network for one worker: it owns the
    worker's unicast endpoints (so upstream replies land on it) and hands
    every datagram to the worker as a record."""

    def __init__(self, worker: "ShardWorker") -> None:
        self._worker = worker
        self.name = f"{worker.engine.name}.shell"

    def unicast_endpoints(self) -> List[Endpoint]:
        return self._worker.engine.unicast_endpoints()

    def multicast_groups(self) -> List[Endpoint]:
        # Workers behind a router never join groups; the router owns them.
        return []

    def on_attached(self, engine: NetworkEngine) -> None:
        self._worker.engine.on_attached(self._worker.view)

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        worker = self._worker
        # ``engine.on_datagram`` is looked up when the record runs: tracing
        # shims wrap it on the instance after deploy.
        worker.post(
            lambda: worker.engine.on_datagram(worker.view, data, source, destination)
        )


class ShardWorker:
    """One worker engine, its shell, its engine view and its records.

    Every record runs on the thread that delivers the substrate's events
    (the only one on the simulation, the event-loop thread live), so the
    worker's state needs no lock; off-loop readers (metrics rows) read
    single attributes.
    """

    def __init__(self, engine: AutomataEngine, network: NetworkEngine) -> None:
        self.engine = engine
        self.network = network
        self.view = _WorkerEngineView(self)
        self.shell = _WorkerShell(self)
        #: Exceptions raised by records (the worker keeps serving).
        self.errors: List[BaseException] = []
        #: Network-clock time the last heartbeat ping ran; ``None`` until
        #: the first ping is posted (a worker never pinged reads healthy).
        self.heartbeat_at: Optional[float] = None
        #: Records waiting for the running record or the pause to end.
        self._pending: Deque[_Record] = deque()
        self._running = False
        #: Network-clock time the current pause ends, ``None`` when unpaused.
        self._paused_until: Optional[float] = None
        #: Set once the worker leaves the deployment: it is never paused
        #: again, so every record from then on runs at once, and fan-out
        #: passes decline the worker.
        self.closed = False

    # -- records ---------------------------------------------------------
    def post(
        self,
        job: Callable[[], object],
        trace: int = 0,
        queued_at: Optional[float] = None,
    ) -> None:
        """Run ``job`` as one of this worker's records.

        It runs now when the worker is idle and unpaused, else after the
        records queued before it.  ``trace`` is the :mod:`repro.obs` trace
        id of the datagram the record delivers; ``queued_at`` (a reading
        of the deployment tracer's clock at hand-off) makes the wait until
        the record runs a queue-wait sample in the worker's recorder.
        Call it on the substrate's event thread only.
        """
        self._pending.append((job, trace, queued_at))
        if not self._running:
            self._drain()

    def _drain(self) -> None:
        self._running = True
        try:
            pending = self._pending
            while pending and self._paused_until is None:
                self._run(*pending.popleft())
        finally:
            self._running = False

    def _run(self, job: Callable[[], object], trace: int, queued_at: Optional[float]) -> None:
        if queued_at is not None:
            recorder = self.engine._recorder
            if recorder is not None:
                now = self.engine.tracer.clock()
                recorder.record_wait(trace, STAGE_QUEUE_WAIT, queued_at, now)
        try:
            job()
        except Exception as exc:  # noqa: BLE001 - one bad record must not stop the worker
            self.errors.append(exc)

    @property
    def idle(self) -> bool:
        """Whether a record posted now would run at once."""
        return not self._running and not self._pending and self._paused_until is None

    @property
    def queue_depth(self) -> int:
        """Records waiting to run."""
        return len(self._pending)

    # -- control records -----------------------------------------------
    def ping(self) -> None:
        """Post the heartbeat record, which stamps :attr:`heartbeat_at`
        when it runs — on a paused worker, only after the pause.  The
        first ping starts the heartbeat clock as it is posted, so a worker
        wedged before it was ever pinged goes stale too."""
        if self.heartbeat_at is None:
            self.heartbeat_at = self.network.now()
        self.post(self._beat)

    def _beat(self) -> None:
        self.heartbeat_at = self.network.now()

    def pause(self, seconds: float) -> None:
        """The wedge record: hold every later record for ``seconds``."""
        if self.closed:
            return
        self._paused_until = self.network.now() + seconds
        self.network.call_later(seconds, self._resume)

    def _resume(self) -> None:
        self._paused_until = None
        if not self._running:
            self._drain()

    def close(self) -> None:
        """Leave the deployment: lift any pause and run what is queued,
        so no record is dropped and its errors reach :attr:`errors`."""
        self.closed = True
        self._resume()

    # -- metrics ---------------------------------------------------------
    def heartbeat_age(self, now: float) -> float:
        """Seconds since the last heartbeat ping ran; 0.0 if never pinged."""
        if self.heartbeat_at is None:
            return 0.0
        return max(0.0, now - self.heartbeat_at)

    def busy_backlog(self, now: float) -> float:
        """Seconds of the pause still to run plus the sends already queued
        on the worker's send clock beyond ``now``."""
        paused = self._paused_until
        held = max(0.0, paused - now) if paused is not None else 0.0
        return held + max(0.0, self.view.free_at - now)
