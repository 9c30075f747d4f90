"""The load generator: one process, one thread, one non-blocking UDP socket.

Concurrent SLP lookups are multiplexed on the one socket by their 16-bit
``XID`` — the bridges correlate sessions on ``(host, XID)``, so a single
source address carries any number of concurrent sessions.  Every reply is
compared byte for byte with the reference template; a lookup unanswered
after :data:`TIMEOUT_S`, or answered with other bytes, has failed.

Two loops:

* :meth:`LoadGenerator.closed` keeps a fixed number of lookups in flight
  (a caller that waits for its reply): capacity and cost per lookup.
* :meth:`LoadGenerator.open` sends on a fixed schedule regardless of
  replies (independent users) and times each lookup from the instant it
  was *due*, so a stall charges the lookups queued behind it.

``select`` is used rather than ``epoll``/``poll`` because its timeout has
microsecond resolution; a millisecond-rounded wait would itself be most of
a 1 ms lookup.
"""

from __future__ import annotations

import select
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from spans import SLP_XID_OFFSET

TIMEOUT_S = 1.0
#: Replies are small; this only has to exceed the largest one.
_RECV_BYTES = 4096
#: The *driver's* socket buffers are sized explicitly so a burst of replies
#: is never lost on the measuring side.
_SOCKET_BUFFER = 4 * 1024 * 1024
_SPIN_S = 0.0002
#: Both loops are cut into slices this long; the driver reports the median
#: slice, which a disturbed second cannot move the way it moves a mean.
SLICE_S = 1.0


@dataclass
class PhaseResult:
    attempted: int = 0
    completed: int = 0
    mismatched: int = 0
    timed_out: int = 0
    #: ``(seconds into the phase the lookup was due, latency)`` per completion.
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    #: Closed loop: ``(seconds into the phase, completed so far, probe())`` at
    #: the start and at every :data:`SLICE_S` boundary of the timed window.
    marks: List[Tuple[float, int, float]] = field(default_factory=list)
    max_late_s: float = 0.0
    inflight_mid: int = 0
    inflight_end: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.mismatched + self.timed_out


class LoadGenerator:
    def __init__(
        self,
        target: Tuple[str, int],
        request: Callable[[int], bytes],
        expected: Callable[[int], bytes],
        xids: Iterator[int],
        garbage: Optional[Iterator[Sequence[bytes]]] = None,
    ) -> None:
        """``xids`` yields the XID of each successive lookup; ``garbage``,
        when given, yields the datagrams sent *before* each valid lookup."""
        self.target = target
        self.request = request
        self.expected = expected
        self.xids = xids
        self.garbage = garbage
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _SOCKET_BUFFER)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _SOCKET_BUFFER)
        self.sock.bind((target[0], 0))
        self.sock.setblocking(False)
        #: XID -> (reference time the latency counts from, expected bytes).
        self._inflight: Dict[int, Tuple[float, bytes]] = {}

    def close(self) -> None:
        self.sock.close()

    # ------------------------------------------------------------------
    def _send(self, result: PhaseResult, since: float) -> None:
        if self.garbage is not None:
            for junk in next(self.garbage):
                self.sock.sendto(junk, self.target)
        xid = next(self.xids)
        while xid in self._inflight:  # 65 535 ids, a few dozen in flight
            xid = next(self.xids)
        self._inflight[xid] = (since, self.expected(xid))
        self.sock.sendto(self.request(xid), self.target)
        result.attempted += 1

    def _receive(self, result: PhaseResult, start: float) -> int:
        """Drain the socket; returns the number of lookups it settled."""
        settled = 0
        while True:
            try:
                data = self.sock.recv(_RECV_BYTES)
            except BlockingIOError:
                return settled
            now = time.perf_counter()
            xid = int.from_bytes(data[SLP_XID_OFFSET : SLP_XID_OFFSET + 2], "big")
            entry = self._inflight.pop(xid, None)
            if entry is None:
                result.mismatched += 1  # a reply nobody asked for
                continue
            settled += 1
            since, expected = entry
            if data != expected:
                result.mismatched += 1
                continue
            result.completed += 1
            result.latencies.append((since - start, now - since))

    def _expire(self, result: PhaseResult, now: float) -> int:
        stale = [x for x, (since, _) in self._inflight.items() if now - since > TIMEOUT_S]
        for xid in stale:
            del self._inflight[xid]
        result.timed_out += len(stale)
        return len(stale)

    def _wait(self, timeout: float) -> None:
        select.select([self.sock], [], [], max(0.0, timeout))

    # ------------------------------------------------------------------
    def closed(
        self,
        window: int,
        seconds: float = 0.0,
        lookups: int = 0,
        probe: Callable[[], float] = lambda: 0.0,
    ) -> PhaseResult:
        """``window`` lookups in flight for ``seconds`` (or until ``lookups``
        were attempted), then drain.  ``probe`` is sampled into
        :attr:`PhaseResult.marks` at every slice boundary (the SUT's CPU)."""
        result = PhaseResult()
        cpu0, start = time.process_time(), time.perf_counter()
        end = start + seconds if seconds else float("inf")
        budget = lookups or float("inf")
        result.marks.append((0.0, 0, probe()))
        next_mark = start + SLICE_S
        for _ in range(int(min(window, budget))):
            self._send(result, time.perf_counter())
        next_expiry = start + TIMEOUT_S
        while self._inflight:
            self._wait(0.05)
            freed = self._receive(result, start)
            now = time.perf_counter()
            if now >= next_mark and next_mark <= end:
                result.marks.append((now - start, result.completed, probe()))
                next_mark += SLICE_S
            if now >= next_expiry:
                freed += self._expire(result, now)
                next_expiry = now + 0.05
            if now < end:
                for _ in range(freed):
                    if result.attempted < budget:
                        self._send(result, time.perf_counter())
        result.cpu_s = time.process_time() - cpu0
        result.wall_s = time.perf_counter() - start
        return result

    def open(self, rate: float, seconds: float) -> PhaseResult:
        """One lookup every ``1/rate`` s for ``seconds``, then drain."""
        result = PhaseResult()
        total = int(rate * seconds)
        interval = 1.0 / rate
        cpu0, start = time.process_time(), time.perf_counter()
        sent = 0
        next_expiry = start + TIMEOUT_S
        while sent < total or self._inflight:
            now = time.perf_counter()
            while sent < total and start + sent * interval <= now:
                due = start + sent * interval
                result.max_late_s = max(result.max_late_s, now - due)
                self._send(result, due)
                sent += 1
                if sent == total // 2:
                    result.inflight_mid = len(self._inflight)
                if sent == total:
                    result.inflight_end = len(self._inflight)
                now = time.perf_counter()
            if now >= next_expiry:
                self._expire(result, now)
                next_expiry = now + 0.05
            next_due = start + sent * interval if sent < total else now + 0.05
            # Wake early and spin the rest: select() overshoots by ~0.1 ms,
            # which would otherwise be charged to every lookup's latency.
            self._wait(min(next_due - now - _SPIN_S, 0.05))
            self._receive(result, start)
        result.cpu_s = time.process_time() - cpu0
        result.wall_s = time.perf_counter() - start
        return result
