"""In-memory span recorder wrapped around the deployed objects' public seams.

The benchmark that *defines* the layer budget records spans from its own
files, around the calls into each layer; spans inside ``repro`` are a later
change.  :func:`instrument` replaces bound methods on the *instances* the
SUT deployed — nothing in ``src/`` is edited or patched at class level —
with wrappers that record ``(name, start, end, parent, session)``.

Everything traced runs on the asyncio substrate's single loop thread, so
the enclosing span is simply the top of one stack.  A span's *self time*
is its duration minus the part its child spans cover; the recorder
aggregates calls and self time per name online (bounded memory however
long the run) and keeps the first :data:`DUMP_SPANS` raw spans for
``trace_<workload>.json``.

Session ids are the lookup's 16-bit SLP ``XID``.  A root span (a datagram
entering from a socket, a job coming off a worker queue) names the session
and every span beneath it inherits it.  Roots learn it

* from the XID bytes, for a request arriving at the router;
* across the router→worker queue, from the identity of the parsed message,
  which also yields ``runtime.handoff_us`` (end of ``classify`` → start of
  ``dispatch``);
* across a UDP socket, from ``(source port, unicast destination port,
  bytes)`` noted at ``network.send``.

Nothing visible from outside ``src/`` ties the two ends of a TCP connection
together, so the spans of case 1's HTTP leg (the device receiving the GET,
the worker receiving the 200) have session 0.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

#: Raw spans kept for the trace dump (the aggregates cover every span).
DUMP_SPANS = 20000
#: Wire tags kept before the oldest half is forgotten: multicast copies and
#: dropped echoes are never claimed, so the table has to be bounded.
_WIRE_TAGS = 4096
#: Byte offset of the 16-bit XID in an SLPv2 header.
SLP_XID_OFFSET = 10


class SpanRecorder:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.raw: List[tuple] = []
        #: Session of the spans now open (0: unknown).
        self.session = 0
        #: One ``[span index, nanoseconds covered by children]`` per open span.
        self._open: List[list] = []
        self._count = 0
        self.handoff_ns = 0
        self.handoffs = 0

    def in_span(self) -> bool:
        return bool(self._open)

    def wrap(
        self, name: str, fn: Callable, session_of: Optional[Callable[..., int]] = None
    ) -> Callable:
        """``fn`` recorded as span ``name``.

        ``session_of(*args)`` names the session when the span is a root
        (no enclosing span), i.e. when a datagram enters from a socket.
        """
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)
        open_spans = self._open

        def traced(*args, **kwargs):
            index = self._count
            self._count = index + 1
            parent = open_spans[-1][0] if open_spans else -1
            if session_of is not None and parent < 0:
                self.session = session_of(*args)
            frame = [index, 0]
            open_spans.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_spans.pop()
                duration = end - start
                if open_spans:
                    open_spans[-1][1] += duration
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[1]
                if index < DUMP_SPANS:
                    self.raw.append((index, name, start, end, parent, self.session))
                if parent < 0:
                    self.session = 0

        return traced

    def aggregates(self) -> dict:
        return {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "handoff_ns": self.handoff_ns,
            "handoffs": self.handoffs,
        }

    def dump(self, path: str) -> None:
        spans = [
            {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p, "session": x}
            for i, n, s, e, p, x in sorted(self.raw)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"aggregates": self.aggregates(), "spans": spans}, handle)


def _slp_xid(data: bytes) -> int:
    if len(data) >= SLP_XID_OFFSET + 2:
        return int.from_bytes(data[SLP_XID_OFFSET : SLP_XID_OFFSET + 2], "big")
    return 0


def instrument(network, router, translation, service) -> SpanRecorder:
    """Wrap the deployment's public seams; returns the recorder."""
    recorder = SpanRecorder()
    wire: Dict[tuple, int] = {}
    #: id(parsed message) -> (classify end ns, session), until dispatched.
    handed: Dict[int, tuple] = {}
    codecs: set = set()

    def wire_session(engine, data, source, destination) -> int:
        return wire.get((source.port, destination.port, data)) or wire.get(
            (source.port, 0, data), 0
        )

    def router_session(engine, data, source, destination) -> int:
        # A worker's multicast echoing back, else a client's SLP request.
        return wire_session(engine, data, source, destination) or _slp_xid(data)

    send = recorder.wrap("network.send", network.send)

    def traced_send(data, source, destination, delay=0.0):
        if len(wire) >= _WIRE_TAGS:
            for stale in list(wire)[: _WIRE_TAGS // 2]:
                del wire[stale]
        port = 0 if destination.is_multicast else destination.port
        wire[(source.port, port, data)] = recorder.session
        return send(data, source=source, destination=destination, delay=delay)

    network.send = traced_send
    router.on_datagram = recorder.wrap(
        "runtime.router.on_datagram", router.on_datagram, session_of=router_session
    )
    service.on_datagram = recorder.wrap(
        "protocols.service", service.on_datagram, session_of=wire_session
    )
    translation.apply = recorder.wrap("core.translation.apply", translation.apply)

    def trace_worker(worker) -> None:
        worker.on_datagram = recorder.wrap(
            "runtime.worker.on_datagram", worker.on_datagram, session_of=wire_session
        )
        classify = recorder.wrap("core.engine.classify", worker.classify)
        dispatch = recorder.wrap("core.engine.dispatch", worker.dispatch)

        def traced_classify(*args, **kwargs):
            result = classify(*args, **kwargs)
            if result is not None:
                handed[id(result[1])] = (perf_counter_ns(), recorder.session)
            return result

        def traced_dispatch(engine, automaton_name, message, *args, **kwargs):
            noted = handed.pop(id(message), None)
            if noted is None or recorder.in_span():
                return dispatch(engine, automaton_name, message, *args, **kwargs)
            # Came off the worker's queue: the router classified it earlier.
            recorder.handoff_ns += perf_counter_ns() - noted[0]
            recorder.handoffs += 1
            recorder.session = noted[1]
            return dispatch(engine, automaton_name, message, *args, **kwargs)

        worker.classify = traced_classify
        worker.dispatch = traced_dispatch
        for automaton_name in worker.merged.automata:
            # Compiled codecs are cached on the spec and shared by every
            # worker: wrap each object once.
            binding = worker.binding(automaton_name)
            if id(binding.parser) not in codecs:
                codecs.add(id(binding.parser))
                binding.parser.parse = recorder.wrap("core.mdl.parse", binding.parser.parse)
            if id(binding.composer) not in codecs:
                codecs.add(id(binding.composer))
                binding.composer.compose = recorder.wrap(
                    "core.mdl.compose", binding.composer.compose
                )

    for worker in router.workers:
        trace_worker(worker)
    return recorder
