"""Tracer, span recorders and latency histograms for the data path.

The instrumentation contract, tuned for the hot path:

* **Trace ids** are stamped once per inbound datagram, at the edge.  The
  id encodes the sampling decision in its low bit — ``(seq << 1) |
  sampled`` — so every span site decides "record a span?" with a single
  ``trace & 1`` test instead of a modulo or a tracer call.  ``trace == 0``
  means *untraced* (a delivery that never crossed an edge, e.g. an
  engine-internal timer): leaf-stage histograms still record, spans
  never do.
* **Leaf-stage histograms are unconditional**, spans are sampled.  A
  histogram record appends the duration to the stage's pending list;
  the edge folds every recorder's pending durations into their
  histograms (one sorted pass per stage) on every :data:`FOLD_EVERY`-th
  stamp, and any read of a recorder's histograms folds first.  The
  span append (and its timeline-clock read) is only paid by sampled
  datagrams.  The composite engine stages, ``engine.dispatch``
  and the ``automaton.transition`` it encloses (their children are timed
  on their own), are timed on sampled datagrams only, so their
  histograms are a 1-in-N sample.
* **One logical writer per recorder.**  Each component with a recorder —
  the router, each worker engine — only ever records from one thread at
  a time (the simulation is single-threaded; live, the router and every
  worker engine record on the event-loop thread), so the ring-buffer
  and pending-list appends need no lock; only a fold takes one, since
  a reader on another thread folds too.  Metrics/export readers on other
  threads may observe a torn *window* (a span overwritten mid-read) but
  never a torn tuple; the export is a debugging artifact, not a ledger.
* **Two clock domains.**  Span *durations* for CPU stages are measured
  with ``time.perf_counter`` on both runtimes — the simulation's virtual
  clock does not advance inside a callback, so virtual durations of
  compute stages would all be zero (this mirrors the router's existing
  ``classify_seconds``, which has always been wall time even on the
  simulation).  Span *timeline positions* (and wait-stage durations) use
  the tracer's **timeline clock**: the network's virtual clock on the
  simulated runtime — so membership events and spans interleave on one
  timeline — and ``perf_counter`` live.  ``Tracer.use_clock`` is called
  at deploy time by the owning runtime.
"""

from __future__ import annotations

import itertools
import operator
import threading
from bisect import bisect_left
from math import inf, nextafter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_RING_SIZE",
    "DEFAULT_SAMPLE_RATE",
    "FOLD_EVERY",
    "FOLD_MASK",
    "SPAN_PARENTS",
    "STAGES",
    "STAGE_CLASSIFY",
    "STAGE_COMPOSE",
    "STAGE_DISPATCH",
    "STAGE_FANOUT",
    "STAGE_INGRESS",
    "STAGE_PARSE",
    "STAGE_PLACE",
    "STAGE_QUEUE_WAIT",
    "STAGE_TRANSITION",
    "STAGE_TRANSLATE",
    "LatencyHistogram",
    "SpanRecorder",
    "Tracer",
    "export_traces",
]

# -- stages -----------------------------------------------------------------

#: Root span: one per datagram, recorded where the datagram enters the
#: deployment (the router's ``on_datagram``, or the engine's own for
#: upstream replies that land on worker sockets and bypass the router).
STAGE_INGRESS = "ingress"
#: The router's single edge classify (compiled discriminator probe or
#: interpreted trial parses) deciding the correlation key.
STAGE_CLASSIFY = "router.classify"
#: Sticky consistent-hash placement + hand-off of a keyed delivery.
STAGE_PLACE = "router.place"
#: Strict-then-lenient fan-out of an unkeyed/multicast delivery.
STAGE_FANOUT = "router.fanout"
#: Live only: time a posted delivery waited in the worker's job queue
#: (includes the loop-lock wait — it is queueing either way).
STAGE_QUEUE_WAIT = "queue.wait"
#: A worker engine dispatching one classified message into a session.
STAGE_DISPATCH = "engine.dispatch"
#: One automaton step: crossing transitions, firing sends/receives.
STAGE_TRANSITION = "automaton.transition"
#: Translation-logic application building the outgoing message.
STAGE_TRANSLATE = "translate"
#: MDL parse (compiled or interpreted — the codecs are byte-identical).
STAGE_PARSE = "mdl.parse"
#: MDL compose of the translated outgoing message.
STAGE_COMPOSE = "mdl.compose"

#: Every stage, in data-path order (also the table row order).
STAGES: Tuple[str, ...] = (
    STAGE_INGRESS,
    STAGE_CLASSIFY,
    STAGE_PLACE,
    STAGE_FANOUT,
    STAGE_QUEUE_WAIT,
    STAGE_PARSE,
    STAGE_DISPATCH,
    STAGE_TRANSITION,
    STAGE_TRANSLATE,
    STAGE_COMPOSE,
)

#: Static parent relation used to reassemble a trace's spans into a tree.
#: Export walks up this map until it finds a stage actually present in
#: the trace (a parse on the direct-ingress path has no classify span, so
#: it attaches to the ingress root instead).
SPAN_PARENTS: Dict[str, str] = {
    STAGE_CLASSIFY: STAGE_INGRESS,
    STAGE_PLACE: STAGE_INGRESS,
    STAGE_FANOUT: STAGE_INGRESS,
    STAGE_QUEUE_WAIT: STAGE_INGRESS,
    STAGE_DISPATCH: STAGE_INGRESS,
    STAGE_PARSE: STAGE_CLASSIFY,
    STAGE_TRANSITION: STAGE_DISPATCH,
    STAGE_TRANSLATE: STAGE_TRANSITION,
    STAGE_COMPOSE: STAGE_TRANSITION,
}

#: Default span sampling: one traced datagram in 64.  Leaf-stage
#: histograms are unconditional regardless.
DEFAULT_SAMPLE_RATE = 1.0 / 64.0

#: Default spans kept per recorder before the ring wraps.  A span tuple
#: is ~100 bytes, so the default costs ~400 KiB per worker; a full
#: chaos-schedule wave at ``sample=1.0`` fits comfortably (a datagram
#: contributes < 10 spans).
DEFAULT_RING_SIZE = 4096

#: The edge folds every recorder's pending durations into their
#: histograms on every FOLD_EVERY-th stamped datagram: ``trace &
#: FOLD_MASK == 0`` picks those stamps (see :meth:`Tracer.fold`).
FOLD_EVERY = 256
FOLD_MASK = (FOLD_EVERY - 1) << 1


def _bucket_edge(index: int) -> float:
    """The smallest duration (seconds) whose nanosecond count reaches
    ``2**index``: below it :meth:`LatencyHistogram.record` buckets at
    most ``index``.  Found by stepping from ``2**index / 1e9`` so the
    edge agrees with ``int(seconds * 1e9)`` to the last bit."""
    target = float(1 << index)
    edge = target / 1e9
    while edge * 1e9 >= target:
        edge = nextafter(edge, -inf)
    while edge * 1e9 < target:
        edge = nextafter(edge, inf)
    return edge


class LatencyHistogram:
    """Power-of-two-bucket latency histogram (nanosecond resolution).

    Bucket ``k`` holds durations whose nanosecond count has bit length
    ``k`` — i.e. ``[2**(k-1), 2**k)`` ns, with bucket 0 catching zero/
    sub-nanosecond durations (virtual-clock waits of width 0 land
    there).  64 buckets cover everything up to ~292 years, so there is
    no overflow path.  Recording is two int ops and two adds — cheap
    enough to stay on unconditionally.

    A :class:`SpanRecorder` fills its histograms in batches, under its
    fold lock.  A histogram recorded into directly from several threads
    takes no lock: bucket increments may race and very occasionally
    drop a count, which is acceptable for a latency *distribution* (the
    conserved counters live elsewhere).
    """

    BUCKET_COUNT = 64

    #: ``EDGES[k]``: durations below it land in bucket ``k`` or lower.
    EDGES: Tuple[float, ...] = tuple(_bucket_edge(k) for k in range(BUCKET_COUNT - 1))

    __slots__ = ("buckets", "count", "total_seconds")

    def __init__(self) -> None:
        self.buckets = [0] * self.BUCKET_COUNT
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        ns = int(seconds * 1e9)
        index = ns.bit_length() if ns > 0 else 0
        if index >= self.BUCKET_COUNT:
            index = self.BUCKET_COUNT - 1
        self.buckets[index] += 1
        self.count += 1
        self.total_seconds += seconds

    def record_many(self, durations: List[float]) -> None:
        """:meth:`record` each of ``durations``, in one sorted pass.

        The durations are sorted once and each occupied bucket takes
        its share with one bisection against :attr:`EDGES`, so a batch
        costs a sort instead of a bucket computation per duration.
        """
        if not durations:
            return
        ordered = sorted(durations)
        edges = self.EDGES
        buckets = self.buckets
        size = len(ordered)
        index = bisect_left(edges, ordered[0])
        start = 0
        while start < size and index < len(edges):
            end = bisect_left(ordered, edges[index], start)
            buckets[index] += end - start
            start = end
            index += 1
        buckets[-1] += size - start
        self.count += size
        self.total_seconds += sum(durations)

    def percentile(self, q: float) -> float:
        """Upper bucket edge (seconds) at quantile ``q`` in ``[0, 1]``.

        Power-of-two buckets bound the answer within 2× of the true
        value — plenty for "where did the time go" attribution.
        """
        if self.count <= 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, occupancy in enumerate(self.buckets):
            cumulative += occupancy
            if cumulative >= target and occupancy:
                return (1 << index) * 1e-9 if index else 0.0
        return (1 << (self.BUCKET_COUNT - 1)) * 1e-9

    def merge(self, other: "LatencyHistogram") -> None:
        for index in range(self.BUCKET_COUNT):
            self.buckets[index] += other.buckets[index]
        self.count += other.count
        self.total_seconds += other.total_seconds

    # -- windowed reads ------------------------------------------------
    def snapshot(self) -> Tuple[int, float, Tuple[int, ...]]:
        """An immutable point-in-time view: ``(count, total, buckets)``.

        The snapshot is a plain tuple, so holding one per worker per
        stage across collection windows costs no histogram objects and
        no further copies — :meth:`delta` subtracts straight from it.
        """
        return (self.count, self.total_seconds, tuple(self.buckets))

    def delta(
        self, since: Optional[Tuple[int, float, Tuple[int, ...]]] = None
    ) -> "LatencyHistogram":
        """The records made *after* ``since`` as a fresh histogram.

        This is what makes quantiles windowed instead of
        cumulative-since-boot: percentiles of the delta describe only
        the latest collection window, so warmup never pollutes steady
        state.  ``since=None`` returns a copy of the whole history.
        Live threads record without a lock, so a racing snapshot can be
        momentarily inconsistent; negative differences are clamped to
        zero rather than poisoning the window.
        """
        window = LatencyHistogram()
        if since is None:
            window.merge(self)
            return window
        count, total, buckets = since
        window.count = max(0, self.count - count)
        window.total_seconds = max(0.0, self.total_seconds - total)
        mine = self.buckets
        out = window.buckets
        for index in range(self.BUCKET_COUNT):
            diff = mine[index] - buckets[index]
            if diff > 0:
                out[index] = diff
        return window

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self.count}, "
            f"p50={self.percentile(0.5) * 1e6:.1f}us, "
            f"p99={self.percentile(0.99) * 1e6:.1f}us)"
        )


class SpanRecorder:
    """One component's span ring + per-stage histograms.

    Created via :meth:`Tracer.recorder` by the router and by each worker
    engine.  The ring is a preallocated fixed-size list with a
    monotonically increasing head; once full, the oldest span is
    overwritten (``dropped`` counts the overwrites).  The recording
    methods are single-writer (see the module docstring); a stage's
    durations wait in a pending list until :meth:`fold` buckets them.
    """

    __slots__ = (
        "name",
        "_tracer",
        "_size",
        "_ring",
        "_head",
        "_hists",
        "_pending",
        "hold",
        "_fold_lock",
        "seq_high",
    )

    def __init__(self, name: str, tracer: "Tracer") -> None:
        self.name = name
        self._tracer = tracer
        self._size = tracer.ring_size
        self._ring: List[Optional[Tuple[int, str, float, float]]] = (
            [None] * self._size
        )
        self._head = 0
        self._hists: Dict[str, LatencyHistogram] = {
            stage: LatencyHistogram() for stage in STAGES
        }
        #: Durations recorded but not yet bucketed, per stage.
        self._pending: Dict[str, List[float]] = {stage: [] for stage in STAGES}
        #: Per stage, the bound ``append`` of its pending list.  The
        #: hottest engine sites hand an unsampled datagram's duration
        #: straight to it, with no Python frame; sampled datagrams go
        #: through :meth:`record` for their spans.
        self.hold: Dict[str, Callable[[float], None]] = {
            stage: pending.append for stage, pending in self._pending.items()
        }
        self._fold_lock = threading.Lock()
        #: Highest trace sequence number this recorder has seen on a
        #: sampled span — the ring's high-water mark.  Together with
        #: :attr:`dropped` it makes ring-sizing regressions visible on
        #: the metrics rows: a worker whose ``seq_high`` races ahead
        #: while ``dropped`` climbs needs a bigger ring.
        self.seq_high = 0

    # -- hot-path recording -------------------------------------------
    def record(self, trace: int, stage: str, started: float) -> float:
        """Record a CPU-stage duration from ``started`` to *now*.

        ``started`` is a ``perf_counter`` reading; the return value is
        this call's own reading, so consecutive stages chain with one
        clock read per boundary::

            p = perf_counter()
            ...translate...
            p = recorder.record(trace, STAGE_TRANSLATE, p)
            ...compose...
            recorder.record(trace, STAGE_COMPOSE, p)
        """
        ended = perf_counter()
        # This method runs per stage per datagram, and every bytecode of
        # it is measurable against a microsecond-scale parse: the
        # duration only waits here until the next fold buckets it.
        self._pending[stage].append(ended - started)
        if trace & 1:
            self._push((trace >> 1, stage, self._tracer.clock(), ended - started))
        return ended

    def record_span(self, trace: int, stage: str, duration: float) -> None:
        """Record a stage whose duration the caller already measured."""
        self._pending[stage].append(duration)
        if trace & 1:
            self._push((trace >> 1, stage, self._tracer.clock(), duration))

    def record_wait(self, trace: int, stage: str, t0: float, t1: float) -> None:
        """Record a wait stage measured on the tracer's timeline clock.

        ``t0``/``t1`` are *timeline* readings (virtual seconds on the
        simulation, ``perf_counter`` live), so queue waits are in the
        same domain as the span positions.
        """
        duration = t1 - t0
        self._pending[stage].append(duration)
        if trace & 1:
            self._push((trace >> 1, stage, t1, duration))

    def fold(self) -> None:
        """Bucket every stage's pending durations into its histogram.

        Under the fold lock, so the edge folding on the loop thread and
        a reader folding on another never bucket one duration twice.  A
        record may append while a fold runs: only the durations copied
        are removed, so a late one waits for the next fold.
        """
        with self._fold_lock:
            for stage, pending in self._pending.items():
                if pending:
                    batch = pending[:]
                    del pending[: len(batch)]
                    self._hists[stage].record_many(batch)

    def _push(self, span: Tuple[int, str, float, float]) -> None:
        head = self._head
        self._ring[head % self._size] = span
        self._head = head + 1
        if span[0] > self.seq_high:
            self.seq_high = span[0]

    # -- export-side reads --------------------------------------------
    @property
    def hists(self) -> Dict[str, LatencyHistogram]:
        """Per-stage histograms, every recorded duration bucketed."""
        self.fold()
        return self._hists

    @property
    def pushed(self) -> int:
        """Total spans ever pushed (retained + dropped): the conserved sum."""
        return self._head

    @property
    def dropped(self) -> int:
        """Spans overwritten because the ring wrapped."""
        return max(0, self._head - self._size)

    def spans(self) -> List[Tuple[int, str, float, float]]:
        """The retained spans, oldest first."""
        head = self._head
        if head <= self._size:
            return [span for span in self._ring[:head] if span is not None]
        start = head % self._size
        window = self._ring[start:] + self._ring[:start]
        return [span for span in window if span is not None]

    def clear(self) -> None:
        self._ring = [None] * self._size
        self._head = 0


class Tracer:
    """Stamps datagrams, hands out recorders, owns the timeline clock.

    One tracer per runtime deployment.  ``sample`` is the fraction of
    datagrams whose spans are captured (``1.0`` → every datagram,
    ``0.0`` → spans off, histograms still on); internally it becomes a
    1-in-N stride, a precomputed cycle of sampling bits.

    ``stamp()`` stamps one inbound datagram and returns its trace id,
    ``(seq << 1) | sampled`` for ``seq`` = 1, 2, …: the low bit carries
    the sampling decision (``trace & 1`` → record spans).  It is the
    ``__next__`` of a chain of C iterators, so a stamp runs no Python
    bytecode and is atomic under the GIL: live receiver threads stamp
    without a lock.
    """

    def __init__(
        self,
        sample: float = DEFAULT_SAMPLE_RATE,
        ring_size: int = DEFAULT_RING_SIZE,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"trace sample must be in [0, 1], got {sample}")
        if ring_size <= 0:
            raise ValueError(f"trace ring size must be positive, got {ring_size}")
        self.sample = sample
        #: Stride: every Nth stamped datagram is sampled (0 = never).
        every = 0 if sample <= 0.0 else max(1, round(1.0 / sample))
        self.ring_size = ring_size
        sampled = (
            itertools.cycle((0,) * (every - 1) + (1,)) if every else itertools.repeat(0)
        )
        shifted = map(operator.lshift, itertools.count(1), itertools.repeat(1))
        self.stamp: Callable[[], int] = map(operator.or_, shifted, sampled).__next__
        #: Timeline clock (span positions, wait durations): perf_counter
        #: until a runtime deploy rebinds it via :meth:`use_clock`.
        self.clock: Callable[[], float] = perf_counter
        self.clock_domain = "perf_counter"
        self._recorders: Dict[str, SpanRecorder] = {}
        self._recorder_lock = threading.Lock()

    def use_clock(self, clock: Callable[[], float], domain: str) -> None:
        """Bind the timeline clock (called by the runtime at deploy)."""
        self.clock = clock
        self.clock_domain = domain

    def fold(self) -> None:
        """Bucket every recorder's pending durations.

        The edges call it on every :data:`FOLD_EVERY`-th stamp (``not
        trace & FOLD_MASK``), which bounds every pending list whichever
        worker the datagrams reach.
        """
        for recorder in self.recorders():
            recorder.fold()

    def recorder(self, name: str) -> SpanRecorder:
        """The named component's recorder (created on first request)."""
        with self._recorder_lock:
            recorder = self._recorders.get(name)
            if recorder is None:
                recorder = SpanRecorder(name, self)
                self._recorders[name] = recorder
            return recorder

    def find(self, name: str) -> Optional[SpanRecorder]:
        """The named recorder if it already exists (never creates one).

        Metrics readers use this: a worker that has not recorded yet has
        no recorder, and materialising one per metrics pass would leak
        empty rings for retired names.
        """
        with self._recorder_lock:
            return self._recorders.get(name)

    def recorders(self) -> List[SpanRecorder]:
        with self._recorder_lock:
            return list(self._recorders.values())

    def stage_histograms(self) -> Dict[str, LatencyHistogram]:
        """Per-stage histograms merged across every recorder."""
        merged = {stage: LatencyHistogram() for stage in STAGES}
        for recorder in self.recorders():
            for stage, hist in recorder.hists.items():
                merged[stage].merge(hist)
        return merged

    @property
    def dropped_spans(self) -> int:
        return sum(recorder.dropped for recorder in self.recorders())


def _attach(nodes: List[dict], present: Dict[str, List[dict]]) -> List[dict]:
    """Attach ``nodes`` (sorted by timeline position) into a span tree.

    Each non-ingress node walks :data:`SPAN_PARENTS` up from its stage
    until it finds a stage present in the trace.  Among that stage's
    spans it prefers one recorded by the *same* component (a worker's
    transition belongs to that worker's dispatch, not another shard's
    fan-out dispatch), then the one closest on the timeline.  Returns
    the root nodes.
    """
    roots: List[dict] = []
    for node in nodes:
        stage = node["stage"]
        if stage == STAGE_INGRESS:
            roots.append(node)
            continue
        parent_stage = SPAN_PARENTS.get(stage, STAGE_INGRESS)
        while parent_stage != STAGE_INGRESS and parent_stage not in present:
            parent_stage = SPAN_PARENTS.get(parent_stage, STAGE_INGRESS)
        candidates = present.get(parent_stage)
        if not candidates:
            roots.append(node)  # orphan: no ingress recorded for the trace
            continue
        same = [c for c in candidates if c["recorder"] == node["recorder"]]
        pool = same or candidates
        # Timestamps mark the *end* of a stage, so a parent usually ends
        # after its children: pick the earliest parent ending at/after
        # this node, falling back to the last one overall.
        parent = pool[-1]
        for candidate in pool:
            if candidate["at"] >= node["at"]:
                parent = candidate
                break
        parent["children"].append(node)
    return roots


def export_traces(tracer: Tracer) -> dict:
    """Reassemble every recorder's spans into one tree per datagram.

    Returns a JSON-ready dict::

        {"clock": "virtual" | "perf_counter",
         "sample": 0.015625,
         "dropped_spans": 0,
         "traces": [{"trace": 17, "complete": true,
                     "spans": [{"stage": "ingress", "at": ..,
                                "duration": .., "recorder": "..",
                                "children": [...]}]}]}

    A trace is **complete** when it has exactly one root and that root
    is its ingress span — i.e. no span was orphaned by ring overwrite
    or a missing edge stamp.
    """
    by_trace: Dict[int, List[dict]] = {}
    for recorder in tracer.recorders():
        for seq, stage, at, duration in recorder.spans():
            by_trace.setdefault(seq, []).append(
                {
                    "stage": stage,
                    "at": at,
                    "duration": duration,
                    "recorder": recorder.name,
                    "children": [],
                }
            )
    traces = []
    for seq in sorted(by_trace):
        nodes = sorted(by_trace[seq], key=lambda node: node["at"])
        present: Dict[str, List[dict]] = {}
        for node in nodes:
            present.setdefault(node["stage"], []).append(node)
        roots = _attach(nodes, present)
        complete = len(roots) == 1 and roots[0]["stage"] == STAGE_INGRESS
        traces.append({"trace": seq, "complete": complete, "spans": roots})
    return {
        "clock": tracer.clock_domain,
        "sample": tracer.sample,
        "dropped_spans": tracer.dropped_spans,
        "traces": traces,
    }
