"""Event journal, flight recorder and the Prometheus exposition.

Three artifacts on one timeline:

* :class:`EventJournal` — an append-only, bounded, structured event log
  (scale events, drain begin/end, health actions, fault-injection
  windows, session-loss incidents).  Events carry the same timeline
  positions as spans (virtual seconds simulated, ``perf_counter``
  live) and cross-link to traces by trace id, so "the detector replaced
  w2 at t=1.84" and "datagram 17's dispatch span at t=1.83" line up
  without timestamp archaeology.
* :class:`FlightRecorder` — the postmortem dumper: on every detector
  quarantine/replace (and on demand) it snapshots the last K collector
  windows, the journal, and the sampled span trees into one JSON-ready
  bundle.  In ``deterministic`` mode every ``perf_counter``-derived
  field (span durations, windowed quantile values, measured seconds) is
  stripped so a seeded simulated run dumps **byte-stable** bundles —
  the PR 7 span-timeline convention extended to whole postmortems.
* :func:`render_prometheus` + :class:`MetricsEndpoint` — the live
  ``/metrics`` exposition: Prometheus text format (v0.0.4) rendered
  from a ``ShardMetrics`` snapshot plus the tracer's stage histograms,
  served as an HTTP response over the socket engine's existing TCP
  reply channel (the same path the bridges' HTTP legs already use), and
  equally scrapeable on the simulated network for tests.  No counter or
  gauge is named here: the families come from the declarations in
  :mod:`repro.runtime.metrics`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..network.addressing import Endpoint
from ..network.engine import NetworkEngine, NetworkNode
from .tracing import LatencyHistogram, Tracer, export_traces

__all__ = [
    "DEFAULT_JOURNAL_CAPACITY",
    "EventJournal",
    "FlightRecorder",
    "MetricsEndpoint",
    "render_prometheus",
]

#: Events retained by a journal before the oldest are discarded.  A heal
#: run emits tens of events; the bound only matters for runaway loops.
DEFAULT_JOURNAL_CAPACITY = 4096

#: Keys whose values derive from ``time.perf_counter`` and are therefore
#: nondeterministic even on the seeded simulation.  The flight recorder
#: strips them (recursively) in deterministic mode; everything left —
#: timeline positions, counts, counter deltas, virtual-clock backlogs —
#: is a pure function of the seed.
_NONDETERMINISTIC_KEYS = frozenset(
    {
        "duration",
        "p50_us",
        "p95_us",
        "p99_us",
        "mean_us",
        "total_seconds",
        "classify_seconds",
        "charged_routing_seconds",
    }
)


def _scrub(value: Any) -> Any:
    """Drop nondeterministic keys recursively (dicts/lists only)."""
    if isinstance(value, dict):
        return {
            key: _scrub(item)
            for key, item in value.items()
            if key not in _NONDETERMINISTIC_KEYS
        }
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


class EventJournal:
    """Bounded structured event log on the deployment timeline.

    Thread-safe: the controllers on the live loop, fault injectors and
    the test driver's thread all append concurrently.  ``clock`` supplies the
    default timeline position; callers that already know *when* (a
    ``ScaleEvent.at``, a ``HealthAction.at``) pass ``at`` explicitly so
    journal entries and the source records agree exactly.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = DEFAULT_JOURNAL_CAPACITY,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"journal capacity must be positive, got {capacity}")
        self.clock = clock
        self._events: Deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Events appended over the journal's lifetime (>= retained).
        self.appended = 0

    def append(
        self,
        kind: str,
        at: Optional[float] = None,
        trace: int = 0,
        **fields: Any,
    ) -> dict:
        """Record one event; returns the entry as stored.

        ``trace`` cross-links the event to a datagram's span tree (0 =
        no associated trace); extra keyword fields ride along verbatim
        and must be JSON-ready.
        """
        if at is None:
            at = self.clock() if self.clock is not None else 0.0
        event: dict = {"at": at, "kind": kind}
        if trace:
            event["trace"] = trace >> 1 if trace & 1 else trace
        event.update(fields)
        with self._lock:
            self._events.append(event)
            self.appended += 1
        return event

    def events(
        self, since: Optional[float] = None, kind: Optional[str] = None
    ) -> List[dict]:
        """The retained events, oldest first, optionally filtered."""
        with self._lock:
            events = list(self._events)
        if since is not None:
            events = [event for event in events if event["at"] >= since]
        if kind is not None:
            events = [event for event in events if event["kind"] == kind]
        return events

    @property
    def dropped(self) -> int:
        """Events discarded because the journal was full."""
        with self._lock:
            return max(0, self.appended - len(self._events))


class FlightRecorder:
    """Dumps postmortem bundles: windows + journal + span trees.

    One recorder per deployment, fed by the same collector/journal/
    tracer the health controller reads.  :meth:`capture` is cheap
    enough to call on every detector action — it copies references into
    plain dicts/lists, no I/O — and the harness (or CLI) decides which
    bundles to persist as ``POSTMORTEM_*.json``.

    ``deterministic=True`` (the simulated heal harness) strips every
    wall-clock-derived field so the bundle is a pure function of the
    seed; see :data:`_NONDETERMINISTIC_KEYS`.
    """

    def __init__(
        self,
        collector: Any = None,
        journal: Optional[EventJournal] = None,
        tracer: Optional[Tracer] = None,
        window_count: int = 16,
        max_traces: int = 8,
        deterministic: bool = False,
    ) -> None:
        self.collector = collector
        self.journal = journal
        self.tracer = tracer
        self.window_count = window_count
        self.max_traces = max_traces
        self.deterministic = deterministic
        self.bundles: List[dict] = []

    def capture(
        self,
        reason: str,
        detail: Optional[dict] = None,
        at: Optional[float] = None,
    ) -> dict:
        """Snapshot the deployment's recent past into one bundle."""
        if at is None:
            if self.journal is not None and self.journal.clock is not None:
                at = self.journal.clock()
            else:
                latest = (
                    self.collector.latest() if self.collector is not None else None
                )
                at = latest["at"] if latest else 0.0
        traces: List[dict] = []
        clock = "unbound"
        if self.tracer is not None:
            export = export_traces(self.tracer)
            clock = export["clock"]
            traces = [
                trace for trace in export["traces"] if trace["complete"]
            ][: self.max_traces]
        bundle: dict = {
            "reason": reason,
            "detail": detail or {},
            "at": at,
            "clock": clock,
            "deterministic": self.deterministic,
            "windows": (
                self.collector.windows(last=self.window_count)
                if self.collector is not None
                else []
            ),
            "events": self.journal.events() if self.journal is not None else [],
            "traces": traces,
        }
        if self.deterministic:
            bundle = _scrub(bundle)
        self.bundles.append(bundle)
        return bundle


# -- Prometheus text exposition ---------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sample(
    lines: List[str], name: str, labels: Optional[Dict[str, str]], value: Any
) -> None:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(str(val))}"' for key, val in labels.items()
        )
        lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
    else:
        lines.append(f"{name} {_format_value(value)}")


def render_prometheus(
    snapshot: Any,
    histograms: Optional[Dict[str, LatencyHistogram]] = None,
    namespace: str = "repro",
) -> str:
    """Render one ``ShardMetrics`` snapshot as Prometheus text (v0.0.4).

    Every metric gets a ``# HELP``/``# TYPE`` pair; worker rows are
    labelled by worker name, histogram series by stage; the rest come
    from ``snapshot.families()``.  Counters are the deployment's
    cumulative counters, so consecutive scrapes are monotone (a reused
    worker label reads as a counter reset, which Prometheus handles) —
    the lint test in ``tests/test_telemetry.py`` checks the grammar and
    the monotonicity.
    """
    lines: List[str] = []

    def header(suffix: str, mtype: str, help_text: str) -> str:
        name = f"{namespace}_{suffix}"
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        return name

    name = header("workers", "gauge", "Workers serving the ring (not draining).")
    _sample(lines, name, None, snapshot.active_workers)
    for suffix, mtype, help_text, samples in snapshot.families():
        name = header(suffix, mtype, help_text)
        for labels, value in samples:
            _sample(lines, name, labels, value)

    if histograms:
        name = header(
            "stage_latency_seconds",
            "histogram",
            "Per-stage datagram latency (power-of-two buckets).",
        )
        for stage in sorted(histograms):
            hist = histograms[stage]
            if hist.count <= 0:
                continue
            cumulative = 0
            for index, occupancy in enumerate(hist.buckets):
                if occupancy <= 0:
                    continue
                cumulative += occupancy
                edge = (1 << index) * 1e-9
                _sample(
                    lines,
                    f"{name}_bucket",
                    {"stage": stage, "le": f"{edge:.10g}"},
                    cumulative,
                )
            _sample(lines, f"{name}_bucket", {"stage": stage, "le": "+Inf"}, hist.count)
            _sample(lines, f"{name}_sum", {"stage": stage}, hist.total_seconds)
            _sample(lines, f"{name}_count", {"stage": stage}, hist.count)
    return "\n".join(lines) + "\n"


class MetricsEndpoint(NetworkNode):
    """A `/metrics` scrape target on the deployment's own network.

    Live, the node owns one TCP endpoint on the socket engine: a
    scraper connects, sends ``GET /metrics`` (anything, really — the
    node answers every request with the full exposition), half-closes,
    and the response rides the engine's TCP reply channel — exactly the
    path the bridges' HTTP legs already exercise.  On the simulated
    network the same node answers datagram "scrapes", so the format is
    testable without sockets.

    Rendering runs on the engine's loop thread and only *reads*
    (``runtime.metrics()`` snapshots, histogram merges copy), so a scrape
    costs the data path one render, never a wait.
    """

    def __init__(
        self,
        runtime: Any,
        endpoint: Endpoint,
        namespace: str = "repro",
        name: Optional[str] = None,
    ) -> None:
        self.runtime = runtime
        self.endpoint = endpoint
        self.namespace = namespace
        self.name = name or f"metrics:{endpoint.port}"
        self.scrapes = 0
        self.errors: List[BaseException] = []

    def unicast_endpoints(self) -> List[Endpoint]:
        return [self.endpoint]

    def multicast_groups(self) -> List[Endpoint]:
        return []

    def render(self) -> str:
        """The exposition body for a scrape happening now."""
        tracer = getattr(self.runtime, "tracer", None)
        histograms = tracer.stage_histograms() if tracer is not None else None
        return render_prometheus(
            self.runtime.metrics(), histograms, namespace=self.namespace
        )

    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        self.scrapes += 1
        try:
            body = self.render().encode("utf-8")
            status = b"200 OK"
        except Exception as exc:  # noqa: BLE001 - a scrape must answer
            self.errors.append(exc)
            body = f"scrape failed: {exc}\n".encode("utf-8")
            status = b"500 Internal Server Error"
        if data[:4] in (b"GET ", b"HEAD"):
            payload = (
                b"HTTP/1.0 " + status + b"\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
        else:
            payload = body
        engine.send(payload, source=destination, destination=source)
