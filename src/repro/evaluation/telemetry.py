"""Telemetry table: collector-overhead gate and the ``/metrics`` lint.

The continuous telemetry pipeline (:mod:`repro.obs.timeseries` /
:mod:`repro.obs.recorder`) rides the data path of both runtimes, so it
carries the same burden of proof the tracing layer did in PR 7: numbers,
not assurances.  ``--table telemetry`` answers two questions:

1. **What does always-on collection cost?**  The same end-to-end workload
   runs bare and with a :class:`~repro.obs.timeseries.MetricsCollector`
   attached at a brisk cadence, interleaved in pairs with GC disabled and
   each side taking its minimum — the noise control
   :func:`~repro.evaluation.micro.run_trace_overhead` established.  The
   gate is the same < 5 % the tracing layer promises, on **both**
   runtimes (the live rows degrade gracefully when loopback sockets
   cannot be bound).

2. **Is the exposition actually Prometheus?**  A live deployment gets a
   :class:`~repro.obs.recorder.MetricsEndpoint` attached, is scraped
   twice over a real TCP connection, and both bodies must pass
   :func:`lint_prometheus` (text-format grammar, ``# HELP``/``# TYPE``
   pairing) with every counter monotone between the scrapes.

The linter lives here — not in the tests — so the CLI row and the
satellite lint test share one grammar.
"""

from __future__ import annotations

import gc
import re
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..network.addressing import Endpoint, Transport
from ..network.sockets import loopback_available
from ..obs.recorder import MetricsEndpoint
from ..obs.timeseries import (
    DEFAULT_WINDOW_SECONDS,
    LiveMetricsCollector,
    MetricsCollector,
)
from .workloads import live_sharded_scenario, sharded_scenario

__all__ = [
    "COLLECTOR_OVERHEAD_THRESHOLD_PCT",
    "TELEMETRY_METRICS_PORT",
    "CollectorOverheadResult",
    "ScrapeCheck",
    "TelemetryResult",
    "counter_samples",
    "lint_prometheus",
    "run_metrics_scrape",
    "run_telemetry",
]

#: The telemetry contract: always-on collection may cost at most this much
#: end-to-end throughput (the same ceiling as the tracing layer's gate).
COLLECTOR_OVERHEAD_THRESHOLD_PCT = 5.0

#: Loopback TCP port the scrape check binds its ``/metrics`` endpoint on
#: (outside the live workload's client/bridge/service port ranges).
TELEMETRY_METRICS_PORT = 26900

#: Collection cadence of the *live* overhead run.  Much denser than the
#: production default (0.25 s) because the live wave finishes in well
#: under a window at the default — a dense cadence both exercises the
#: collector and gates it harder than production ever would.  The
#: simulated run gates at the shipped default instead: its window elapses
#: in virtual time while collection costs real time, so a dense virtual
#: cadence would charge hundreds of collections against milliseconds of
#: wall clock — a ratio no deployment exhibits.
_OVERHEAD_WINDOW_SECONDS = 0.02

_LIVE_HOST = "127.0.0.1"


# -- Prometheus text-format lint --------------------------------------------

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_LABELS = r"\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\.)*\")*\}"
_VALUE = r"[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf|NaN)"
_SAMPLE_LINE = re.compile(rf"^({_NAME})({_LABELS})? ({_VALUE})$")
_HELP_LINE = re.compile(rf"^# HELP ({_NAME}) \S.*$")
_TYPE_LINE = re.compile(
    rf"^# TYPE ({_NAME}) (counter|gauge|histogram|summary|untyped)$"
)

#: Sample-name suffixes a histogram family may emit besides its base name.
_HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _family_of(name: str, typed: Dict[str, str]) -> Optional[str]:
    """The declared family a sample name belongs to, if any."""
    if name in typed:
        return name
    for suffix in _HISTOGRAM_SUFFIXES:
        base = name[: -len(suffix)] if name.endswith(suffix) else None
        if base and typed.get(base) == "histogram":
            return base
    return None


def lint_prometheus(text: str) -> List[str]:
    """Check one exposition body against the text-format grammar.

    Returns a (possibly empty) list of human-readable problems: malformed
    sample/comment lines, ``# TYPE`` without a preceding ``# HELP``,
    samples of an undeclared family, or a body that does not end with a
    newline.  An empty list is the "lint clean" the acceptance criterion
    asks for.
    """
    problems: List[str] = []
    if not text.endswith("\n"):
        problems.append("exposition body must end with a newline")
    helped: set = set()
    typed: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            match = _HELP_LINE.match(line)
            if match is None:
                problems.append(f"line {number}: malformed HELP: {line!r}")
            else:
                helped.add(match.group(1))
            continue
        if line.startswith("# TYPE "):
            match = _TYPE_LINE.match(line)
            if match is None:
                problems.append(f"line {number}: malformed TYPE: {line!r}")
                continue
            name = match.group(1)
            if name not in helped:
                problems.append(
                    f"line {number}: TYPE {name} without a preceding HELP"
                )
            typed[name] = match.group(2)
            continue
        if line.startswith("#"):
            problems.append(f"line {number}: unknown comment: {line!r}")
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append(f"line {number}: malformed sample: {line!r}")
            continue
        if _family_of(match.group(1), typed) is None:
            problems.append(
                f"line {number}: sample {match.group(1)} has no # TYPE"
            )
    return problems


def counter_samples(text: str) -> Dict[str, float]:
    """Every counter-family sample of one exposition, keyed by series.

    The key is the full ``name{labels}`` series identity, so two scrapes
    can be compared series-by-series — the monotonicity check counters
    must pass between consecutive scrapes of one deployment.
    """
    typed: Dict[str, str] = {}
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        match = _TYPE_LINE.match(line)
        if match is not None:
            typed[match.group(1)] = match.group(2)
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            continue
        if typed.get(match.group(1)) == "counter":
            samples[match.group(1) + (match.group(2) or "")] = float(match.group(3))
    return samples


# -- collector overhead ------------------------------------------------------


@dataclass
class CollectorOverheadResult:
    """Bare-vs-collected timing of one end-to-end workload."""

    runtime_kind: str
    clients: int
    workers: int
    pairs: int
    attempts: int
    bare_ms: float
    collected_ms: float
    #: Windows the instrumented run's collector actually closed (the gate
    #: is vacuous if the collector never sampled).
    windows: int = 0

    @property
    def overhead_pct(self) -> float:
        if self.bare_ms <= 0.0:
            return 0.0
        return (self.collected_ms / self.bare_ms - 1.0) * 100.0

    @property
    def ok(self) -> bool:
        return self.windows > 0 and self.overhead_pct < COLLECTOR_OVERHEAD_THRESHOLD_PCT

    def as_row(self) -> Dict[str, object]:
        return {
            "runtime": self.runtime_kind,
            "clients": self.clients,
            "workers": self.workers,
            "bare_ms": round(self.bare_ms, 3),
            "collected_ms": round(self.collected_ms, 3),
            "overhead_pct": round(self.overhead_pct, 2),
            "threshold_pct": COLLECTOR_OVERHEAD_THRESHOLD_PCT,
            "windows": self.windows,
            "ok": self.ok,
        }


def _timed_simulated(
    case: int, clients: int, workers: int, instrument: bool
) -> Tuple[float, int]:
    """Wall-clock seconds for one sharded sim run (optionally collected)."""
    scenario = sharded_scenario(case, clients=clients, workers=workers)
    collector: Optional[MetricsCollector] = None
    if instrument:
        collector = MetricsCollector(
            scenario.bridge, window=DEFAULT_WINDOW_SECONDS
        )
        collector.start(scenario.network)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = scenario.run(timeout=120.0)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
        if collector is not None:
            collector.stop()
    if not result.all_found:
        raise RuntimeError("telemetry overhead workload lost a lookup")
    return elapsed, collector.samples if collector is not None else 0


def _timed_live(
    case: int,
    clients: int,
    workers: int,
    instrument: bool,
    timeout: float = 30.0,
) -> Tuple[float, int]:
    """Wall-clock seconds for one live run (optionally collected).

    Drives the wave itself instead of ``LiveScenario.run`` so the
    collector stops **before** the teardown — a collect racing
    ``undeploy`` would record a spurious error, not overhead.
    """
    scenario = live_sharded_scenario(case, clients=clients, workers=workers)
    network, runtime = scenario.network, scenario.runtime
    collector: Optional[LiveMetricsCollector] = None
    done = False
    gc.collect()
    gc.disable()
    try:
        if instrument:
            collector = LiveMetricsCollector(
                runtime, window=_OVERHEAD_WINDOW_SECONDS
            )
            collector.start()
        start = time.perf_counter()
        started = [
            (client, client.start_lookup(network, scenario.target))
            for client in scenario.clients
        ]
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if runtime.worker_errors:
                raise runtime.worker_errors[0]
            if all(
                client.lookup_result(key) is not None for client, key in started
            ):
                done = True
                break
            time.sleep(0.002)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
        if collector is not None:
            collector.stop()
        runtime.undeploy()
        network.close()
    if not done:
        raise RuntimeError("telemetry live workload lost a lookup")
    if collector is not None and collector.errors:
        raise collector.errors[0]
    return elapsed, collector.samples if collector is not None else 0


def _measure_overhead(
    runtime_kind: str,
    timed: Callable[[bool], Tuple[float, int]],
    clients: int,
    workers: int,
    pairs: int,
    attempts: int,
) -> CollectorOverheadResult:
    """The interleaved min-of-pairs protocol around one timed workload.

    Same reasoning as the trace-overhead gate: bare and collected runs
    alternate (so drift hits both sides), each side reports its minimum
    (the minimum of a wall-clock sample converges on the true cost), and
    up to ``attempts`` rounds keep the best — retrying is sound for a
    *less-than* assertion.
    """
    timed(False)  # warm both paths untimed
    timed(True)
    best: Optional[CollectorOverheadResult] = None
    for _ in range(attempts):
        bare: List[float] = []
        collected: List[float] = []
        windows = 0
        for _ in range(pairs):
            bare.append(timed(False)[0])
            elapsed, samples = timed(True)
            collected.append(elapsed)
            windows = max(windows, samples)
        candidate = CollectorOverheadResult(
            runtime_kind=runtime_kind,
            clients=clients,
            workers=workers,
            pairs=pairs,
            attempts=attempts,
            bare_ms=min(bare) * 1e3,
            collected_ms=min(collected) * 1e3,
            windows=windows,
        )
        if best is None or candidate.overhead_pct < best.overhead_pct:
            best = candidate
        if best.ok:
            break
    assert best is not None
    return best


# -- the live /metrics scrape ------------------------------------------------


@dataclass
class ScrapeCheck:
    """Two real-TCP scrapes of a live deployment's ``/metrics``."""

    port: int
    scrapes: int
    body_bytes: int
    #: Metric families declared (``# TYPE`` lines) in the last body.
    families: int
    problems: List[str] = field(default_factory=list)
    counters_monotone: bool = False

    @property
    def ok(self) -> bool:
        return self.scrapes >= 2 and not self.problems and self.counters_monotone

    def as_row(self) -> Dict[str, object]:
        return {
            "port": self.port,
            "scrapes": self.scrapes,
            "body_bytes": self.body_bytes,
            "families": self.families,
            "problems": list(self.problems),
            "counters_monotone": self.counters_monotone,
            "ok": self.ok,
        }


def scrape_metrics(port: int, timeout: float = 5.0) -> str:
    """One HTTP scrape of a :class:`MetricsEndpoint` over real TCP.

    The client side of the engine's TCP reply channel: connect, send the
    request, half-close, read the response to EOF.
    """
    with socket.create_connection((_LIVE_HOST, port), timeout=timeout) as sock:
        sock.settimeout(timeout)
        sock.sendall(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        sock.shutdown(socket.SHUT_WR)
        chunks: List[bytes] = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.0 200"):
        raise RuntimeError(f"scrape returned {head.splitlines()[0]!r}"
                           if head else "scrape returned no response")
    return body.decode("utf-8")


def run_metrics_scrape(
    case: int = 2,
    clients: int = 8,
    workers: int = 2,
    port: int = TELEMETRY_METRICS_PORT,
    timeout: float = 30.0,
) -> ScrapeCheck:
    """Deploy live, serve a wave, scrape ``/metrics`` twice, lint both.

    The first scrape happens mid-deployment (after the wave, while the
    runtime is still up), the second immediately after — counters must
    be monotone between them, series by series.
    """
    scenario = live_sharded_scenario(case, clients=clients, workers=workers)
    network, runtime = scenario.network, scenario.runtime
    endpoint = MetricsEndpoint(
        runtime, Endpoint(_LIVE_HOST, port, Transport.TCP)
    )
    bodies: List[str] = []
    try:
        network.attach(endpoint)
        started = [
            (client, client.start_lookup(network, scenario.target))
            for client in scenario.clients
        ]
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if runtime.worker_errors:
                raise runtime.worker_errors[0]
            if all(
                client.lookup_result(key) is not None for client, key in started
            ):
                break
            time.sleep(0.002)
        bodies.append(scrape_metrics(port))
        bodies.append(scrape_metrics(port))
    finally:
        runtime.undeploy()
        network.close()
    if endpoint.errors:
        raise endpoint.errors[0]
    problems: List[str] = []
    for index, body in enumerate(bodies):
        problems.extend(
            f"scrape {index}: {problem}" for problem in lint_prometheus(body)
        )
    first, second = counter_samples(bodies[0]), counter_samples(bodies[1])
    monotone = all(
        second.get(series, 0.0) >= value for series, value in first.items()
    )
    return ScrapeCheck(
        port=port,
        scrapes=len(bodies),
        body_bytes=len(bodies[-1].encode("utf-8")),
        families=sum(
            1 for line in bodies[-1].splitlines() if line.startswith("# TYPE ")
        ),
        problems=problems,
        counters_monotone=monotone,
    )


# -- the table ---------------------------------------------------------------


@dataclass
class TelemetryResult:
    """Everything ``--table telemetry`` reports."""

    case: int
    rows: List[CollectorOverheadResult] = field(default_factory=list)
    scrape: Optional[ScrapeCheck] = None
    #: Why the live rows are absent (``None`` when they ran).
    live_skipped: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (
            bool(self.rows)
            and all(row.ok for row in self.rows)
            and (self.scrape is None or self.scrape.ok)
        )


def run_telemetry(
    case: int = 2,
    clients: int = 120,
    workers: int = 4,
    pairs: int = 3,
    attempts: int = 3,
    include_live: bool = True,
    live_clients: int = 16,
    live_workers: int = 4,
) -> TelemetryResult:
    """The telemetry table: overhead gate on both runtimes + scrape lint.

    The live rows (overhead and scrape) are skipped with a recorded
    reason — not failed — when loopback sockets cannot be bound, the
    same graceful degradation the latency table practises.
    """
    result = TelemetryResult(case=case)
    result.rows.append(
        _measure_overhead(
            "simulated",
            lambda instrument: _timed_simulated(case, clients, workers, instrument),
            clients,
            workers,
            pairs,
            attempts,
        )
    )
    if not include_live:
        result.live_skipped = "live rows not requested"
        return result
    if not loopback_available():
        result.live_skipped = "loopback sockets unavailable"
        return result
    try:
        result.rows.append(
            _measure_overhead(
                "live",
                lambda instrument: _timed_live(
                    case, live_clients, live_workers, instrument
                ),
                live_clients,
                live_workers,
                # Live wall-clock runs are noisier and pricier: fewer
                # pairs, same attempts-with-best retry.
                max(2, pairs - 1),
                attempts,
            )
        )
        result.scrape = run_metrics_scrape(case)
    except OSError as exc:
        result.live_skipped = f"live run failed to bind sockets: {exc}"
    return result
