"""Evaluation harness: run the Fig. 12 experiments and collect statistics.

The paper repeats every measurement 100 times and reports min / median /
max in milliseconds.  The harness mirrors that: it drives the scenarios of
:mod:`repro.evaluation.workloads`, extracts the relevant metric —

* the *legacy response time* seen by the client for Fig. 12(a), and
* the *connector translation time* (first message received by the framework
  to last translated output sent) for Fig. 12(b) —

and summarises them as :class:`Summary` rows.
"""

from __future__ import annotations

import os
import platform
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..bridges.specs import CASE_NAMES
from ..network.aio import uvloop_available
from ..network.latency import CalibratedLatencies
from ..obs.tracing import Tracer
from .workloads import (
    LEGACY_PROTOCOLS,
    LIVE_PROCESSING_DELAY,
    ElasticResult,
    bridged_scenario,
    concurrent_scenario,
    elastic_scenario,
    legacy_scenario,
    live_sharded_scenario,
    live_twin_scenario,
    sharded_scenario,
)

__all__ = [
    "Summary",
    "ConcurrencySummary",
    "ShardingSummary",
    "LiveShardingSummary",
    "LatencySummary",
    "summarise",
    "environment_stamp",
    "measure_legacy_protocol",
    "measure_connector_case",
    "measure_concurrent_sessions",
    "measure_sharded_sessions",
    "measure_live_sharded_sessions",
    "run_fig12a",
    "run_fig12b",
    "run_concurrency",
    "run_sharding",
    "run_live_sharding",
    "run_elastic",
    "run_latency",
    "DEFAULT_CLIENT_COUNTS",
    "DEFAULT_WORKER_COUNTS",
    "DEFAULT_SHARDING_CLIENTS",
    "DEFAULT_LIVE_WORKER_COUNTS",
    "DEFAULT_LIVE_CLIENTS",
    "LIVE_SHARDING_NOTE",
    "DEFAULT_LATENCY_CLIENTS",
]

#: Default repetition count, matching the paper.
DEFAULT_REPETITIONS = 100


@dataclass(frozen=True)
class Summary:
    """Min / median / max statistics of one experiment row, in milliseconds."""

    label: str
    samples_ms: tuple

    @property
    def count(self) -> int:
        return len(self.samples_ms)

    @property
    def min_ms(self) -> float:
        return min(self.samples_ms)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def max_ms(self) -> float:
        return max(self.samples_ms)

    def as_row(self) -> Dict[str, float]:
        return {
            "label": self.label,
            "min_ms": round(self.min_ms, 1),
            "median_ms": round(self.median_ms, 1),
            "max_ms": round(self.max_ms, 1),
        }


def summarise(label: str, samples_seconds: Sequence[float]) -> Summary:
    """Build a summary row from samples expressed in seconds."""
    if not samples_seconds:
        raise ValueError(f"no samples collected for {label!r}")
    return Summary(label, tuple(value * 1000.0 for value in samples_seconds))


# ----------------------------------------------------------------------
# Fig. 12(a): legacy discovery response times
# ----------------------------------------------------------------------
def measure_legacy_protocol(
    protocol: str,
    repetitions: int = DEFAULT_REPETITIONS,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
) -> Summary:
    """Response times of a legacy lookup for one protocol (one Fig. 12(a) row)."""
    scenario = legacy_scenario(protocol, latencies=latencies, seed=seed)
    results = scenario.run(repetitions)
    failures = [result for result in results if not result.found]
    if failures:
        raise RuntimeError(
            f"{len(failures)} of {repetitions} legacy {protocol} lookups failed"
        )
    return summarise(protocol, [result.response_time for result in results])


def run_fig12a(
    repetitions: int = DEFAULT_REPETITIONS,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
) -> List[Summary]:
    """All three rows of Fig. 12(a)."""
    return [
        measure_legacy_protocol(protocol, repetitions, latencies, seed)
        for protocol in LEGACY_PROTOCOLS
    ]


# ----------------------------------------------------------------------
# Fig. 12(b): Starlink connector translation times
# ----------------------------------------------------------------------
def measure_connector_case(
    case: int,
    repetitions: int = DEFAULT_REPETITIONS,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
) -> Summary:
    """Translation times of one Starlink connector case (one Fig. 12(b) row)."""
    scenario = bridged_scenario(case, latencies=latencies, seed=seed)
    results = scenario.run(repetitions)
    failures = [result for result in results if not result.found]
    if failures:
        raise RuntimeError(
            f"{len(failures)} of {repetitions} bridged lookups failed for case {case}"
        )
    assert scenario.bridge is not None
    sessions = scenario.bridge.sessions
    if len(sessions) < repetitions:
        raise RuntimeError(
            f"bridge recorded {len(sessions)} sessions for {repetitions} lookups (case {case})"
        )
    samples = [session.translation_time for session in sessions[:repetitions]]
    return summarise(f"{case}. {CASE_NAMES[case]}", samples)


def run_fig12b(
    repetitions: int = DEFAULT_REPETITIONS,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
) -> List[Summary]:
    """All six rows of Fig. 12(b)."""
    return [
        measure_connector_case(case, repetitions, latencies, seed)
        for case in sorted(CASE_NAMES)
    ]


# ----------------------------------------------------------------------
# concurrent sessions: N overlapping clients through one bridge
# ----------------------------------------------------------------------
#: Client counts of the concurrency sweep (overlap levels).
DEFAULT_CLIENT_COUNTS = (1, 10, 100)


@dataclass(frozen=True)
class ConcurrencySummary:
    """One row of the concurrent-sessions sweep."""

    case: int
    label: str
    clients: int
    completed: int
    #: Per-session translation times, milliseconds.
    translation_ms: tuple
    #: Virtual seconds from the first request to the last reply.
    makespan_s: float
    #: Completed sessions per virtual second of makespan.
    throughput: float
    #: Datagrams the engine could not route to any session.
    unrouted: int

    @property
    def median_translation_ms(self) -> float:
        return statistics.median(self.translation_ms) if self.translation_ms else 0.0

    def as_row(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "label": self.label,
            "clients": self.clients,
            "completed": self.completed,
            "median_translation_ms": round(self.median_translation_ms, 1),
            "makespan_s": round(self.makespan_s, 4),
            "throughput": round(self.throughput, 2),
            "unrouted": self.unrouted,
        }


def measure_concurrent_sessions(
    case: int,
    clients: int,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
    spacing: float = 0.002,
) -> ConcurrencySummary:
    """Run ``clients`` overlapping lookups through the bridge of ``case``."""
    scenario = concurrent_scenario(
        case, clients=clients, spacing=spacing, latencies=latencies, seed=seed
    )
    result = scenario.run()
    if not result.all_found:
        raise RuntimeError(
            f"{clients - result.completed} of {clients} concurrent lookups failed "
            f"for case {case}"
        )
    return ConcurrencySummary(
        case=case,
        label=f"{case}. {CASE_NAMES[case]}",
        clients=clients,
        completed=result.completed,
        translation_ms=tuple(value * 1000.0 for value in result.translation_times),
        makespan_s=result.makespan,
        throughput=result.throughput,
        unrouted=result.unrouted_datagrams,
    )


def run_concurrency(
    case: int = 2,
    client_counts: Sequence[int] = DEFAULT_CLIENT_COUNTS,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
) -> List[ConcurrencySummary]:
    """The concurrency sweep: one row per overlap level of ``client_counts``."""
    return [
        measure_concurrent_sessions(case, clients, latencies, seed)
        for clients in client_counts
    ]


# ----------------------------------------------------------------------
# sharded runtime: fixed client load swept over worker counts
# ----------------------------------------------------------------------
#: Shard counts of the sharding sweep.
DEFAULT_WORKER_COUNTS = (1, 2, 4, 8)

#: Concurrent clients held constant while the worker count is swept.
DEFAULT_SHARDING_CLIENTS = 100


@dataclass(frozen=True)
class ShardingSummary:
    """One row of the sharded-runtime sweep (fixed clients, varying shards)."""

    case: int
    label: str
    clients: int
    workers: int
    completed: int
    #: Per-session translation times, milliseconds (includes worker queueing).
    translation_ms: tuple
    #: Virtual seconds from the first request to the last reply.
    makespan_s: float
    #: Completed sessions per virtual second of makespan.
    throughput: float
    #: Throughput relative to the 1-shard row of the same sweep.
    speedup: float
    #: Datagrams neither the router nor any worker could place.
    unrouted: int
    #: Completed sessions per worker, shard-balance view.
    worker_sessions: tuple

    @property
    def median_translation_ms(self) -> float:
        return statistics.median(self.translation_ms) if self.translation_ms else 0.0

    def as_row(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "label": self.label,
            "clients": self.clients,
            "workers": self.workers,
            "completed": self.completed,
            "median_translation_ms": round(self.median_translation_ms, 1),
            "makespan_s": round(self.makespan_s, 4),
            "throughput": round(self.throughput, 2),
            "speedup": round(self.speedup, 2),
            "unrouted": self.unrouted,
            "worker_sessions": list(self.worker_sessions),
        }


def measure_sharded_sessions(
    case: int,
    clients: int,
    workers: int,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
    spacing: float = 0.002,
    baseline_throughput: Optional[float] = None,
) -> ShardingSummary:
    """Run ``clients`` overlapping lookups across ``workers`` shards."""
    scenario = sharded_scenario(
        case,
        clients=clients,
        workers=workers,
        spacing=spacing,
        latencies=latencies,
        seed=seed,
    )
    result = scenario.run()
    if not result.all_found:
        raise RuntimeError(
            f"{clients - result.completed} of {clients} sharded lookups failed "
            f"for case {case} at {workers} workers"
        )
    runtime = scenario.bridge
    throughput = result.throughput
    return ShardingSummary(
        case=case,
        label=f"{case}. {CASE_NAMES[case]}",
        clients=clients,
        workers=workers,
        completed=result.completed,
        translation_ms=tuple(value * 1000.0 for value in result.translation_times),
        makespan_s=result.makespan,
        throughput=throughput,
        speedup=(throughput / baseline_throughput) if baseline_throughput else 1.0,
        unrouted=result.unrouted_datagrams,
        worker_sessions=tuple(runtime.worker_session_counts()),
    )


def run_sharding(
    case: int = 2,
    clients: int = DEFAULT_SHARDING_CLIENTS,
    worker_counts: Sequence[int] = DEFAULT_WORKER_COUNTS,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
) -> List[ShardingSummary]:
    """The sharding sweep: the same client load over growing worker pools.

    Speedups are relative to the sweep's first (usually 1-shard) row, which
    runs the identical serial-send-clock worker model — the gain measured
    is parallelism, not a change of cost model.
    """
    rows: List[ShardingSummary] = []
    baseline: Optional[float] = None
    for workers in worker_counts:
        row = measure_sharded_sessions(
            case,
            clients,
            workers,
            latencies=latencies,
            seed=seed,
            baseline_throughput=baseline,
        )
        if baseline is None:
            baseline = row.throughput
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# live sharded runtime: the same sweep over real loopback sockets
# ----------------------------------------------------------------------
#: Shard counts of the live sweep (every shard's records run on the one loop).
DEFAULT_LIVE_WORKER_COUNTS = (1, 2, 4)

#: Concurrent OS-socket clients held constant across the live sweep.
DEFAULT_LIVE_CLIENTS = 24

#: What the live sweep's default rows are (table title, JSON header): the
#: workers parallelise a ``call_later`` timer, not compute.
LIVE_SHARDING_NOTE = (
    f"modelled processing_delay={LIVE_PROCESSING_DELAY * 1000:g} ms "
    "(scheduling demo, not a performance result)"
)


@dataclass(frozen=True)
class LiveShardingSummary(ShardingSummary):
    """One row of the live sweep: wall-clock timings over real sockets.

    ``makespan_s``/``throughput`` are *wall-clock* here — the time real
    datagrams took on the loopback interface, the modelled
    ``processing_delay`` timer included — and every row records whether
    the raw bytes each client received matched the deterministic simulated
    twin of the same topology.
    """

    #: True when every client's raw responses equal the simulated twin's.
    outputs_match_simulated: bool = True
    #: The event loop under the row: ``uvloop`` | ``asyncio``.
    loop: str = "asyncio"

    def as_row(self) -> Dict[str, object]:
        row = super().as_row()
        row["outputs_match_simulated"] = self.outputs_match_simulated
        row.update(environment_stamp(), loop=self.loop)
        return row


def environment_stamp() -> Dict[str, object]:
    """What a wall-clock number depends on besides the code.

    Stamped on every ``BENCH_*.json`` (and on each live-sharding row) so
    numbers archived from different CI runs are comparable, or known not
    to be.  ``loop`` is the event loop a live deployment gets on this
    interpreter: uvloop when installed, else the stdlib loop.
    """
    return {
        "loop": "uvloop" if uvloop_available() else "asyncio",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def measure_live_sharded_sessions(
    case: int,
    clients: int,
    workers: int,
    processing_delay: float = LIVE_PROCESSING_DELAY,
    baseline_throughput: Optional[float] = None,
    seed: int = 7,
    timeout: float = 15.0,
) -> LiveShardingSummary:
    """One live row: ``clients`` OS-socket lookups across ``workers`` shards.

    Runs the live scenario on real loopback sockets, then its simulated
    twin (identical topology on the virtual clock), and compares the raw
    translated bytes every client received: the live deployment must not
    change a single output byte.
    """
    live = live_sharded_scenario(
        case,
        clients=clients,
        workers=workers,
        processing_delay=processing_delay,
    )
    loop = "uvloop" if live.network.uvloop_active else "asyncio"
    result = live.run(timeout=timeout)
    if not result.all_found:
        raise RuntimeError(
            f"{clients - result.completed} of {clients} live lookups failed "
            f"for case {case} at {workers} workers"
        )
    live_bytes = live.raw_responses_by_client

    twin = live_twin_scenario(
        case,
        clients=clients,
        workers=workers,
        processing_delay=processing_delay,
        seed=seed,
    )
    twin_result = twin.run()
    twin_bytes = {
        client.name: tuple(client.raw_responses) for client in twin.clients
    }
    outputs_match = twin_result.all_found and live_bytes == twin_bytes

    throughput = result.throughput
    return LiveShardingSummary(
        case=case,
        label=f"{case}. {CASE_NAMES[case]}",
        clients=clients,
        workers=workers,
        completed=result.completed,
        translation_ms=tuple(value * 1000.0 for value in result.translation_times),
        makespan_s=result.makespan,
        throughput=throughput,
        speedup=(throughput / baseline_throughput) if baseline_throughput else 1.0,
        unrouted=result.unrouted_datagrams,
        worker_sessions=tuple(live.runtime.worker_session_counts()),
        outputs_match_simulated=outputs_match,
        loop=loop,
    )


# ----------------------------------------------------------------------
# stage-latency attribution: where datagram time goes, per stage
# ----------------------------------------------------------------------
#: Concurrent clients of each latency-attribution scenario.
DEFAULT_LATENCY_CLIENTS = 40


@dataclass(frozen=True)
class LatencySummary:
    """One stage's latency distribution within one scenario/runtime pair.

    Built from the :mod:`repro.obs` always-on histograms, so the
    percentiles cover every datagram of the run; values are bucket upper
    bounds (power-of-two nanosecond buckets), reported in microseconds.
    """

    scenario: str
    #: ``simulated`` | ``live``
    runtime: str
    stage: str
    count: int
    mean_us: float
    p50_us: float
    p95_us: float
    p99_us: float

    def as_row(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "runtime": self.runtime,
            "stage": self.stage,
            "count": self.count,
            "mean_us": round(self.mean_us, 2),
            "p50_us": round(self.p50_us, 2),
            "p95_us": round(self.p95_us, 2),
            "p99_us": round(self.p99_us, 2),
        }


def _stage_rows(scenario: str, runtime: str, tracer: Tracer) -> List[LatencySummary]:
    """Latency rows of one finished run, in pipeline-stage order."""
    rows: List[LatencySummary] = []
    for stage, hist in tracer.stage_histograms().items():
        if hist.count == 0:
            continue
        rows.append(
            LatencySummary(
                scenario=scenario,
                runtime=runtime,
                stage=stage,
                count=hist.count,
                mean_us=1e6 * hist.total_seconds / hist.count,
                p50_us=1e6 * hist.percentile(0.5),
                p95_us=1e6 * hist.percentile(0.95),
                p99_us=1e6 * hist.percentile(0.99),
            )
        )
    return rows


def run_latency(
    case: int = 2,
    clients: int = DEFAULT_LATENCY_CLIENTS,
    workers: int = 4,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
    sample: float = 1.0,
    include_live: bool = True,
) -> List[LatencySummary]:
    """Per-stage latency attribution across the evaluation scenarios.

    Runs the concurrency workload (single engine), the sharding workload
    (router + ``workers`` shards) on the simulation, and — unless
    ``include_live`` is off — the live sharded workload on real loopback
    sockets, each with full tracing, and reports p50/p95/p99 per pipeline
    stage.  Stage durations are real CPU time (``perf_counter``) on every
    runtime; only the ``queue.wait`` stage is runtime-native (virtual
    seconds simulated, wall seconds live).
    """
    rows: List[LatencySummary] = []

    tracer = Tracer(sample=sample)
    concurrent = concurrent_scenario(
        case, clients=clients, latencies=latencies, seed=seed, tracer=tracer
    )
    result = concurrent.run()
    if not result.all_found:
        raise RuntimeError(
            f"{clients - result.completed} of {clients} concurrency-latency "
            f"lookups failed for case {case}"
        )
    rows.extend(_stage_rows("concurrency", "simulated", tracer))

    sharded = sharded_scenario(
        case,
        clients=clients,
        workers=workers,
        latencies=latencies,
        seed=seed,
        trace_sample=sample,
    )
    result = sharded.run()
    if not result.all_found:
        raise RuntimeError(
            f"{clients - result.completed} of {clients} sharding-latency "
            f"lookups failed for case {case}"
        )
    rows.extend(_stage_rows("sharding", "simulated", sharded.bridge.tracer))

    if include_live:
        live = live_sharded_scenario(
            case,
            clients=min(clients, DEFAULT_LIVE_CLIENTS),
            workers=workers,
            trace_sample=sample,
        )
        live_result = live.run()
        if not live_result.all_found:
            raise RuntimeError(
                f"{live.runtime.worker_count}-shard live latency run left "
                f"{len(live.clients) - live_result.completed} lookups unanswered"
            )
        # The tracer outlives the teardown LiveScenario.run performs.
        rows.extend(_stage_rows("sharding", "live", live.runtime.tracer))
    return rows


# ----------------------------------------------------------------------
# elastic control plane: autoscaled bursty load
# ----------------------------------------------------------------------
def run_elastic(case: int = 2, seed: int = 7, **kwargs) -> ElasticResult:
    """Run the bursty elastic workload and return its full result.

    The workload drives an autoscaled runtime through a steady / burst /
    tail profile; the run completes only once the pool has grown under the
    burst and drained back to its minimum.  Raises when any lookup went
    unanswered or a session was abandoned — the drain protocol's loss-free
    guarantee is part of the harness contract, not just the benchmark's.
    """
    scenario = elastic_scenario(case=case, seed=seed, **kwargs)
    result = scenario.run()
    if not result.all_found:
        raise RuntimeError(
            f"{result.clients - result.completed} of {result.clients} elastic "
            f"lookups failed for case {case}"
        )
    if result.abandoned_sessions:
        raise RuntimeError(
            f"elastic run abandoned {result.abandoned_sessions} sessions; "
            "the drain protocol must be loss-free"
        )
    return result


def run_live_sharding(
    case: int = 2,
    clients: int = DEFAULT_LIVE_CLIENTS,
    worker_counts: Sequence[int] = DEFAULT_LIVE_WORKER_COUNTS,
    processing_delay: float = LIVE_PROCESSING_DELAY,
    timeout: float = 15.0,
) -> List[LiveShardingSummary]:
    """The live sweep: one wall-clock row per shard count, same client load.

    Unlike the simulated sweep this measures real elapsed time, so rows
    carry scheduler jitter; the speedup column is still throughput relative
    to the sweep's single-shard row, which runs the identical workload.
    With the default ``processing_delay`` the workers parallelise a
    modelled timer: the table is a scheduling demo, not a performance
    result.
    """
    rows: List[LiveShardingSummary] = []
    baseline: Optional[float] = None
    for workers in worker_counts:
        row = measure_live_sharded_sessions(
            case,
            clients,
            workers,
            processing_delay=processing_delay,
            baseline_throughput=baseline,
            timeout=timeout,
        )
        if baseline is None:
            baseline = row.throughput
        rows.append(row)
    return rows
