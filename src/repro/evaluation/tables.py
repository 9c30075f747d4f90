"""Table formatting and paper-value comparison for the Fig. 12 experiments.

``PAPER_FIG12A`` and ``PAPER_FIG12B`` hold the numbers printed in the paper
(milliseconds); ``format_table`` renders measured rows next to them so the
benchmark output and EXPERIMENTS.md can show the paper-vs-measured shape at
a glance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .chaos import ChaosResult, HealResult
from .harness import (
    LIVE_SHARDING_NOTE,
    ConcurrencySummary,
    LatencySummary,
    LiveShardingSummary,
    ShardingSummary,
    Summary,
)
from .micro import MicroResult
from .telemetry import TelemetryResult
from .workloads import ElasticResult

__all__ = [
    "PAPER_FIG12A",
    "PAPER_FIG12B",
    "format_table",
    "format_fig12a",
    "format_fig12b",
    "format_concurrency",
    "format_sharding",
    "format_live_sharding",
    "format_elastic",
    "format_chaos",
    "format_heal",
    "format_latency",
    "format_micro",
    "format_telemetry",
    "overhead_ratios",
]

#: Fig. 12(a) — response time measures for legacy discovery protocols (ms).
PAPER_FIG12A: Dict[str, Tuple[int, int, int]] = {
    "SLP": (5982, 6022, 6053),
    "Bonjour": (687, 710, 726),
    "UPnP": (945, 1014, 1079),
}

#: Fig. 12(b) — translation times of Starlink connectors (ms).
PAPER_FIG12B: Dict[str, Tuple[int, int, int]] = {
    "1. SLP to UPnP": (319, 337, 343),
    "2. SLP to Bonjour": (255, 271, 287),
    "3. UPnP to SLP": (6208, 6311, 6450),
    "4. UPnP to Bonjour": (253, 289, 311),
    "5. Bonjour to UPnP": (334, 359, 379),
    "6. Bonjour to SLP": (6168, 6190, 6244),
}


def format_table(
    title: str,
    summaries: Sequence[Summary],
    paper_values: Optional[Dict[str, Tuple[int, int, int]]] = None,
) -> str:
    """Render summaries (and the paper's numbers, if given) as a text table."""
    header = f"{'Case':<22} {'Min (ms)':>10} {'Median (ms)':>12} {'Max (ms)':>10}"
    if paper_values is not None:
        header += f"   {'Paper median (ms)':>18}"
    lines = [title, "-" * len(header), header, "-" * len(header)]
    for summary in summaries:
        row = (
            f"{summary.label:<22} {summary.min_ms:>10.0f} "
            f"{summary.median_ms:>12.0f} {summary.max_ms:>10.0f}"
        )
        if paper_values is not None:
            paper = paper_values.get(summary.label)
            row += f"   {paper[1]:>18}" if paper else f"   {'-':>18}"
        lines.append(row)
    lines.append("-" * len(header))
    return "\n".join(lines)


def format_fig12a(summaries: Sequence[Summary]) -> str:
    return format_table(
        "Fig. 12(a) - Response time measures for legacy discovery protocols",
        summaries,
        PAPER_FIG12A,
    )


def format_fig12b(summaries: Sequence[Summary]) -> str:
    return format_table(
        "Fig. 12(b) - Translation times of Starlink connectors",
        summaries,
        PAPER_FIG12B,
    )


def format_concurrency(rows: Sequence[ConcurrencySummary]) -> str:
    """Render the concurrent-sessions sweep as a text table.

    There is no paper column here — the paper measures one client at a
    time; this table is the scaling story of the session-multiplexed
    engine (aggregate throughput should grow with the overlap level).
    """
    header = (
        f"{'Case':<22} {'Clients':>8} {'Completed':>10} "
        f"{'Median transl. (ms)':>20} {'Makespan (s)':>13} {'Sessions/s':>11}"
    )
    lines = [
        "Concurrent sessions - overlapping legacy clients through one bridge",
        "-" * len(header),
        header,
        "-" * len(header),
    ]
    for row in rows:
        lines.append(
            f"{row.label:<22} {row.clients:>8} {row.completed:>10} "
            f"{row.median_translation_ms:>20.0f} {row.makespan_s:>13.3f} "
            f"{row.throughput:>11.1f}"
        )
    lines.append("-" * len(header))
    return "\n".join(lines)


def format_sharding(rows: Sequence[ShardingSummary]) -> str:
    """Render the sharded-runtime sweep as a text table.

    Client load is constant down the rows; the worker count grows.  The
    speedup column is throughput relative to the sweep's first row, and
    the balance column shows completed sessions per shard.
    """
    header = (
        f"{'Case':<22} {'Clients':>8} {'Workers':>8} "
        f"{'Median transl. (ms)':>20} {'Makespan (s)':>13} {'Sessions/s':>11} "
        f"{'Speedup':>8}  {'Shard balance'}"
    )
    lines = [
        "Sharded runtime - one client load across parallel worker engines",
        "-" * len(header),
        header,
        "-" * len(header),
    ]
    for row in rows:
        balance = "/".join(str(count) for count in row.worker_sessions)
        lines.append(
            f"{row.label:<22} {row.clients:>8} {row.workers:>8} "
            f"{row.median_translation_ms:>20.0f} {row.makespan_s:>13.3f} "
            f"{row.throughput:>11.1f} {row.speedup:>7.2f}x  {balance}"
        )
    lines.append("-" * len(header))
    return "\n".join(lines)


def format_live_sharding(rows: Sequence[LiveShardingSummary]) -> str:
    """Render the live (real-socket) sharding sweep as a text table.

    Timings are wall clock — real datagrams on the loopback interface,
    the modelled ``processing_delay`` timer included — and the last column
    confirms the raw bytes every client received match the deterministic
    simulated twin of the same topology.
    """
    header = (
        f"{'Case':<22} {'Clients':>8} {'Workers':>8} "
        f"{'Makespan (s)':>13} {'Sessions/s':>11} {'Speedup':>8} "
        f"{'Bytes=sim':>10}  {'Shard balance'}"
    )
    lines = [
        "Live sharded runtime - real loopback sockets, wall-clock timings, "
        + LIVE_SHARDING_NOTE,
        "-" * len(header),
        header,
        "-" * len(header),
    ]
    for row in rows:
        balance = "/".join(str(count) for count in row.worker_sessions)
        identical = "yes" if row.outputs_match_simulated else "NO"
        lines.append(
            f"{row.label:<22} {row.clients:>8} {row.workers:>8} "
            f"{row.makespan_s:>13.3f} {row.throughput:>11.1f} "
            f"{row.speedup:>7.2f}x {identical:>10}  {balance}"
        )
    lines.append("-" * len(header))
    return "\n".join(lines)


def format_elastic(result: ElasticResult) -> str:
    """Render the elastic control-plane run as a text table.

    One row per traffic phase, followed by the scaling timeline (the
    autoscaler growing the pool under the burst and draining it back) and
    the loss-free tally — abandoned sessions must read zero.
    """
    header = (
        f"{'Phase':<10} {'Clients':>8} {'Completed':>10} "
        f"{'Makespan (s)':>13} {'Sessions/s':>11}"
    )
    lines = [
        "Elastic control plane - bursty load through an autoscaled runtime",
        f"({result.name})",
        "-" * len(header),
        header,
        "-" * len(header),
    ]
    for phase in result.phases:
        lines.append(
            f"{phase.name:<10} {phase.clients:>8} {phase.completed:>10} "
            f"{phase.makespan_s:>13.3f} {phase.throughput:>11.1f}"
        )
    lines.append("-" * len(header))
    timeline = " | ".join(
        f"t={event.at:.2f}s {event.kind} {event.workers_before}->"
        f"{event.workers_after}"
        for event in result.events
    )
    lines.append(f"Scaling timeline: {timeline or '(no scaling occurred)'}")
    lines.append(
        f"Workers: peak {result.peak_workers}, final {result.final_workers}   "
        f"Abandoned sessions: {result.abandoned_sessions}   "
        f"Unrouted: {result.unrouted}"
    )
    if result.final_metrics is not None:
        router = result.final_metrics.router
        lines.append(
            f"Router: {router.classify_count} datagrams classified, "
            f"{router.classify_cost_avg_us:.1f} us/classify"
        )
    return "\n".join(lines)


def format_chaos(results: Sequence[ChaosResult]) -> str:
    """Render the chaos sweep as a text table.

    One row per seeded run (simulated rows first, the live row last when
    present).  ``Arb.rm`` counts the drains of a *non-suffix* worker —
    the coverage the identity-based membership added — and the last two
    columns are the loss-free contract: nothing abandoned or unrouted,
    and every client's bytes equal to the fixed-shard twin's.
    """
    header = (
        f"{'Run':<28} {'Seed':>5} {'Clients':>8} {'Done':>5} "
        f"{'Ops':>4} {'Arb.rm':>7} {'Garbage':>8} {'Dropped':>8} "
        f"{'Abandoned':>10} {'Bytes=twin':>11} {'OK':>4}"
    )
    lines = [
        "Chaos harness - seeded fault schedules against the sharded runtimes",
        "-" * len(header),
        header,
        "-" * len(header),
    ]
    for result in results:
        lines.append(
            f"{result.name:<28} {result.seed:>5} {result.clients:>8} "
            f"{result.completed:>5} {result.membership_ops:>4} "
            f"{result.arbitrary_removals:>7} {result.garbage_sent:>8} "
            f"{result.datagrams_dropped:>8} {result.abandoned_sessions:>10} "
            f"{'yes' if result.outputs_match_twin else 'NO':>11} "
            f"{'ok' if result.ok else 'FAIL':>4}"
        )
    lines.append("-" * len(header))
    failures = [result for result in results if not result.ok]
    if failures:
        for failure in failures:
            lines.append(
                f"FAILED seed {failure.seed} ({failure.runtime_kind}): "
                f"{failure.failure_reason()} — reproduce with "
                f"`{failure.repro_command()}`"
            )
    else:
        lines.append(
            "All runs loss-free: zero dropped/abandoned sessions, "
            "bytes identical to the fixed-shard twin."
        )
    return "\n".join(lines)


def format_heal(results: Sequence[HealResult]) -> str:
    """Render the self-healing sweep as a text table.

    One row per seeded run.  ``Replaced`` must equal ``Wedged`` on a
    green row — every wedged worker healed by the failure detector, no
    worker lost to a clock skew or a load spike — and ``Detect`` is the
    worst wedge-to-replace-decision time against the run's budget.
    """
    header = (
        f"{'Run':<28} {'Seed':>5} {'Clients':>8} {'Done':>5} "
        f"{'Wedged':>7} {'Replaced':>9} {'Quar':>5} {'Detect':>8} "
        f"{'Dropped':>8} {'Bytes=twin':>11} {'OK':>4}"
    )
    lines = [
        "Self-healing harness - failure detector under injected faults",
        "-" * len(header),
        header,
        "-" * len(header),
    ]
    for result in results:
        worst = max(result.detection_seconds, default=0.0)
        lines.append(
            f"{result.name:<28} {result.seed:>5} {result.clients:>8} "
            f"{result.completed:>5} {result.wedges:>7} {result.replaces:>9} "
            f"{result.quarantines:>5} {worst:>7.3f}s "
            f"{result.datagrams_dropped:>8} "
            f"{'yes' if result.outputs_match_twin else 'NO':>11} "
            f"{'ok' if result.ok else 'FAIL':>4}"
        )
    lines.append("-" * len(header))
    failures = [result for result in results if not result.ok]
    if failures:
        for failure in failures:
            lines.append(
                f"FAILED seed {failure.seed} ({failure.runtime_kind}): "
                f"{failure.failure_reason()} — reproduce with "
                f"`{failure.repro_command()}`"
            )
    else:
        lines.append(
            "All wedges healed by the detector alone; no spurious "
            "replacements; outputs byte-identical to the fixed-shard twin."
        )
    return "\n".join(lines)


def format_latency(rows: Sequence[LatencySummary]) -> str:
    """Render the stage-latency attribution as a text table.

    One row per (scenario, runtime, stage): where a datagram's time goes
    as it crosses the pipeline.  Percentiles come from the always-on
    power-of-two histograms, so they cover every datagram of the run, and
    the values are bucket upper bounds — read them as magnitudes, not
    exact quantiles.
    """
    header = (
        f"{'Scenario':<12} {'Runtime':<10} {'Stage':<22} {'Count':>7} "
        f"{'Mean (us)':>10} {'p50 (us)':>9} {'p95 (us)':>9} {'p99 (us)':>9}"
    )
    lines = [
        "Stage latency - per-stage attribution from the always-on histograms",
        "-" * len(header),
        header,
        "-" * len(header),
    ]
    for row in rows:
        lines.append(
            f"{row.scenario:<12} {row.runtime:<10} {row.stage:<22} "
            f"{row.count:>7} {row.mean_us:>10.2f} {row.p50_us:>9.2f} "
            f"{row.p95_us:>9.2f} {row.p99_us:>9.2f}"
        )
    lines.append("-" * len(header))
    return "\n".join(lines)


def format_telemetry(result: TelemetryResult) -> str:
    """Render the continuous-telemetry checks as a text table.

    One row per runtime: end-to-end wall time with the metrics collector
    off vs on (interleaved min-of-pairs, so the delta isolates the
    collector from machine noise) against the < 5 % gate.  Below the
    rows, the live ``/metrics`` scrape verdict: two scrapes over real
    TCP, linted against the Prometheus text-format grammar, counters
    checked for monotonicity between them.
    """
    header = (
        f"{'Runtime':<10} {'Clients':>8} {'Workers':>8} {'Bare (ms)':>10} "
        f"{'Collected (ms)':>15} {'Overhead':>9} {'Windows':>8} {'OK':>4}"
    )
    lines = [
        "Continuous telemetry - collector overhead gate and /metrics lint",
        "-" * len(header),
        header,
        "-" * len(header),
    ]
    for row in result.rows:
        lines.append(
            f"{row.runtime_kind:<10} {row.clients:>8} {row.workers:>8} "
            f"{row.bare_ms:>10.2f} {row.collected_ms:>15.2f} "
            f"{row.overhead_pct:>+8.2f}% {row.windows:>8} "
            f"{'ok' if row.ok else 'FAIL':>4}"
        )
    lines.append("-" * len(header))
    scrape = result.scrape
    if scrape is not None:
        lines.append(
            f"/metrics on port {scrape.port}: {scrape.scrapes} scrapes, "
            f"{scrape.families} families, {scrape.body_bytes} bytes, "
            f"lint {'clean' if not scrape.problems else 'FAILED'}, "
            f"counters {'monotone' if scrape.counters_monotone else 'NOT monotone'}"
            f" ({'ok' if scrape.ok else 'FAIL'})"
        )
        for problem in scrape.problems[:5]:
            lines.append(f"  lint: {problem}")
    if result.live_skipped:
        lines.append(f"live rows skipped: {result.live_skipped}")
    return "\n".join(lines)


def format_micro(result: MicroResult) -> str:
    """Render the compiled-vs-interpreted micro benchmarks as a text table.

    One row per protocol and operation, timings in microseconds per call.
    The summary lines state the differential evidence first — the speedup
    column only means something because both stacks produced identical
    bytes and identical errors — then the aggregate speedups.
    """
    header = (
        f"{'Protocol':<10} {'Op':<10} {'Reps':>6} "
        f"{'Interp (us/op)':>15} {'Compiled (us/op)':>17} {'Speedup':>8}"
    )
    lines = [
        "Compiled hot path - MDL codecs and transition plans vs the interpreters",
        "-" * len(header),
        header,
        "-" * len(header),
    ]
    for row in result.rows:
        lines.append(
            f"{row.protocol:<10} {row.operation:<10} {row.repetitions:>6} "
            f"{row.interpreted_us:>15.2f} {row.compiled_us:>17.2f} "
            f"{row.speedup:>7.1f}x"
        )
    lines.append("-" * len(header))
    if result.ok:
        lines.append(
            f"Differential gate: {result.messages_checked} round-trips "
            f"byte-identical, {result.garbage_checked} garbage datagrams "
            f"rejected identically, {result.translations_checked} translations "
            f"message- and error-identical, {result.steps_checked} automaton "
            "steps identical."
        )
    else:
        for mismatch in result.mismatches:
            lines.append(f"MISMATCH: {mismatch}")
    lines.append(
        f"Aggregate speedup: parse {result.parse_speedup:.1f}x, "
        f"compose {result.compose_speedup:.1f}x, "
        f"translate {result.translate_speedup:.1f}x, "
        f"transition {result.transition_speedup:.1f}x"
    )
    return "\n".join(lines)


def overhead_ratios(
    legacy: Sequence[Summary], connectors: Sequence[Summary]
) -> List[Tuple[str, float]]:
    """The Section VI overhead analysis: connector translation time relative
    to the legacy response time of the connector's *source* protocol.

    The paper quotes case 6 (Bonjour to SLP) as roughly a 600 % increase and
    case 1 (SLP to UPnP) as roughly 5 %.
    """
    legacy_by_protocol = {summary.label: summary.median_ms for summary in legacy}
    ratios: List[Tuple[str, float]] = []
    for summary in connectors:
        label = summary.label.partition(". ")[2] or summary.label
        source_protocol = label.split(" to ")[0]
        baseline = legacy_by_protocol.get(source_protocol)
        if not baseline:
            continue
        ratios.append((summary.label, 100.0 * summary.median_ms / baseline))
    return ratios
