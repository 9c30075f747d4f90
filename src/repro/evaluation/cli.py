"""Command-line entry point for the evaluation harness.

``python -m repro.evaluation [--repetitions N]
[--table fig12a|fig12b|overhead|concurrency|sharding|elastic|live-sharding|all]``
regenerates the paper's Fig. 12 tables (and the Section VI overhead
analysis) plus the concurrent-sessions and sharded-runtime scaling sweeps
and the elastic control-plane run (an autoscaled bursty workload growing
1→4 shards and draining back loss-free), and prints them next to the
published numbers.  This is the same code path the benchmarks use; the
CLI exists so the headline result can be reproduced without pytest.

``--table live-sharding`` runs the sweep over **real loopback sockets**
(workers on one event loop, wall-clock timings, a *modelled*
5 ms ``processing_delay`` — a scheduling demo, labelled as such) and
writes the rows to ``BENCH_live_sharding.json`` (in
``REPRO_BENCH_RESULTS_DIR``, by default ``repro-results`` under the
system temporary directory — like every artifact below).  It is
excluded from ``all``: it needs permission to bind loopback sockets and
measures the machine, not the model.

``--table chaos`` runs the seeded fault-injection sweep of
:mod:`repro.evaluation.chaos` (membership faults + garbage + loss windows
against the sharded runtime, loss-free contract checked against a
fixed-shard twin) and writes ``BENCH_chaos.json``.  Also excluded from
``all`` — it is an adversarial soak, not a paper table.  An explicit
``--seed N`` replays exactly one schedule: that is the repro command the
soak test and benchmark print when a seed fails; ``--chaos-live`` adds a
real-socket run.

``--table heal`` runs the self-healing sweep: seeded schedules that wedge
a worker mid-wave (and, live, open real UDP loss windows through a
:class:`~repro.network.aio.AsyncFaultyNetwork`) while a
:class:`~repro.runtime.health.FailureDetector` alone must notice,
quarantine, drain and replace the victim — loss-free and byte-identical
to the fixed-shard twin.  Writes ``BENCH_heal.json``; ``--seed N``
replays one schedule and ``--chaos-live`` adds the real-socket run.

``--table micro`` runs the compiled-vs-interpreted MDL codec micro
benchmarks of :mod:`repro.evaluation.micro` (gated on the byte-identity
differential) and writes ``BENCH_micro.json``.  Also excluded from
``all``: it measures the machine, not the model.

``--table telemetry`` runs the continuous-telemetry checks of
:mod:`repro.evaluation.telemetry`: the collector-overhead gate (< 5 %
end-to-end on both runtimes, interleaved min-of-pairs timing) and two
real-TCP scrapes of a live deployment's ``/metrics`` endpoint, linted
against the Prometheus text-format grammar with counters checked for
monotonicity.  Writes ``BENCH_telemetry.json``; the live rows are
skipped gracefully when loopback sockets cannot be bound.  Also excluded
from ``all``: the overhead rows time the machine.

``--table heal`` additionally persists every flight-recorder bundle its
runs captured as ``POSTMORTEM_<run>_<n>.json`` — simulated bundles are
deterministic per seed (byte-stable across replays).

``--table latency`` runs the stage-latency attribution of
:mod:`repro.obs` — the concurrency and sharding workloads with full
tracing, p50/p95/p99 per pipeline stage on both runtimes — and writes
``BENCH_latency.json`` plus a ``TRACE_sample.json`` span-tree export from
a traced chaos run (membership events and datagram spans on one
timeline).  Also excluded from ``all``: stage durations are measured CPU
time, so it times the machine.  The live rows are skipped gracefully when
loopback sockets cannot be bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional, Sequence

from .chaos import (
    DEFAULT_CHAOS_SEEDS,
    DEFAULT_HEAL_SEEDS,
    run_chaos,
    run_chaos_once,
    run_heal,
)
from .harness import (
    DEFAULT_LIVE_CLIENTS,
    DEFAULT_LIVE_WORKER_COUNTS,
    DEFAULT_REPETITIONS,
    DEFAULT_SHARDING_CLIENTS,
    LIVE_SHARDING_NOTE,
    environment_stamp,
    run_concurrency,
    run_elastic,
    run_fig12a,
    run_fig12b,
    run_latency,
    run_live_sharding,
    run_sharding,
)
from .micro import (
    DEFAULT_MICRO_REPETITIONS,
    TRACE_OVERHEAD_THRESHOLD_PCT,
    run_micro,
    run_trace_overhead,
)
from .tables import (
    format_chaos,
    format_concurrency,
    format_heal,
    format_elastic,
    format_fig12a,
    format_fig12b,
    format_latency,
    format_live_sharding,
    format_micro,
    format_sharding,
    format_telemetry,
    overhead_ratios,
)
from .telemetry import run_telemetry

__all__ = [
    "main",
    "build_parser",
    "write_live_sharding_results",
    "write_chaos_results",
    "write_heal_results",
    "write_micro_results",
    "write_latency_results",
    "write_telemetry_results",
    "write_postmortems",
    "write_trace_sample",
]


def _results_dir() -> str:
    """The directory ``--table`` artifacts are written to.

    ``REPRO_BENCH_RESULTS_DIR`` when set; otherwise ``repro-results``
    under the system temporary directory, created on demand — never the
    working directory, so a table run leaves a checkout clean.
    """
    path = os.environ.get("REPRO_BENCH_RESULTS_DIR") or os.path.join(
        tempfile.gettempdir(), "repro-results"
    )
    os.makedirs(path, exist_ok=True)
    return path


def _write_bench_json(name: str, **payload) -> str:
    """Write one table's ``BENCH_<name>.json`` artifact and return the path.

    Same payload shape and conventions (results directory from
    ``REPRO_BENCH_RESULTS_DIR``, sorted keys, trailing newline) as the
    benchmark suite's writers, so CI archives the CLI output
    interchangeably with the pytest-benchmark artifacts.
    """
    results_dir = _results_dir()
    payload = {"benchmark": name, **environment_stamp(), **payload}
    path = os.path.join(results_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_live_sharding_results(rows, clients: int, case: int) -> str:
    """Write the live-sharding rows to ``BENCH_live_sharding.json``."""
    return _write_bench_json(
        "live_sharding",
        note=LIVE_SHARDING_NOTE,
        case=case,
        clients=clients,
        worker_counts=[row.workers for row in rows],
        rows=[row.as_row() for row in rows],
    )


def write_chaos_results(results, case: int) -> str:
    """Write the chaos rows to ``BENCH_chaos.json``."""
    return _write_bench_json(
        "chaos",
        case=case,
        seeds=[result.seed for result in results],
        rows=[result.as_row() for result in results],
    )


def write_heal_results(results, case: int) -> str:
    """Write the self-healing rows to ``BENCH_heal.json``."""
    return _write_bench_json(
        "heal",
        case=case,
        seeds=[result.seed for result in results],
        rows=[result.as_row() for result in results],
    )


def write_telemetry_results(result) -> str:
    """Write the telemetry rows to ``BENCH_telemetry.json``."""
    return _write_bench_json(
        "telemetry",
        case=result.case,
        rows=[row.as_row() for row in result.rows],
        scrape=result.scrape.as_row() if result.scrape is not None else None,
        live_skipped=result.live_skipped,
        ok=result.ok,
    )


def write_postmortems(results) -> List[str]:
    """Persist every heal run's flight-recorder bundles, one JSON per bundle.

    Files are named ``POSTMORTEM_<run>_<n>.json``.  Simulated bundles
    are captured with ``deterministic=True`` — same seed, same bytes —
    so archiving them per CI run makes telemetry regressions diffable.
    """
    results_dir = _results_dir()
    paths: List[str] = []
    for result in results:
        for index, bundle in enumerate(result.postmortems):
            path = os.path.join(
                results_dir, f"POSTMORTEM_{result.name}_{index}.json"
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(bundle, handle, indent=2, sort_keys=True)
                handle.write("\n")
            paths.append(path)
    return paths


def write_micro_results(result) -> str:
    """Write the micro rows to ``BENCH_micro.json``."""
    return _write_bench_json(
        "micro",
        messages_checked=result.messages_checked,
        garbage_checked=result.garbage_checked,
        translations_checked=result.translations_checked,
        steps_checked=result.steps_checked,
        parse_speedup=round(result.parse_speedup, 2),
        compose_speedup=round(result.compose_speedup, 2),
        translate_speedup=round(result.translate_speedup, 2),
        transition_speedup=round(result.transition_speedup, 2),
        rows=[row.as_row() for row in result.rows],
    )


def write_latency_results(rows, case: int, overhead=None) -> str:
    """Write the stage-latency rows to ``BENCH_latency.json``."""
    payload = {
        "case": case,
        "scenarios": sorted({row.scenario for row in rows}),
        "rows": [row.as_row() for row in rows],
    }
    if overhead is not None:
        payload["trace_overhead"] = overhead.as_row()
    return _write_bench_json("latency", **payload)


def write_trace_sample(case: int, seed: int) -> str:
    """Run one fully-traced chaos schedule and write ``TRACE_sample.json``.

    The export is the acceptance artifact for the tracing layer: every
    delivered datagram's span tree, plus the membership (scale) events of
    the same run, on one virtual timeline.
    """
    result = run_chaos_once(case=case, seed=seed, trace_sample=1.0)
    results_dir = _results_dir()
    payload = {
        "benchmark": "trace_sample",
        **environment_stamp(),
        "case": case,
        "seed": seed,
        "ok": result.ok,
        "scale_events": [event._asdict() for event in result.scale_events],
        "trace": result.trace,
    }
    path = os.path.join(results_dir, "TRACE_sample.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation",
        description="Regenerate the Starlink paper's evaluation tables (Fig. 12).",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=DEFAULT_REPETITIONS,
        help="lookups per table row (the paper uses 100)",
    )
    parser.add_argument(
        "--table",
        choices=[
            "fig12a",
            "fig12b",
            "overhead",
            "concurrency",
            "sharding",
            "elastic",
            "chaos",
            "heal",
            "micro",
            "live-sharding",
            "latency",
            "telemetry",
            "all",
        ],
        default="all",
        help="which table to regenerate ('all' covers the simulated tables; "
        "chaos, micro, live-sharding, latency and telemetry must be asked "
        "for — chaos runs the seeded fault-injection sweep, micro times the "
        "compiled codecs against the interpreters, live-sharding binds real "
        "loopback sockets, latency prints per-stage p50/p95/p99 from the "
        "tracing layer, telemetry gates the metrics collector's overhead "
        "and lints the live /metrics endpoint)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="simulation seed (default 7); with --table chaos an explicit "
        "seed runs exactly that one schedule — the failing-seed repro path "
        "(same for --table heal)",
    )
    parser.add_argument(
        "--chaos-live",
        action="store_true",
        help="include a live (real-socket) run in the chaos or heal sweep",
    )
    parser.add_argument(
        "--concurrency-case",
        type=int,
        default=2,
        help="bridge case for the concurrency and sharding sweeps (1..6)",
    )
    parser.add_argument(
        "--sharding-clients",
        type=int,
        default=DEFAULT_SHARDING_CLIENTS,
        help="concurrent clients held constant while the worker count is swept",
    )
    parser.add_argument(
        "--live-clients",
        type=int,
        default=DEFAULT_LIVE_CLIENTS,
        help="concurrent OS-socket clients of the live-sharding sweep",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    lines: List[str] = []
    seed = args.seed if args.seed is not None else 7

    legacy = connectors = None
    if args.table in ("fig12a", "overhead", "all"):
        legacy = run_fig12a(repetitions=args.repetitions, seed=seed)
    if args.table in ("fig12b", "overhead", "all"):
        connectors = run_fig12b(repetitions=args.repetitions, seed=seed)

    if args.table in ("fig12a", "all") and legacy is not None:
        lines.append(format_fig12a(legacy))
        lines.append("")
    if args.table in ("fig12b", "all") and connectors is not None:
        lines.append(format_fig12b(connectors))
        lines.append("")
    if args.table in ("overhead", "all") and legacy is not None and connectors is not None:
        lines.append("Overhead relative to the source protocol's legacy lookup (Section VI)")
        lines.append("-" * 70)
        for label, percentage in overhead_ratios(legacy, connectors):
            lines.append(f"{label:<24} {percentage:8.1f} %")
        lines.append("")
    if args.table in ("concurrency", "all"):
        try:
            rows = run_concurrency(case=args.concurrency_case, seed=seed)
        except ValueError as exc:
            print("\n".join(lines).rstrip())
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(format_concurrency(rows))
        lines.append("")
    if args.table in ("sharding", "all"):
        try:
            sharding_rows = run_sharding(
                case=args.concurrency_case,
                clients=args.sharding_clients,
                seed=seed,
            )
        except ValueError as exc:
            print("\n".join(lines).rstrip())
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(format_sharding(sharding_rows))
        lines.append("")
    if args.table in ("elastic", "all"):
        try:
            elastic_result = run_elastic(case=args.concurrency_case, seed=seed)
        except (ValueError, RuntimeError) as exc:
            print("\n".join(lines).rstrip())
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(format_elastic(elastic_result))
        lines.append("")
    if args.table == "chaos":
        # An explicit --seed runs exactly that one schedule — the repro
        # path printed when a sweep (or the soak test) goes red.
        seeds = (args.seed,) if args.seed is not None else DEFAULT_CHAOS_SEEDS
        try:
            chaos_results = run_chaos(
                case=args.concurrency_case,
                seeds=seeds,
                include_live=args.chaos_live,
                raise_on_failure=False,
            )
        except ValueError as exc:
            print("\n".join(lines).rstrip())
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(format_chaos(chaos_results))
        path = write_chaos_results(chaos_results, case=args.concurrency_case)
        lines.append(f"(rows written to {path})")
        lines.append("")
        if not all(result.ok for result in chaos_results):
            print("\n".join(lines).rstrip())
            return 2
    if args.table == "heal":
        # Same replay contract as chaos: an explicit --seed runs exactly
        # that one self-healing schedule.
        seeds = (args.seed,) if args.seed is not None else DEFAULT_HEAL_SEEDS
        try:
            heal_results = run_heal(
                case=args.concurrency_case,
                seeds=seeds,
                include_live=args.chaos_live,
                raise_on_failure=False,
            )
        except ValueError as exc:
            print("\n".join(lines).rstrip())
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(format_heal(heal_results))
        path = write_heal_results(heal_results, case=args.concurrency_case)
        lines.append(f"(rows written to {path})")
        for postmortem_path in write_postmortems(heal_results):
            lines.append(f"(postmortem written to {postmortem_path})")
        lines.append("")
        if not all(result.ok for result in heal_results):
            print("\n".join(lines).rstrip())
            return 2
    if args.table == "micro":
        # --repetitions defaults to the paper's 100 lookups per row; a
        # micro-benchmark loop needs more iterations than that to average
        # out noise, so an untouched default means "use the micro default".
        repetitions = (
            args.repetitions
            if args.repetitions != DEFAULT_REPETITIONS
            else DEFAULT_MICRO_REPETITIONS
        )
        try:
            micro_result = run_micro(repetitions=repetitions)
        except (ValueError, RuntimeError) as exc:
            print("\n".join(lines).rstrip())
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(format_micro(micro_result))
        path = write_micro_results(micro_result)
        lines.append(f"(rows written to {path})")
        lines.append("")
    if args.table == "live-sharding":
        try:
            live_rows = run_live_sharding(
                case=args.concurrency_case,
                clients=args.live_clients,
                worker_counts=DEFAULT_LIVE_WORKER_COUNTS,
            )
        except (ValueError, OSError, RuntimeError) as exc:
            print("\n".join(lines).rstrip())
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(format_live_sharding(live_rows))
        path = write_live_sharding_results(
            live_rows, clients=args.live_clients, case=args.concurrency_case
        )
        lines.append(f"(rows written to {path})")
        lines.append("")
    if args.table == "latency":
        try:
            try:
                latency_rows = run_latency(case=args.concurrency_case, seed=seed)
            except OSError:
                # No loopback sockets (sandboxed CI) — the simulated rows
                # still attribute every stage, so degrade instead of dying.
                latency_rows = run_latency(
                    case=args.concurrency_case, seed=seed, include_live=False
                )
        except (ValueError, RuntimeError) as exc:
            print("\n".join(lines).rstrip())
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(format_latency(latency_rows))
        overhead = run_trace_overhead(case=args.concurrency_case)
        verdict = "ok" if overhead.ok else "FAIL"
        lines.append(
            f"trace overhead at default sampling: "
            f"{overhead.overhead_pct:+.2f}% "
            f"(gate < {TRACE_OVERHEAD_THRESHOLD_PCT:.0f}%, {verdict})"
        )
        path = write_latency_results(
            latency_rows, case=args.concurrency_case, overhead=overhead
        )
        lines.append(f"(rows written to {path})")
        trace_path = write_trace_sample(case=args.concurrency_case, seed=seed)
        lines.append(f"(sample trace export written to {trace_path})")
        lines.append("")
    if args.table == "telemetry":
        try:
            telemetry_result = run_telemetry(case=args.concurrency_case)
        except (ValueError, RuntimeError, OSError) as exc:
            print("\n".join(lines).rstrip())
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines.append(format_telemetry(telemetry_result))
        path = write_telemetry_results(telemetry_result)
        lines.append(f"(rows written to {path})")
        lines.append("")
        if not telemetry_result.ok:
            print("\n".join(lines).rstrip())
            return 2

    print("\n".join(lines).rstrip())
    return 0
