"""Out-of-process, zero-delay lookup benchmark of the Starlink bridge.

    python3 bench/run.py --seed 11                 # four workloads, end to end
    python3 bench/run.py --seed 11 --traced        # ... plus the per-layer budget
    python3 bench/run.py --workload udp_w1 --seed 3 --seconds 20 --trace 0

The bridge runs as a separate process (``bench/sut.py``); this process is
the load generator and the judge.  Run shape, metrics, workloads and limits
are documented in ``bench/README.md``; names, units, directions and bounds
live in ``BENCHMARK.json``, which this file reads rather than repeats.

Exit codes: 0 measured and correct; 1 a reply had the wrong bytes, a worker
raised or the SUT died; 3 the *generator* was not trustworthy (ran late,
was CPU-bound, or left a growing backlog) so no number is reported.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

from garbage import GARBAGE_CORPUS  # noqa: E402
from loadgen import SLICE_S, LoadGenerator, PhaseResult  # noqa: E402

EXIT_INCORRECT = 1
EXIT_INVALID = 3

WARMUP_LOOKUPS = 500
WARMUP_WINDOW = 8
#: In flight against the echo probe (``network.echo_per_s``).
ECHO_WINDOW = 32
ECHO_SECONDS = 1.0
#: A full-length run measures this many SUT processes in turn (``rounds_for``).
MAX_ROUNDS = 5
#: ... as long as each round's phases still span this many whole slices.
MIN_PHASE_SLICES = 2
#: Rounds a run may discard and repeat before it is declared invalid.
MAX_DISCARDED = 5
GARBAGE_PER_LOOKUP = 3
#: Generator-validity limits (see ``validity_problem``).
MAX_LATE_MS = 20.0
MAX_CPU_SHARE = 0.8
#: In-flight counts below this are noise, not a backlog.
BACKLOG_FLOOR = 16
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class Workload:
    case: int
    workers: int
    #: Open-loop arrival rate, valid lookups per second (≈ ⅓ of capacity).
    rate: int
    #: Lookups in flight in the closed phase.
    window: int = 32
    garbage: bool = False


WORKLOADS: Dict[str, Workload] = {
    "udp_w1": Workload(case=2, workers=1, rate=600),
    "udp_w4": Workload(case=2, workers=4, rate=600),
    # 1 in flight, not 32: the SUT is saturated even so (the legacy service
    # shares its process: 0.95 of a core), and the runtime's per-session
    # ephemeral UDP binds collide with one another in proportion to the
    # sessions alive at once, which loses ~2 lookups in 10 000 at 32 in
    # flight and none serially (README, "Limits").
    "tcp_w1": Workload(case=1, workers=1, rate=250, window=1),
    "reject_w1": Workload(case=2, workers=1, rate=400, garbage=True),
}

SPAN_NAMES = (
    "runtime.router.on_datagram",
    "runtime.worker.on_datagram",
    "core.engine.classify",
    "core.engine.dispatch",
    "core.mdl.parse",
    "core.mdl.compose",
    "core.translation.apply",
    "network.send",
    "protocols.service",
)


class SutDied(RuntimeError):
    pass


class InvalidRun(RuntimeError):
    """The generator, not the bridge, limited what was measured."""


class Sut:
    """A system-under-test child process and the view of it from outside."""

    def __init__(self, script: str, arguments: List[str], stderr_path: Path) -> None:
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), *arguments],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        try:
            ready = self._line("READY", timeout=60.0)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.target = tuple(ready["slp"])
        self.pid = ready["pid"]

    def _line(self, tag: str, timeout: float) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if readable else ""
        if not line.startswith(tag + " "):
            raise SutDied(
                f"expected {tag} from the SUT, got {line!r}; see {self.stderr_path}"
            )
        return json.loads(line[len(tag) + 1 :])

    def cpu_s(self) -> float:
        """utime + stime of the whole process, read from outside."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def rss_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
        raise SutDied("the SUT has no VmRSS (it exited)")

    def stop(self) -> dict:
        """``STOP`` → the counters the SUT read before undeploying."""
        try:
            self.proc.stdin.write(b"STOP\n")
            self.proc.stdin.flush()
            metrics = self._line("METRICS", timeout=120.0)
            self.proc.wait(timeout=30.0)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise SutDied(
                f"the SUT exited with {self.proc.returncode}; see {self.stderr_path}"
            )
        return metrics

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout, self._stderr):
            pipe.close()


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def udp_rcvbuf_errors() -> int:
    """System-wide UDP ``RcvbufErrors`` (``/proc/net/snmp``)."""
    text = Path("/proc/net/snmp").read_text()
    names, values = (line.split() for line in text.splitlines() if line.startswith("Udp:"))
    return int(dict(zip(names, values))["RcvbufErrors"])


def percentile(ordered: List[float], fraction: float) -> float:
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def closed_slices(phase: PhaseResult) -> Tuple[List[float], List[float]]:
    """Per slice of a closed phase: lookups per second, SUT CPU µs per lookup."""
    rates, costs = [], []
    for (t0, n0, cpu0), (t1, n1, cpu1) in zip(phase.marks, phase.marks[1:]):
        rates.append((n1 - n0) / (t1 - t0))
        costs.append((cpu1 - cpu0) / (n1 - n0) * 1e6)
    return rates, costs


def open_slices(phase: PhaseResult, fraction: float) -> List[float]:
    """Per slice of an open phase: that percentile of the latencies, in ms,
    of the lookups that were due in the slice."""
    slices: Dict[int, List[float]] = {}
    for due, latency in phase.latencies:
        slices.setdefault(int(due // SLICE_S), []).append(latency)
    return [percentile(sorted(values), fraction) * 1e3 for values in slices.values()]


def calibration_mops() -> float:
    """A fixed pure-Python loop, so rows from different machines compare as
    ratios (millions of loop iterations per second)."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return 2.0 / (time.perf_counter() - started)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() or "unknown"


def environment(seed: int, substrate: str) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "loop": "asyncio" if substrate == "aio" else "threads",
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "seed": seed,
        "calib_mops": calibration_mops(),
    }


def rounds_for(seconds: float) -> int:
    """SUT processes a run of ``seconds`` is spread over (5 from 20 s up)."""
    return max(1, min(MAX_ROUNDS, int(seconds / 2 / (MIN_PHASE_SLICES * SLICE_S))))


def validity_problem(open_phase: PhaseResult) -> Optional[str]:
    """Why the open phase measured the generator instead of the bridge."""
    if open_phase.max_late_s * 1e3 > MAX_LATE_MS:
        late_ms = open_phase.max_late_s * 1e3
        return f"the generator ran {late_ms:.1f} ms late (limit {MAX_LATE_MS})"
    share = open_phase.cpu_s / open_phase.wall_s
    if share > MAX_CPU_SHARE:
        return f"the generator used {share:.2f} of a core (limit {MAX_CPU_SHARE})"
    if open_phase.inflight_end > 2 * max(open_phase.inflight_mid, BACKLOG_FLOOR):
        return (
            f"backlog grew: {open_phase.inflight_end} lookups in flight at the end, "
            f"{open_phase.inflight_mid} at the midpoint"
        )
    return None


def seeded_inputs(workload: Workload, seed: int):
    """The inputs ``--seed`` fixes: the order of the 65 535 XIDs and, for
    ``reject_w1``, the garbage sent before each lookup."""
    rng = random.Random(seed)
    xids = list(range(1, 0x10000))
    rng.shuffle(xids)
    garbage = None
    if workload.garbage:
        garbage = iter(lambda: rng.choices(GARBAGE_CORPUS, k=GARBAGE_PER_LOOKUP), None)
    return itertools.cycle(xids), garbage


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def measure_round(
    workload: Workload, phase_s: float, arguments: List[str], traffic, stderr: Path
) -> dict:
    """One fresh SUT process through the run shape: spawn (timed), warm-up,
    open phase, RSS, closed phase with the SUT's CPU sampled from outside,
    counters at STOP.  Raises :class:`InvalidRun` if the generator was late."""
    sut = Sut("sut.py", arguments, stderr)
    load = LoadGenerator(sut.target, *traffic)
    try:
        cpu_ready = sut.cpu_s()
        warm = load.closed(min(WARMUP_WINDOW, workload.window), lookups=WARMUP_LOOKUPS)
        drops_before = udp_rcvbuf_errors()
        opened = load.open(workload.rate, phase_s)
        rss_mb = sut.rss_mb()
        closed = load.closed(workload.window, seconds=phase_s, probe=sut.cpu_s)
        drops = udp_rcvbuf_errors() - drops_before
        cpu_s = sut.cpu_s() - cpu_ready
        counters = sut.stop()
    finally:
        load.close()
        sut.kill()
    problem = validity_problem(opened)
    if problem:
        raise InvalidRun(problem)
    return {
        "setup_s": sut.setup_s,
        "rss_mb": rss_mb,
        "cpu_s": cpu_s,
        "phases": (warm, opened, closed),
        "drops": drops,
        "counters": counters,
    }


def measure(
    name: str, seed: int, seconds: float, substrate: str, templates, traced: bool = False
) -> dict:
    """The run shape, in rounds, on plain or (``traced``) instrumented SUTs.

    Identical SUT processes differ by several percent (address-space
    layout), so a run measures several in turn: its timing metrics are
    medians over the slices of *all* rounds, its counters sums.  A round in
    which the generator ran late is discarded and repeated, at most
    :data:`MAX_DISCARDED` times per run — one hiccup of the box must neither
    enter a number nor void twenty seconds of measurement.
    """
    workload = WORKLOADS[name]
    rounds = rounds_for(seconds)
    request, expected = templates
    traffic = (request.fill, expected.fill, *seeded_inputs(workload, seed))
    arguments = [
        "--case", str(workload.case),
        "--workers", str(workload.workers),
        "--substrate", substrate,
    ]  # fmt: skip
    stderr = OUT / f"sut_{name}.stderr"
    if traced:
        arguments += ["--traced", str(OUT / f"trace_{name}.json")]
        stderr = OUT / f"sut_{name}_traced.stderr"
    done, discarded = [], 0
    while len(done) < rounds:
        try:
            done.append(measure_round(workload, seconds / 2 / rounds, arguments, traffic, stderr))
        except InvalidRun as problem:
            discarded += 1
            print(f"  discarded a round of {name}: {problem}", file=sys.stderr)
            if discarded > MAX_DISCARDED:
                raise InvalidRun(f"{name}: {discarded} rounds discarded, last: {problem}")

    counters = merged([row["counters"] for row in done])
    per_worker = counters.pop("runtime.completed_per_worker")
    spans = counters.pop("spans", None)
    phases = [phase for row in done for phase in row["phases"]]
    opened = [row["phases"][1] for row in done]
    closed = [closed_slices(row["phases"][2]) for row in done]
    latencies = sorted(latency for phase in opened for _, latency in phase.latencies)
    failed = sum(phase.failed for phase in phases)
    drops = sum(row["drops"] for row in done)
    layers = dict(counters)
    layers.update(
        {
            "runtime.session_skew": max(per_worker) / (sum(per_worker) / len(per_worker)),
            "kernel.udp_rcvbuf_errors": drops,
            "loadgen.max_late_ms": max(phase.max_late_s for phase in opened) * 1e3,
            "loadgen.cpu_share": sum(p.cpu_s for p in opened) / sum(p.wall_s for p in opened),
            "loadgen.lookup_p90_ms": statistics.median(
                v for p in opened for v in open_slices(p, 0.90)
            ),
            "loadgen.lookup_p99_ms": percentile(latencies, 0.99) * 1e3,
            "loadgen.discarded_rounds": discarded,
            # Lost lookups nobody counted: failures that neither the kernel
            # (receive-buffer drops) nor the router (unrouted) owns up to.
            "loadgen.unaccounted": max(0, failed - drops - counters["runtime.unrouted"]),
            # Every round's SUT appended to the one file.
            "sut.stderr_lines": len(stderr.read_bytes().splitlines()),
        }
    )
    rates = [rate for slice_rates, _ in closed for rate in slice_rates]
    return {
        "attempted": sum(phase.attempted for phase in phases),
        "failed": failed,
        "mismatched": sum(phase.mismatched for phase in phases),
        "samples": {
            "rounds": rounds,
            "slices": len(rates),
            "open_lookups": len(latencies),
            "closed_lookups": sum(row["phases"][2].marks[-1][1] for row in done),
        },
        "end_to_end": {
            "sessions_per_s": statistics.median(rates),
            "cpu_us_per_session": statistics.median(c for _, costs in closed for c in costs),
            "lookup_p50_ms": statistics.median(v for p in opened for v in open_slices(p, 0.50)),
            "rss_mb": statistics.median(row["rss_mb"] for row in done),
            "setup_s": statistics.median(row["setup_s"] for row in done),
        },
        "per_layer": layers,
        # For ``layer_budget``: the spans and the CPU of READY → STOP, all phases.
        "spans": spans,
        "cpu_s": sum(row["cpu_s"] for row in done),
    }


def merged(values: list):
    """Sum one counter over the rounds (numbers, lists or dicts of numbers)."""
    first = values[0]
    if isinstance(first, dict):
        return {key: merged([value[key] for value in values]) for key in first}
    if isinstance(first, list):
        return [sum(column) for column in zip(*values)]
    return sum(values)


def layer_budget(traced: dict, untraced: dict) -> dict:
    """The per-layer numbers of an instrumented run of the same shape."""
    spans = traced["spans"]
    # Spans are recorded from READY to STOP, so sessions and CPU are counted
    # over the same stretch: warm-up, open and closed phases of every round.
    sessions = traced["attempted"] - traced["failed"]
    layers = {}
    for span in SPAN_NAMES:
        layers[f"{span}.calls"] = spans["calls"][span] / sessions
        layers[f"{span}.self_us"] = spans["self_ns"][span] / sessions / 1e3
    self_us = sum(value for key, value in layers.items() if key.endswith(".self_us"))
    layers["runtime.handoff_us"] = spans["handoff_ns"] / max(1, spans["handoffs"]) / 1e3
    layers["sut.traced_cpu_us"] = traced["cpu_s"] / sessions * 1e6
    layers["sut.untraced_us"] = layers["sut.traced_cpu_us"] - self_us
    base_rate = untraced["end_to_end"]["sessions_per_s"]
    traced_rate = traced["end_to_end"]["sessions_per_s"]
    layers["trace.overhead_pct"] = (base_rate - traced_rate) / base_rate * 100.0
    return layers


def measure_probes() -> dict:
    """The direct probes: an echo node driven from here, four timed calls
    inside the probe process."""
    sut = Sut("probes.py", [], OUT / "sut_probes.stderr")

    def datagram(xid: int) -> bytes:  # an SLP-header-sized payload around the XID
        return b"\x02\x01" + b"\x00" * 8 + xid.to_bytes(2, "big") + b"\x00\x02en"

    xids = itertools.cycle(range(1, 0x10000))
    load = LoadGenerator(sut.target, datagram, datagram, xids)  # the node echoes
    try:
        load.closed(WARMUP_WINDOW, lookups=WARMUP_LOOKUPS)
        serial = load.closed(1, seconds=ECHO_SECONDS)
        pipelined = load.closed(ECHO_WINDOW, seconds=ECHO_SECONDS)
        layers = sut.stop()
    finally:
        load.close()
        sut.kill()
    if serial.failed or pipelined.failed:
        raise SutDied("the echo probe lost or corrupted datagrams")
    layers["network.echo_rtt_us"] = statistics.median(l for _, l in serial.latencies) * 1e6
    layers["network.echo_per_s"] = statistics.median(closed_slices(pipelined)[0])
    return layers


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def print_workload(name: str, row: dict, spec: dict, seconds: float) -> None:
    workload = WORKLOADS[name]
    samples = row["samples"]
    slices = (
        f"median of {samples['slices']} x {SLICE_S:g} s slices "
        f"over {samples['rounds']} SUT processes"
    )
    closed = f"n={samples['closed_lookups']}, {slices}"
    noted = {
        "sessions_per_s": f"closed loop, {workload.window} in flight, {closed}",
        "cpu_us_per_session": f"SUT utime+stime, {closed}",
        "lookup_p50_ms": f"open loop {workload.rate}/s, n={samples['open_lookups']}, {slices}",
        "rss_mb": f"SUT VmRSS after the open phase, median of {samples['rounds']}",
        "setup_s": f"spawn to READY, median of {samples['rounds']}",
    }
    print(
        f"\n== {name}: case {workload.case}, {workload.workers} worker(s), "
        f"{seconds:g} s measured =="
    )
    failed_pct = 100.0 * row["failed"] / row["attempted"]
    lost = f"{row['failed']} of {row['attempted']} lookups"
    print(f"  {'failed_pct':<26}{failed_pct:>12.4f} %      ({lost})")
    for metric in spec["end_to_end"]:
        name, value = metric["name"], row["end_to_end"][metric["name"]]
        print(f"  {name:<26}{value:>12.4f} {metric['unit']:<6} ({noted[name]})")
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for layer, value in sorted(row["per_layer"].items()):
        print(f"    {layer:<40}{value:>14.4f} {units.get(layer, '')}")


def contract_line(row: dict, names: List[dict], section: str, correct: bool) -> str:
    metrics = {
        metric["name"]: {"value": row[section][metric["name"]], "unit": metric["unit"]}
        for metric in names
    }
    return json.dumps(
        {
            "correct": correct,
            "attempted": row["attempted"],
            "failed": row["failed"],
            "metrics": metrics,
        }
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument(
        "--quick", action="store_true", help="2 s runs of udp_w4 and reject_w1 (the tier-1 smoke)"
    )
    parser.add_argument(
        "--substrate",
        choices=("aio", "thread"),
        default="aio",
        help="thread: ad-hoc bake-offs only, untraced",
    )
    parser.add_argument("--out", type=Path, default=OUT / "results.json")
    args = parser.parse_args()
    if args.quick:
        # UDP only: tcp_w1 leaves ~1 500 TIME_WAIT sockets on random ephemeral
        # ports for a minute, and the repo's tests bind fixed ports up there.
        args.seconds, args.workload = 2.0, ["udp_w4", "reject_w1"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if args.trace and args.substrate != "aio":
        parser.error("--trace 1 needs the single-loop (aio) substrate")

    try:  # imported late: it pulls in ``repro``
        from reference import templates
    except ModuleNotFoundError as missing:
        print(f"cannot import the bridge ({missing}): is src/ in this checkout?", file=sys.stderr)
        return EXIT_INCORRECT

    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob("sut_*.stderr"):  # SUTs append: one file per workload
        stale.unlink()
    gc.disable()  # a collection pause in the generator would be charged to the bridge
    results = {
        "env": environment(args.seed, args.substrate),
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "workloads": {},
    }
    incorrect = False
    try:
        probes = measure_probes() if args.trace else {}
        for name in names:
            case_templates = templates(WORKLOADS[name].case, args.seed)
            row = measure(name, args.seed, args.seconds, args.substrate, case_templates)
            del row["spans"], row["cpu_s"]
            if args.trace:
                traced = measure(name, args.seed, args.seconds, "aio", case_templates, traced=True)
                row["per_layer"].update(layer_budget(traced, row), **probes)
                for count in ("attempted", "failed", "mismatched"):
                    row[count] += traced[count]
                for count in ("core.engine.worker_errors", "loadgen.discarded_rounds"):
                    row["per_layer"][count] += traced["per_layer"][count]
            results["workloads"][name] = row
            print_workload(name, row, spec, args.seconds)
            if row["mismatched"] or row["per_layer"]["core.engine.worker_errors"]:
                incorrect = True
    except InvalidRun as problem:
        print(f"INVALID RUN: {problem}", file=sys.stderr)
        return EXIT_INVALID
    except SutDied as problem:
        print(f"SUT FAILURE: {problem}", file=sys.stderr)
        return EXIT_INCORRECT
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nwrote {args.out}")
    if incorrect:
        print("INCORRECT: a reply differed from the twin's, or a worker raised", file=sys.stderr)
    if len(names) == 1:
        section = "per_layer" if args.trace else "end_to_end"
        print(contract_line(results["workloads"][names[0]], spec[section], section, not incorrect))
    return EXIT_INCORRECT if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
