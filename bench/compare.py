"""Apply the benchmark's own bounds to two result files.

    python3 bench/compare.py A.json B.json

``A`` is the base, ``B`` the candidate; both are files written by
``bench/run.py``.  One row per (workload, end-to-end metric) with both
values, the ratio B/A and a verdict: ``worse`` when B is beyond the
metric's bound from ``BENCHMARK.json`` in the bad direction, ``better``
when it is beyond it in the good one, ``ok`` in between.  ``failed_pct``
(failed / attempted × 100) has an absolute bound instead, because its base
is normally zero.  Exits 1 on any ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: ``failed_pct`` may rise by this many percentage points.
FAILED_PCT_BOUND = 0.1


def verdict(base: float, candidate: float, better: str, bound: float) -> str:
    change = (candidate - base) / base
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "ok"


def failed_pct(row: dict) -> float:
    return 100.0 * row["failed"] / row["attempted"]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    base, candidate = (json.loads(Path(path).read_text()) for path in argv[1:])
    for side, path, result in (("A", argv[1], base), ("B", argv[2], candidate)):
        env = result["env"]
        print(
            f"{side}: {path}  commit {env['commit'][:12]} seed {env['seed']} "
            f"python {env['python']} loop {env['loop']} nproc {env['nproc']} "
            f"calib {env['calib_mops']:.2f} Mops"
        )
    print(f"\n{'workload':<10} {'metric':<20} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>7}  verdict")
    worse = 0
    for name, row_a in base["workloads"].items():
        row_b = candidate["workloads"].get(name)
        if row_b is None:
            continue
        a, b = failed_pct(row_a), failed_pct(row_b)
        outcome = "worse" if b > a + FAILED_PCT_BOUND else "ok"
        worse += outcome == "worse"
        print(f"{name:<10} {'failed_pct':<20} {a:>12.4f} {b:>12.4f} {'':>7} {'+0.1':>7}  {outcome}")
        for metric in spec["end_to_end"]:
            a = row_a["end_to_end"][metric["name"]]
            b = row_b["end_to_end"][metric["name"]]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            worse += outcome == "worse"
            print(
                f"{name:<10} {metric['name']:<20} {a:>12.4f} {b:>12.4f} {b / a:>7.3f} "
                f"{metric['bound']:>7.0%}  {outcome}"
            )
    print(f"\n{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
