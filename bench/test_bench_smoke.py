"""Tier-1 smoke: the benchmark still runs end to end and loses nothing.

``bench/run.py --quick`` (2 s of ``udp_w4`` and ``reject_w1``) must finish,
answer every lookup with the simulated twin's bytes, and emit every
end-to-end metric ``BENCHMARK.json`` names.  No timing is asserted.

``tcp_w1`` is left out on purpose: each of its sessions dials a TCP
connection, and the ~1 500 ``TIME_WAIT`` sockets a 2 s run leaves on random
ephemeral ports would, for a minute, make the fixed-port binds of the live
tests that run after this one fail with ``EADDRINUSE``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.network.sockets import loopback_available

BENCH = Path(__file__).resolve().parent
#: ``bench/run.py``'s exit code for "the generator was late / CPU-bound":
#: the machine was too busy to measure, which is not a defect of the code.
EXIT_INVALID = 3


@pytest.mark.skipif(not loopback_available(), reason="loopback sockets unavailable")
def test_quick_run_is_complete_and_loses_nothing(tmp_path):
    out = tmp_path / "results.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--seed", "11", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode == EXIT_INVALID:
        pytest.skip(f"machine too busy to generate load on time: {done.stderr.strip()}")
    assert done.returncode == 0, done.stderr
    results = json.loads(out.read_text())
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(results["workloads"]) == {"udp_w4", "reject_w1"}
    for name, row in results["workloads"].items():
        assert row["failed"] == 0, f"{name}: {row['failed']} of {row['attempted']} lookups failed"
        for metric in spec["end_to_end"]:
            assert row["end_to_end"][metric["name"]] > 0, (name, metric["name"])
