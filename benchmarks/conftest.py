"""Shared fixtures for the benchmark suite.

Every benchmark prints the regenerated table (or matrix) next to the
paper's published numbers, and additionally uses pytest-benchmark to time
the real (wall-clock) cost of the operation under test.  The simulated
latencies reproduce the *shape* of Fig. 12; the wall-clock timings expose
the framework's actual processing cost on this machine.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.evaluation.harness import environment_stamp  # noqa: E402

#: Repetitions used for the simulated tables.  The paper uses 100; the
#: simulation is fast enough to match it.
REPETITIONS = int(os.environ.get("REPRO_BENCH_REPETITIONS", "100"))

#: Where machine-readable BENCH_<name>.json results land (repo root by
#: default; CI uploads them as artifacts so the perf trajectory is
#: comparable across PRs).
RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS_DIR", _ROOT)


def write_bench_results(name: str, rows, **extra) -> str:
    """Write one benchmark's rows to ``BENCH_<name>.json`` and return the path.

    ``rows`` is a list of JSON-serialisable dicts (one per table row);
    ``extra`` records run parameters (client counts, seeds, ...).
    """
    payload = {"benchmark": name, **environment_stamp(), "rows": list(rows)}
    payload.update(extra)
    path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@pytest.fixture(scope="session")
def repetitions() -> int:
    return REPETITIONS


@pytest.fixture(scope="session")
def bench_results():
    """The :func:`write_bench_results` writer, as a fixture."""
    return write_bench_results
