"""Live sharded runtime: the scheduling demo over loopback sockets.

`bench_sharded_runtime.py` proves the sharding design scales on the
simulation's virtual clock.  This benchmark deploys the *same objects* —
router, workers, read-only model — as a live runtime
(:class:`~repro.runtime.aio_live.AsyncLiveShardedRuntime` on an
:class:`~repro.network.aio.AsyncSocketNetwork`, every worker a task on
one event loop) and sweeps 1 / 2 / 4 / 8 shards under ``CLIENTS``
(default 1000) concurrent OS-socket clients.

**What the throughput column is:** every translated send is charged a
*modelled* ``processing_delay`` of 5 ms, serialised per worker, so the
workers parallelise a ``call_later`` timer, not compute — the table and
``BENCH_live_sharding.json`` say so in their header.  The bridge's real
work at ``processing_delay=0`` is measured by ``bench/`` (see
``BENCHMARK.json``), from outside the process.

The sweep asserts:

* every client is served at every shard count, nothing unrouted;
* the raw bytes each client receives are **identical to the simulated
  twin** of the same topology (same loopback host/ports, same pinned
  transaction identifiers) — going live changes when things happen, never
  what is said;
* the modelled timer keeps parallelising past 4 shards (the 8-shard row's
  speedup over the single-shard row beats the 4-shard row's).

Results land in ``BENCH_live_sharding.json`` (CI uploads them alongside
the simulated sweeps).  Skipped automatically where loopback sockets
cannot be bound.
"""

from __future__ import annotations

import os

import pytest

from repro.evaluation.harness import LIVE_SHARDING_NOTE, run_live_sharding
from repro.evaluation.tables import format_live_sharding
from repro.network.sockets import loopback_available

#: Concurrent OS-socket clients — a single event loop carries all of them.
CLIENTS = int(os.environ.get("REPRO_BENCH_LIVE_CLIENTS", "1000"))

WORKER_COUNTS = (1, 2, 4, 8)

#: The swept case: SLP clients, Bonjour service — UDP end to end, so the
#: rows show the runtime's own scheduling, not TCP handshake cost.
CASE = 2

#: Wall-clock budget per row: the single-shard row serialises two
#: modelled 5 ms sends per client (~10 s at the default load).
ROW_TIMEOUT = 60.0


pytestmark = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


def test_live_sharding_scaling(capsys, benchmark, bench_results):
    def sweep():
        return run_live_sharding(
            case=CASE, clients=CLIENTS, worker_counts=WORKER_COUNTS, timeout=ROW_TIMEOUT
        )

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_live_sharding(rows))
    bench_results(
        "live_sharding",
        [row.as_row() for row in rows],
        note=LIVE_SHARDING_NOTE,
        case=CASE,
        clients=CLIENTS,
        worker_counts=list(WORKER_COUNTS),
    )

    # Completeness at every shard count: all clients served, nothing
    # dropped, and the translated bytes equal the simulated twin's.
    for row in rows:
        assert row.completed == CLIENTS
        assert row.unrouted == 0
        assert sum(row.worker_sessions) == CLIENTS
        assert row.outputs_match_simulated

    # Wall-clock rows carry scheduler jitter, so no monotonicity assertion
    # beyond the headline: the timer keeps parallelising past 4 shards.
    by_workers = {row.workers: row for row in rows}
    assert by_workers[8].speedup > by_workers[4].speedup
