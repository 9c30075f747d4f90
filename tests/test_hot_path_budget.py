"""Hot-path call budget: Python calls per session on the model path.

The compiled model path is straight-line code on purpose — one generated
decoder and encoder per spec, a flat translation plan, one clock read per
delivery and one translation context per session — so its cost is pinned
here as a count, which, unlike a timing, repeats from process to process:
200 sessions of case 2 (SLP to Bonjour, binary codecs only) and of case 1
(SLP to UPnP, the text codecs and a TCP leg) run on the one-worker
simulated ``ShardedRuntime`` at seed 11, after 50 warm-up sessions, under
``sys.setprofile``.  Everything in the simulation counts: legacy clients
and services, the simulated network, the router and the worker.

The budgets are upper bounds — the counts measured when they were set,
plus 10 % — not equalities: the counts depend on the interpreter (CPython
3.12 inlines comprehensions, for one), and a change that makes the path
cheaper only has to lower the bound.
"""

from __future__ import annotations

import sys

import pytest

from repro.evaluation.workloads import sharded_scenario

SEED = 11
WARMUP = 50
SESSIONS = 200
#: Python calls per session measured on CPython 3.11, plus 10 %.
BUDGETS = {2: 267.7 * 1.1, 1: 481.7 * 1.1}


def _calls_per_session(case: int) -> float:
    scenario = sharded_scenario(case, clients=WARMUP + SESSIONS, workers=1, seed=SEED)
    network = scenario.network

    def run(clients) -> None:
        keys = [(client, client.start_lookup(network, scenario.target)) for client in clients]
        network.run()
        assert all(client.lookup_result(key) is not None for client, key in keys)

    run(scenario.clients[:WARMUP])
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        run(scenario.clients[WARMUP:])
    finally:
        sys.setprofile(None)
    return calls / SESSIONS


@pytest.mark.parametrize("case", sorted(BUDGETS))
def test_python_calls_per_session_stay_within_budget(case):
    measured = _calls_per_session(case)
    assert measured <= BUDGETS[case], (
        f"case {case}: {measured:.1f} Python calls per session, "
        f"budget {BUDGETS[case]:.1f}"
    )
