"""The one worker loop (`repro.runtime.worker`), on both runtimes.

Every test here runs once on the simulation and once on real loopback
sockets, with the same topology (``live_twin_scenario`` is the simulated
twin of ``live_sharded_scenario``): the worker loop, its wedge and its
heartbeat rule are one mechanism, so they must read the same on either.
"""

from __future__ import annotations

import pytest

from case2_utils import SERVICE_URL, attach_clients, deploy_case2, mdns_answer
from repro.evaluation.workloads import live_sharded_scenario, live_twin_scenario
from repro.network.simulated import SimulatedNetwork
from repro.network.sockets import loopback_available
from repro.runtime import FailureDetector, HealthController, HealthPolicy

RUNTIMES = [
    "simulated",
    pytest.param(
        "live",
        marks=pytest.mark.skipif(
            not loopback_available(), reason="loopback sockets unavailable"
        ),
    ),
]

#: A policy that never acts: the tests read the probe signals themselves.
_WATCH_ONLY = HealthPolicy(
    heartbeat_wedge_threshold=1e6,
    queue_depth_ceiling=1_000_000,
    busy_backlog_ceiling=1e6,
)


class _Deployment:
    """Case 2 (SLP to Bonjour) on either runtime, driven the same way."""

    def __init__(self, kind: str, clients: int, workers: int, processing_delay: float):
        self.kind = kind
        if kind == "simulated":
            scenario = live_twin_scenario(
                2, clients=clients, workers=workers, processing_delay=processing_delay
            )
            self.runtime = scenario.bridge
        else:
            scenario = live_sharded_scenario(
                2, clients=clients, workers=workers, processing_delay=processing_delay
            )
            self.runtime = scenario.runtime
        self.network = scenario.network
        self.clients = scenario.clients
        self.target = scenario.target

    def close(self) -> None:
        self.runtime.undeploy()
        self.network.close()


@pytest.mark.parametrize("kind", RUNTIMES)
def test_idle_worker_never_pinged_reads_a_fresh_heartbeat(kind):
    """One heartbeat rule: a worker no health controller ever pinged is
    presumed healthy (age 0.0), however long it idles — it must not read
    as stale merely because nothing happened."""
    deployment = _Deployment(kind, clients=1, workers=2, processing_delay=0.0)
    try:
        deployment.network.run_for(0.5)
        rows = deployment.runtime.metrics(include_latency=False).workers
        assert [row.heartbeat_age for row in rows] == [0.0, 0.0]
        assert [row.queue_depth for row in rows] == [0, 0]
    finally:
        deployment.close()


@pytest.mark.parametrize("kind", RUNTIMES)
def test_wedge_stalls_only_the_victim_worker(kind):
    """``wedge_worker`` pauses one worker's loop, and nothing else.

    While the victim is paused its records queue and its heartbeat goes
    stale, a skewed worker's heartbeat goes stale without a queue, and the
    other workers keep completing lookups.  After the pause the queued
    records run in the order they arrived, every session completes with
    its simulated twin's bytes, and nothing is evicted.
    """
    clients, workers, delay = 6, 3, 0.1
    twin = live_twin_scenario(2, clients=clients, workers=workers, processing_delay=delay)
    assert twin.run().all_found
    twin_bytes = {client.name: tuple(client.raw_responses) for client in twin.clients}

    deployment = _Deployment(kind, clients, workers, delay)
    runtime = deployment.runtime
    controller = HealthController(runtime, FailureDetector(_WATCH_ONLY), interval=0.05)
    try:
        controller.start(deployment.network)
        deployment.network.run_for(0.2)  # every worker has answered pings
        started = [
            (client, client.start_lookup(deployment.network, deployment.target))
            for client in deployment.clients
        ]
        assert deployment.network.run_until(
            lambda: runtime.active_session_count == clients, timeout=5.0
        )
        loaded = [
            worker_id
            for worker_id, worker in zip(runtime.worker_ids, runtime.workers)
            if worker.active_sessions
        ]
        assert len(loaded) >= 2, "the fixed XIDs spread over two workers or more"
        victim = loaded[0]
        skewed = next(wid for wid in runtime.worker_ids if wid != victim)
        healthy = [wid for wid in runtime.worker_ids if wid not in (victim, skewed)]

        # Tag every record posted to the victim, to check the run order.
        shard = runtime._shards[runtime.worker_ids.index(victim)]
        posted, ran = [], []
        post = shard.post

        def tagged_post(job, *args):
            tag = len(posted)
            posted.append(tag)

            def run():
                ran.append(tag)
                return job()

            post(run, *args)

        shard.post = tagged_post
        runtime.wedge_worker(victim, 1.0)
        # Every ping of the next 0.4 s lands 0.3 s late: read at +0.2 s,
        # before the first of them can have landed.
        controller.skew_probes(skewed, 0.3, probes=8)
        deployment.network.run_for(0.2)

        rows = {row.worker_id: row for row in runtime.metrics(include_latency=False).workers}
        assert rows[victim].queue_depth > 0
        assert rows[victim].heartbeat_age > 0.15
        assert rows[victim].busy_backlog > 0.5
        # The skew delays the pings on either runtime: stale, but no queue.
        assert rows[skewed].heartbeat_age > 0.15
        assert rows[skewed].queue_depth == 0
        assert all(rows[wid].heartbeat_age < 0.15 for wid in healthy)
        # Meanwhile the other workers complete lookups.
        assert deployment.network.run_until(
            lambda: any(client.lookup_result(key) is not None for client, key in started),
            timeout=0.3,
        )
        assert shard.queue_depth > 0  # still paused

        assert deployment.network.run_until(
            lambda: all(client.lookup_result(key) is not None for client, key in started),
            timeout=10.0,
        )
        controller.stop()
        assert shard.queue_depth == 0
        assert ran == posted and len(ran) > 1  # every record, in FIFO order
        assert all(client.lookup_result(key).found for client, key in started)
        assert {c.name: tuple(c.raw_responses) for c in deployment.clients} == twin_bytes
        assert runtime.evicted_sessions == []
        assert runtime.worker_errors == []
        assert controller.actions == []
    finally:
        controller.stop()
        deployment.close()


def test_wedge_holds_fan_out_deliveries():
    """The pause holds the datagrams the router fans out, too.

    Case 2's upstream answers arrive by mDNS multicast, so no session key
    routes them: the router offers each one to the idle workers first.
    An answer another worker owns completes during the pause; the paused
    worker's answers wait as its records and complete after it, with
    none counted unrouted.
    """
    network = SimulatedNetwork(seed=11)
    runtime = deploy_case2(network, workers=2)
    clients = attach_clients(network, 6)
    xids = [client.start_lookup(network) for client in clients]
    network.run_for(0.01)
    owners = {
        session.key[2]: worker_id
        for worker_id, worker in zip(runtime.worker_ids, runtime.workers)
        for session in worker.active_sessions
    }
    assert sorted(owners) == xids and len(set(owners.values())) == 2
    victim = owners[xids[0]]
    shard = runtime._shards[runtime.worker_ids.index(victim)]
    held = [xid for xid in xids if owners[xid] == victim]
    free = [xid for xid in xids if owners[xid] != victim]

    resumes_at = network.now() + 0.5
    runtime.wedge_worker(victim, 0.5)
    network.run_for(0.01)
    for xid in xids:
        mdns_answer(network, xid)
    network.run_for(0.2)

    by_xid = dict(zip(xids, clients))
    assert all(by_xid[xid].lookup_result(xid) is not None for xid in free)
    assert all(by_xid[xid].lookup_result(xid) is None for xid in held)
    assert shard.queue_depth == len(held)
    assert sorted(s.key[2] for s in shard.engine.active_sessions) == held

    network.run()
    finished = {
        record.session_key[2]: record.finished_at
        for record in runtime.sessions
        if record.session_key[2] in held
    }
    assert sorted(finished) == held
    assert min(finished.values()) >= resumes_at
    for xid in xids:
        result = by_xid[xid].lookup_result(xid)
        assert result is not None and result.found and result.url == SERVICE_URL
    assert runtime.unrouted_datagrams == 0
    assert runtime.worker_errors == []
