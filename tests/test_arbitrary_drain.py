"""Tests for identity-based membership and arbitrary-worker drain.

PR 4's drain protocol could only exclude a *suffix* of the worker list;
these tests pin the generalisation: workers carry stable ids, the ring and
sticky table are keyed by id, and **any** worker can be drained, removed
or replaced loss-free on both runtimes — including the edge cases that
make arbitrary membership hard:

* removing a middle worker never remaps a surviving worker's in-flight
  sessions (the identity-membership invariant);
* the drained worker can be the one holding a session pinned on a
  multicast fan-out leg — the answer still reaches it mid-drain;
* a fan-out pass that captured the victim races its retirement without
  crashing or misrouting;
* a live drain that times out restores full ring membership with no
  sticky-entry leak;
* victim selection (``select_victims`` / the controller's
  ``victim_strategy``) can retire the least-loaded workers wherever they
  sit in the pool.
"""

from __future__ import annotations

import time as _time

import pytest

from case2_utils import SERVICE_URL, attach_clients, deploy_case2, mdns_answer
from repro.core.errors import ConfigurationError, EngineError
from repro.network.addressing import Endpoint, Transport
from repro.network.aio import AsyncSocketNetwork
from repro.network.latency import LatencyModel
from repro.network.sockets import loopback_available
from repro.protocols.mdns import BonjourResponder
from repro.runtime import Autoscaler, AutoscalerPolicy, ElasticController
from repro.runtime.aio_live import AsyncLiveShardedRuntime

live_only = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


def _deploy_case2(network, workers, serialize=False, **kwargs):
    return deploy_case2(network, workers, serialize, **kwargs)


_attach_clients = attach_clients
_mdns_answer = mdns_answer


def _placements(runtime):
    return {
        session.key: worker_id
        for worker_id, worker in zip(runtime.worker_ids, runtime.workers)
        for session in worker.active_sessions
    }


class TestArbitraryDrainSimulated:
    def test_remove_middle_worker_loss_free(self, network):
        """Acceptance: a non-suffix worker drains and retires with every
        in-flight session served and no survivor's key remapped."""
        runtime = _deploy_case2(network, workers=4)
        network.attach(BonjourResponder(latency=LatencyModel(0.3, 0.3)))
        clients = _attach_clients(network, 12)
        xids = [client.start_lookup(network) for client in clients]
        network.run_for(0.01)
        before = _placements(runtime)
        assert len(before) == 12

        victim = 1  # a middle worker: neither first nor last position
        assert runtime.worker_ids == [0, 1, 2, 3]
        runtime.remove_worker(victim)
        assert runtime.scaling_in_progress
        network.run_for(0.1)
        # Mid-drain: the victim still serves its pinned sessions, and the
        # survivors' placements are untouched (identity membership).
        router = runtime.router
        for key, owner in before.items():
            assert router.shard_for_key(key) == owner
        assert runtime.worker_count == 4

        network.run()
        assert runtime.worker_ids == [0, 2, 3]
        assert not runtime.scaling_in_progress
        assert len(runtime.sessions) == 12
        assert runtime.evicted_sessions == []
        assert runtime.unrouted_datagrams == 0
        for client, xid in zip(clients, xids):
            result = client.lookup_result(xid)
            assert result is not None and result.found
        # Every session completed where it opened — including the victim's.
        completed = {record.session_key for record in runtime.sessions}
        assert completed == set(before)

    def test_removed_worker_receives_pinned_multicast_fan_out(self, network):
        """Drain the worker whose session waits on a multicast fan-out
        leg: the answer must still reach it through the router mid-drain."""
        runtime = _deploy_case2(network, workers=3)
        clients = _attach_clients(network, 6)
        xids = [client.start_lookup(network) for client in clients]
        network.run_for(0.01)
        placements = _placements(runtime)
        # Pick a victim that (a) owns at least one session and (b) is not
        # the last pool position — the case the suffix ring could not do.
        owners = set(placements.values())
        victims = [wid for wid in runtime.worker_ids[:-1] if wid in owners]
        assert victims, "expected a non-suffix worker to own a session"
        victim = victims[0]

        runtime.remove_worker(victim)
        network.run_for(0.2)
        assert runtime.scaling_in_progress  # pinned sessions hold the drain

        for xid in xids:
            _mdns_answer(network, xid)
        network.run()

        assert victim not in runtime.worker_ids
        assert not runtime.scaling_in_progress
        assert len(runtime.sessions) == 6
        assert runtime.evicted_sessions == []
        assert runtime.unrouted_datagrams == 0
        for client, xid in zip(clients, xids):
            result = client.lookup_result(xid)
            assert result is not None and result.found and result.url == SERVICE_URL

    def test_fan_out_pass_races_victim_retirement_harmlessly(self, network):
        """A fan-out delivery that captured the victim's engine may execute
        after the victim was detached; it must decline politely — no crash,
        no misroute — and later lookups still work."""
        runtime = _deploy_case2(network, workers=3)
        runtime.drain_poll_interval = 0.0005
        router = runtime.router
        router.hop_delay = 0.05  # deliveries lag classification
        network.attach(BonjourResponder(latency=LatencyModel(0.01, 0.01)))

        # An unsolicited mDNS answer: classified now (fan-out captures all
        # three workers), delivered only after the hop delay.
        _mdns_answer(network, 64000)
        # Remove an idle middle worker; with the tiny poll interval it
        # retires *before* the fan-out delivery fires.
        runtime.remove_worker(runtime.worker_ids[1])
        network.run_for(0.02)
        assert not runtime.scaling_in_progress
        assert runtime.worker_count == 2

        network.run()
        # Nobody wanted the unsolicited answer — it counts unrouted, once —
        # and the retired engine's dispatch was a harmless decline.
        assert router.unrouted_datagrams == 1
        assert runtime.evicted_sessions == []

        (client,) = _attach_clients(network, 1, xid_base=5000)
        xid = client.start_lookup(network)
        network.run()
        assert client.lookup_result(xid).found

    def test_replace_worker_keeps_capacity_and_serves_pinned_sessions(self, network):
        runtime = _deploy_case2(network, workers=2)
        network.attach(BonjourResponder(latency=LatencyModel(0.3, 0.3)))
        clients = _attach_clients(network, 6)
        xids = [client.start_lookup(network) for client in clients]
        network.run_for(0.01)
        victim = runtime.worker_ids[0]

        new_id = runtime.replace_worker(victim)
        # The newcomer is in the ring before the victim retires: capacity
        # never dips below the original pool size.
        assert runtime.worker_count == 3
        assert new_id in runtime.worker_ids
        network.run()
        assert victim not in runtime.worker_ids
        assert runtime.worker_count == 2
        assert len(runtime.sessions) == 6
        assert runtime.evicted_sessions == []
        for client, xid in zip(clients, xids):
            assert client.lookup_result(xid).found
        kinds = [event.kind for event in runtime.scale_events]
        assert kinds == ["grow", "drain-start", "drain-complete"]

    def test_victim_validation_and_strategies(self, network):
        runtime = _deploy_case2(network, workers=4)
        with pytest.raises(ConfigurationError):
            runtime.scale_to(2, victims=[0])  # wrong count
        with pytest.raises(ConfigurationError):
            runtime.scale_to(3, victims=[9])  # unknown id
        with pytest.raises(ConfigurationError):
            runtime.scale_to(2, victims=[1, 1])  # duplicate
        with pytest.raises(ConfigurationError):
            runtime.scale_to(5, victims=[0])  # victims while growing
        with pytest.raises(ConfigurationError):
            runtime.remove_worker(42)
        with pytest.raises(ConfigurationError):
            runtime.select_victims(4, "suffix")  # would empty the pool
        with pytest.raises(ConfigurationError):
            runtime.select_victims(1, "noisiest")  # unknown strategy

        with pytest.raises(ConfigurationError):
            runtime.scale_to(4, victims=[1])  # victims without a shrink
        assert runtime.scale_events == []  # every rejection left no trace

        assert runtime.select_victims(2, "suffix") == [2, 3]
        # A uniformly-loaded pool ties everywhere: both load strategies
        # must fall back to exactly the suffix (highest positions first).
        assert runtime.select_victims(2, "least-loaded") == [3, 2]
        assert runtime.select_victims(2, "most-loaded") == [3, 2]
        # Load the suffix workers; least-loaded must pick the idle head.
        runtime.workers[2].open_session(key=("load", 1))
        runtime.workers[3].open_session(key=("load", 2))
        assert set(runtime.select_victims(2, "least-loaded")) == {0, 1}
        assert set(runtime.select_victims(2, "most-loaded")) == {2, 3}

    def test_controller_least_loaded_strategy_retires_non_suffix_workers(
        self, network
    ):
        """An autoscaler shrink with ``victim_strategy='least-loaded'``
        drains the idle *head* of the pool while the loaded suffix worker
        survives — impossible under suffix-only membership."""
        runtime = _deploy_case2(network, workers=3, serialize=True)
        last = runtime.worker_ids[-1]
        runtime.workers[-1].open_session(key=("pinned", 1))
        runtime.workers[-1].open_session(key=("pinned", 2))
        controller = ElasticController(
            runtime,
            Autoscaler(
                AutoscalerPolicy(
                    scale_down_at=3.0,
                    scale_up_at=100.0,
                    cooldown=0.0,
                    scale_down_patience=1,
                    min_workers=1,
                    max_workers=4,
                )
            ),
            interval=0.05,
            victim_strategy="least-loaded",
        )
        controller.start(network)
        network.run_for(0.2)
        controller.stop()
        network.run()
        assert runtime.worker_ids == [last]
        decisions = controller.decisions
        assert decisions and decisions[-1].desired_workers == 1

    def test_controller_rejects_unknown_victim_strategy_at_construction(
        self, network
    ):
        runtime = _deploy_case2(network, workers=2)
        with pytest.raises(ConfigurationError):
            ElasticController(runtime, victim_strategy="least_loaded")  # typo


@live_only
class TestArbitraryDrainLive:
    def _await(self, predicate, timeout=10.0):
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            if predicate():
                return True
            _time.sleep(0.005)
        return False

    def test_live_remove_middle_worker_loss_free(self):
        """Acceptance (live half): `remove_worker(id)` drains a non-suffix
        worker on real sockets with zero loss and clean worker loops."""
        from repro.evaluation.workloads import _live_bridge, _live_case_parts

        clients, service, target, _ = _live_case_parts(2, 9)
        runtime = AsyncLiveShardedRuntime.from_bridge(_live_bridge(2, 0.0), workers=3)
        network = AsyncSocketNetwork()
        try:
            runtime.deploy(network)
            network.attach(service)
            for client in clients:
                network.attach(client)
            batch1 = [(c, c.start_lookup(network, target)) for c in clients[:3]]
            assert self._await(
                lambda: all(c.lookup_result(k) is not None for c, k in batch1)
            )
            assert runtime.worker_ids == [0, 1, 2]

            batch2 = [(c, c.start_lookup(network, target)) for c in clients[3:6]]
            runtime.remove_worker(1)  # middle worker, mid-traffic; blocks
            assert runtime.worker_ids == [0, 2]
            # Victims without a shrink fail loudly on the live runtime too.
            with pytest.raises(ConfigurationError):
                runtime.scale_to(2, victims=[0])
            assert self._await(
                lambda: all(c.lookup_result(k) is not None for c, k in batch2)
            )

            batch3 = [(c, c.start_lookup(network, target)) for c in clients[6:]]
            assert self._await(
                lambda: all(c.lookup_result(k) is not None for c, k in batch3)
            )
            assert runtime.worker_errors == []
            assert runtime.evicted_sessions == []
            assert len(runtime.sessions) == 9
            assert all(
                result.found
                for result in (c.lookup_result(k) for batch in (batch1, batch2, batch3) for c, k in batch)
            )
        finally:
            runtime.undeploy()
            network.close()

    def test_live_fan_out_declines_when_victim_loop_already_removed(self):
        """A fan-out pass that captured a worker whose loop was torn down
        mid-teardown must treat it as a decline, not raise — otherwise the
        pass aborts before the surviving shards are offered the datagram."""
        from repro.evaluation.workloads import _live_bridge

        runtime = AsyncLiveShardedRuntime.from_bridge(_live_bridge(2, 0.0), workers=2)
        network = AsyncSocketNetwork()
        try:
            runtime.deploy(network)
            router = runtime.router
            orphan = runtime.workers[1]
            router.remove_loop(runtime._loops[1])  # simulate the teardown race
            assert (
                router._dispatch_to(
                    orphan,
                    network,
                    "SLP",
                    None,
                    Endpoint("127.0.0.1", 28998, Transport.UDP),
                )
                is False
            )
        finally:
            runtime.undeploy()
            network.close()

    def test_live_drain_timeout_restores_membership_without_sticky_leak(self):
        """A drain whose pinned session never completes times out: full
        ring membership comes back, the session is *not* abandoned, and
        once it finally evicts no sticky entry is left behind."""
        from repro.evaluation.workloads import _live_bridge, _live_case_parts

        clients, _, target, _ = _live_case_parts(2, 1)
        # No service attached: the lookup stalls until the (short) session
        # timeout evicts it.
        runtime = AsyncLiveShardedRuntime.from_bridge(
            _live_bridge(2, 0.0), workers=2, session_timeout=1.0
        )
        network = AsyncSocketNetwork()
        try:
            runtime.deploy(network)
            (client,) = clients
            network.attach(client)
            client.start_lookup(network, target)
            assert self._await(
                lambda: any(worker.active_sessions for worker in runtime.workers),
                timeout=5.0,
            )
            victim = next(
                wid
                for wid, worker in zip(runtime.worker_ids, runtime.workers)
                if worker.active_sessions
            )
            router = runtime.router
            with pytest.raises(EngineError):
                runtime.scale_to(1, victims=[victim], drain_timeout=0.2)
            # Membership restored, nothing abandoned, the pin still there.
            assert runtime.worker_count == 2
            assert router.active_worker_count == 2
            assert router.draining_ids == set()
            assert [e.kind for e in runtime.scale_events][-2:] == [
                "drain-start",
                "drain-cancelled",
            ]
            assert len(router.sticky_sessions) == 1

            # Let the idle sweeper evict the stalled session, then verify
            # the sticky table is clean (no leaked entry) and a retried
            # drain completes promptly.
            assert self._await(
                lambda: not any(worker.active_sessions for worker in runtime.workers),
                timeout=10.0,
            )
            assert not router.drain_pending(victim)
            assert router.sticky_sessions == {}
            runtime.scale_to(1, victims=[victim], drain_timeout=10.0)
            assert runtime.worker_count == 1
            assert victim not in runtime.worker_ids
            assert runtime.worker_errors == []
        finally:
            runtime.undeploy()
            network.close()

    def test_live_replace_worker_unwinds_grow_when_drain_times_out(self):
        """A wedged victim must not inflate the pool: when the drain half
        of replace_worker times out, the committed grow is drained back
        out before the error surfaces — retries never compound."""
        from repro.evaluation.workloads import _live_bridge, _live_case_parts

        clients, _, target, _ = _live_case_parts(2, 1)
        runtime = AsyncLiveShardedRuntime.from_bridge(
            _live_bridge(2, 0.0), workers=2, session_timeout=30.0
        )
        network = AsyncSocketNetwork()
        try:
            runtime.deploy(network)
            (client,) = clients
            network.attach(client)
            client.start_lookup(network, target)  # no service: it wedges
            assert self._await(
                lambda: any(worker.active_sessions for worker in runtime.workers),
                timeout=5.0,
            )
            victim = next(
                wid
                for wid, worker in zip(runtime.worker_ids, runtime.workers)
                if worker.active_sessions
            )
            before_ids = set(runtime.worker_ids)
            for _ in range(2):  # a retry must not compound either
                with pytest.raises(EngineError):
                    runtime.replace_worker(victim, drain_timeout=0.2)
                assert runtime.worker_count == 2
                assert set(runtime.worker_ids) == before_ids
            assert runtime.evicted_sessions == []  # nothing abandoned
        finally:
            runtime.undeploy()
            network.close()
