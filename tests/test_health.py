"""Tests for the self-healing fleet: the failure detector, its controllers
and the fault injectors.

The detector half runs on synthetic snapshots (the ``FailureDetector`` is
a pure metrics → actions function, like the ``Autoscaler``): hysteresis —
one bad probe never trips anything — the quarantine/replace escalation
table, the replacement cooldown, and the conserved probe ledger.  The
property tests pin the score function's shape: monotone non-decreasing in
every signal, and a worker whose signals all sit strictly below their
ceilings can never trip the detector, however long it is probed.

The controller half deploys real runtimes and injects real faults: a
wedged simulated worker (stalled busy-until clock) and a wedged live
worker loop (an awaited sleep) must each be detected and replaced **within
the configured probe budget** by the controller alone.  The
``AsyncFaultyNetwork`` tests pin the seeded injector's determinism and its
loss-window bounds: same seed → the same drop/dup/reorder trace, and no
fault ever leaks outside a window.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")

from repro.bridges.specs import BRIDGE_BUILDERS
from repro.core.errors import ConfigurationError
from repro.network.addressing import Endpoint, Transport
from repro.network.aio import AsyncFaultyNetwork, AsyncSocketNetwork
from repro.network.faults import FaultPlan
from repro.network.simulated import SimulatedNetwork
from repro.network.sockets import loopback_available
from repro.runtime import (
    FailureDetector,
    HealthController,
    HealthPolicy,
    ShardedRuntime,
)
from repro.runtime.aio_live import AsyncLiveShardedRuntime
from repro.runtime.health import FAILED, HEALTHY, SUSPECT
from repro.runtime.metrics import RouterMetrics, ShardMetrics, WorkerMetrics

live_only = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)


def _row(worker_id, heartbeat_age=0.0, queue_depth=0, busy_backlog=0.0, errors=0):
    return WorkerMetrics(
        index=worker_id,
        name=f"worker-{worker_id}",
        active_sessions=0,
        completed_sessions=0,
        evicted_sessions=0,
        busy_backlog=busy_backlog,
        queue_depth=queue_depth,
        worker_id=worker_id,
        errors=errors,
        heartbeat_age=heartbeat_age,
    )


def _snapshot(at, rows, network_errors=0):
    return ShardMetrics(
        at=at,
        workers=tuple(rows),
        router=RouterMetrics(0, 0, 0, 0, 0, 0.0, network_errors=network_errors),
        active_workers=len(rows),
    )


def _bad_row(worker_id, policy):
    """A row whose heartbeat alone makes the probe bad (score >= 1)."""
    return _row(worker_id, heartbeat_age=2 * policy.heartbeat_wedge_threshold)


# ----------------------------------------------------------------------
# the policy: knobs and score shape
# ----------------------------------------------------------------------
class TestHealthPolicy:
    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            HealthPolicy(heartbeat_wedge_threshold=0.0)
        with pytest.raises(ConfigurationError):
            HealthPolicy(queue_depth_ceiling=0)
        with pytest.raises(ConfigurationError):
            HealthPolicy(busy_backlog_ceiling=-1.0)
        with pytest.raises(ConfigurationError):
            HealthPolicy(suspect_after=0)
        with pytest.raises(ConfigurationError):
            HealthPolicy(suspect_after=3, fail_after=2)
        with pytest.raises(ConfigurationError):
            HealthPolicy(cooldown=-0.5)

    def test_all_zero_probe_scores_exactly_zero(self):
        assert HealthPolicy().score(0.0, 0, 0.0, 0, 0) == 0.0

    def test_each_signal_at_its_ceiling_makes_the_probe_bad(self):
        policy = HealthPolicy()
        assert policy.score(policy.heartbeat_wedge_threshold, 0, 0.0) >= 1.0
        assert policy.score(0.0, policy.queue_depth_ceiling, 0.0) >= 1.0
        assert policy.score(0.0, 0, policy.busy_backlog_ceiling) >= 1.0
        assert policy.score(0.0, 0, 0.0, errors=policy.error_ceiling) >= 1.0
        assert (
            policy.score(0.0, 0, 0.0, network_errors=policy.network_error_ceiling)
            >= 1.0
        )

    @given(
        st.floats(0, 5),
        st.integers(0, 500),
        st.floats(0, 5),
        st.integers(0, 50),
        st.integers(0, 50),
        st.sampled_from(range(5)),
    )
    def test_score_monotone_in_every_signal(self, hb, queue, backlog, err, net, which):
        """Bumping any single input never lowers the score."""
        policy = HealthPolicy()
        base = policy.score(hb, queue, backlog, err, net)
        args = [hb, queue, backlog, err, net]
        args[which] += 1 if which in (1, 3, 4) else 0.5
        assert policy.score(*args) >= base

    @given(
        st.floats(0, 0.24),
        st.integers(0, 127),
        st.floats(0, 0.74),
        st.integers(0, 2),
        st.integers(0, 7),
        st.integers(min_value=1, max_value=30),
    )
    def test_healthy_fixture_never_trips(self, hb, queue, backlog, err, net, probes):
        """A worker with every signal strictly below its ceiling stays
        HEALTHY through any number of probes — no action, ever."""
        detector = FailureDetector()  # default ceilings bracket the draws
        actions = []
        for tick in range(probes):
            snapshot = _snapshot(
                float(tick),
                [_row(1, heartbeat_age=hb, queue_depth=queue, busy_backlog=backlog, errors=err)],
                network_errors=net,
            )
            actions.extend(detector.observe(snapshot))
        assert actions == []
        assert detector.state_of(1) == HEALTHY
        assert detector.bad_probes == 0
        assert detector.counters()["trips"] == 0


# ----------------------------------------------------------------------
# the detector: hysteresis, escalation, cooldown, conservation
# ----------------------------------------------------------------------
class TestFailureDetector:
    def test_single_bad_probe_never_flaps(self):
        """One clock-skewed heartbeat (or one load spike) does nothing:
        the streak resets on the next good probe."""
        detector = FailureDetector()
        policy = detector.policy
        assert detector.observe(_snapshot(0.0, [_bad_row(1, policy)])) == []
        assert detector.state_of(1) == HEALTHY
        assert detector.observe(_snapshot(0.1, [_row(1)])) == []
        assert detector.state_of(1) == HEALTHY
        assert detector.counters()["quarantines"] == 0
        assert detector.counters()["replaces"] == 0

    def test_escalation_decision_table(self):
        """suspect_after consecutive bad probes quarantine; fail_after
        replace — and the trip counter records the FAILED transition."""
        policy = HealthPolicy(suspect_after=2, fail_after=4)
        detector = FailureDetector(policy)
        kinds = []
        for tick in range(4):
            actions = detector.observe(
                _snapshot(float(tick), [_bad_row(1, policy)])
            )
            kinds.extend((tick, action.kind) for action in actions)
        assert kinds == [(1, "quarantine"), (3, "replace")]
        assert detector.state_of(1) == FAILED
        assert detector.counters()["trips"] == 1
        assert detector.counters()["bad_probes"] == 4

    def test_good_probe_releases_a_suspect(self):
        policy = HealthPolicy(suspect_after=2, fail_after=4)
        detector = FailureDetector(policy)
        detector.observe(_snapshot(0.0, [_bad_row(1, policy)]))
        detector.observe(_snapshot(0.1, [_bad_row(1, policy)]))
        assert detector.state_of(1) == SUSPECT
        (action,) = detector.observe(_snapshot(0.2, [_row(1)]))
        assert action.kind == "release"
        assert detector.state_of(1) == HEALTHY

    def test_cooldown_contains_then_replaces(self):
        """A worker that fails inside the replacement cooldown is
        quarantined (containment) and replaced once the cooldown expires."""
        policy = HealthPolicy(suspect_after=1, fail_after=2, cooldown=1.0)
        detector = FailureDetector(policy)
        # Worker 1 fails and is replaced at t=0.2.
        detector.observe(_snapshot(0.0, [_bad_row(1, policy), _row(2)]))
        actions = detector.observe(_snapshot(0.2, [_bad_row(1, policy), _row(2)]))
        assert [a.kind for a in actions] == ["replace"]
        # Worker 2 fails during the cooldown: contained, not replaced.
        actions = detector.observe(_snapshot(0.4, [_bad_row(2, policy)]))
        assert [a.kind for a in actions] == ["quarantine"]
        actions = detector.observe(_snapshot(0.6, [_bad_row(2, policy)]))
        assert [a.kind for a in actions] == []  # already contained
        assert detector.state_of(2) == FAILED
        # Still failing after the cooldown: the replace fires.
        actions = detector.observe(_snapshot(1.3, [_bad_row(2, policy)]))
        assert [a.kind for a in actions] == ["replace"]
        assert detector.counters()["replaces"] == 2

    def test_at_most_one_replace_per_observe(self):
        """Two simultaneously failed workers: only the worst-scoring one
        is replaced this observe (replacement resizes the pool; batching
        would act on stale state)."""
        policy = HealthPolicy(suspect_after=1, fail_after=2, cooldown=0.0)
        detector = FailureDetector(policy)
        worse = _row(2, heartbeat_age=10 * policy.heartbeat_wedge_threshold)
        detector.observe(_snapshot(0.0, [_bad_row(1, policy), worse]))
        actions = detector.observe(_snapshot(0.1, [_bad_row(1, policy), worse]))
        replaces = [a for a in actions if a.kind == "replace"]
        assert len(replaces) == 1
        assert replaces[0].worker_id == 2

    def test_errors_score_as_deltas_not_lifetime_totals(self):
        """A worker with an old error burst in its cumulative counter is
        not punished forever: only *new* errors count against the ceiling."""
        detector = FailureDetector()
        detector.observe(_snapshot(0.0, [_row(1, errors=10)]))
        assert detector.bad_probes == 1  # the burst itself is bad...
        detector.observe(_snapshot(0.1, [_row(1, errors=10)]))
        assert detector.bad_probes == 1  # ...but it is not re-counted
        assert detector.state_of(1) == HEALTHY

    def test_errors_after_a_counter_reset_score_in_full(self):
        """A worker id reused by a fresh engine restarts its error count:
        a value below the previous mark is a reset, so all of it is new
        (a high-water mark would hide these errors until they passed it)."""
        detector = FailureDetector()
        detector.observe(_snapshot(0.0, [_row(1, errors=10)]))
        detector.observe(_snapshot(0.1, [_row(1, errors=10)]))
        assert detector.bad_probes == 1
        detector.observe(_snapshot(0.2, [_row(1, errors=4)]))
        assert detector.bad_probes == 2

    def test_network_errors_raise_every_workers_score(self):
        policy = HealthPolicy()
        detector = FailureDetector(policy)
        snapshot = _snapshot(
            0.0,
            [_row(1), _row(2)],
            network_errors=policy.network_error_ceiling + 1,
        )
        detector.observe(snapshot)
        assert detector.bad_probes == 2

    def test_probe_ledger_conserved_when_workers_leave(self):
        """probes == sum(per-worker counts) + retired, through churn."""
        detector = FailureDetector()
        detector.observe(_snapshot(0.0, [_row(1), _row(2)]))
        detector.observe(_snapshot(0.1, [_row(1), _row(2)]))
        # Worker 1 drained away; worker 3 joined.
        detector.observe(_snapshot(0.2, [_row(2), _row(3)]))
        assert detector.retired_probes == 2
        assert detector.probes == sum(detector.probe_counts.values()) + (
            detector.retired_probes
        )
        assert detector.probes == 6
        assert 1 not in detector.probe_counts


# ----------------------------------------------------------------------
# the controllers: real runtimes, real wedges, probe budgets
# ----------------------------------------------------------------------
#: Snappy test policy: tight ceilings so a wedge trips within a few
#: 0.02 s probes, hysteresis still requiring fail_after consecutive ones.
_SIM_POLICY = HealthPolicy(
    heartbeat_wedge_threshold=0.1,
    busy_backlog_ceiling=0.2,
    suspect_after=2,
    fail_after=3,
    cooldown=0.5,
)
_SIM_INTERVAL = 0.02


def _deploy_sim(workers=2):
    network = SimulatedNetwork(seed=3)
    bridge = BRIDGE_BUILDERS[2](processing_delay=0.004)
    bridge.validate()
    runtime = ShardedRuntime.from_bridge(bridge, workers=workers)
    runtime.deploy(network)
    return network, runtime


class TestSimulatedController:
    def test_healthy_pool_is_never_acted_on(self):
        network, runtime = _deploy_sim()
        controller = HealthController(
            runtime, FailureDetector(_SIM_POLICY), interval=_SIM_INTERVAL
        )
        controller.start(network)
        network.run_for(0.5)
        controller.stop()
        assert controller.actions == []
        assert controller.detector.probes > 0
        assert controller.detector.bad_probes == 0

    def test_wedged_worker_detected_and_replaced_within_probe_budget(self):
        """The acceptance regression: a wedged worker loop is quarantined,
        drained and replaced by the detector alone, within the budget
        implied by the policy (threshold + hysteresis probes + slack)."""
        network, runtime = _deploy_sim()
        controller = HealthController(
            runtime, FailureDetector(_SIM_POLICY), interval=_SIM_INTERVAL
        )
        controller.start(network)
        network.run_for(0.1)
        victim = runtime.worker_ids[0]
        wedge_at = network.now()
        runtime.wedge_worker(victim, 1.0)
        assert network.run_until(
            lambda: victim in controller.replaced_ids, timeout=10.0
        )
        # Replacement is grow-first: let the victim's drain finish (it
        # goes idle once the wedge expires) before checking the pool.
        assert network.run_until(
            lambda: victim not in runtime.worker_ids
            and not runtime.scaling_in_progress,
            timeout=10.0,
        )
        network.run_for(5 * _SIM_INTERVAL)  # probes see the new membership
        controller.stop()
        # Escalation order: contained first, then replaced.
        kinds = [a.kind for a in controller.actions]
        assert kinds[0] == "quarantine"
        assert kinds[-1] == "replace"
        replace_action = next(
            a for a in controller.actions if a.kind == "replace"
        )
        budget = _SIM_POLICY.heartbeat_wedge_threshold + (
            (_SIM_POLICY.fail_after + 2) * _SIM_INTERVAL
        )
        assert replace_action.at - wedge_at <= budget
        # The pool healed: same size, victim gone, a fresh id in its place.
        assert runtime.worker_count == 2
        assert victim not in runtime.worker_ids
        assert not runtime.scaling_in_progress
        # The detector's probe ledger is conserved across the replacement.
        detector = controller.detector
        assert detector.retired_probes > 0
        assert detector.probes == sum(detector.probe_counts.values()) + (
            detector.retired_probes
        )

    def test_skew_below_hysteresis_never_causes_a_replacement(self):
        """A clock-skewed heartbeat timer (fewer consecutive bad probes
        than fail_after) must never cost a worker — only a wedge does."""
        network, runtime = _deploy_sim()
        controller = HealthController(
            runtime, FailureDetector(_SIM_POLICY), interval=_SIM_INTERVAL
        )
        controller.start(network)
        network.run_for(0.1)
        skewed = runtime.worker_ids[0]
        controller.skew_probes(
            skewed, _SIM_POLICY.heartbeat_wedge_threshold, probes=2
        )
        network.run_for(1.0)
        controller.stop()
        assert controller.replaced_ids == []
        assert skewed in runtime.worker_ids
        assert runtime.worker_count == 2

    def test_skew_injector_validates_inputs(self):
        network, runtime = _deploy_sim()
        controller = HealthController(runtime)
        with pytest.raises(ConfigurationError):
            controller.skew_probes(runtime.worker_ids[0], -0.1)
        with pytest.raises(ConfigurationError):
            controller.skew_probes(runtime.worker_ids[0], 0.1, probes=0)
        with pytest.raises(ConfigurationError):
            runtime.wedge_worker(999, 1.0)


@live_only
class TestLiveController:
    def test_wedged_live_loop_detected_and_replaced_within_probe_budget(self):
        """The same regression over real sockets: a worker loop blocked in
        a job stops stamping heartbeats; the controller, ticking on the
        same event loop, notices and replaces it while the data path
        keeps running."""
        policy = HealthPolicy(
            heartbeat_wedge_threshold=0.25,
            suspect_after=2,
            fail_after=3,
            cooldown=1.0,
        )
        runtime = AsyncLiveShardedRuntime.from_bridge(
            BRIDGE_BUILDERS[2](host="127.0.0.1", base_port=30200), workers=2
        )
        controller = HealthController(
            runtime, FailureDetector(policy), interval=0.05
        )
        with AsyncSocketNetwork() as network:
            runtime.deploy(network)
            try:
                controller.start(network)
                victim = runtime.worker_ids[0]
                wedge_at = time.monotonic()
                runtime.wedge_worker(victim, 0.8)
                network.run_until(
                    lambda: victim in controller.replaced_ids
                    and not runtime.scaling_in_progress,
                    timeout=15.0,
                )
                assert victim in controller.replaced_ids
                replace_action = next(
                    a
                    for a in controller.actions
                    if a.kind == "replace" and a.worker_id == victim
                )
                # The wall-clock probe budget: generous slack over
                # threshold + fail_after probes, for contended CI boxes.
                assert replace_action.at - wedge_at <= 2.0
                assert controller.errors == []
                assert runtime.worker_errors == []
                assert runtime.worker_count == 2
                assert victim not in runtime.worker_ids
                detector = controller.detector
                assert detector.probes == sum(
                    detector.probe_counts.values()
                ) + detector.retired_probes
            finally:
                controller.stop()
                runtime.undeploy()

    def test_wedge_injector_rejects_negative_duration(self):
        runtime = AsyncLiveShardedRuntime.from_bridge(
            BRIDGE_BUILDERS[2](host="127.0.0.1", base_port=30300), workers=1
        )
        with pytest.raises(ConfigurationError):
            runtime.wedge_worker(0, -1.0)


# ----------------------------------------------------------------------
# the network fault injector: determinism and window bounds
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_same_seed_same_verdict_trace(self):
        first, second = FaultPlan(5), FaultPlan(5)
        assert [first.draw() for _ in range(200)] == [
            second.draw() for _ in range(200)
        ]
        assert first.decisions == second.decisions
        assert set(first.decisions) <= set(FaultPlan.VERDICTS)

    def test_window_index_reseeds_the_plan(self):
        """Per-window seeding: the trace depends only on (seed, window),
        never on traffic between windows."""
        base = [FaultPlan(5, window=0).draw() for _ in range(100)]
        other = [FaultPlan(5, window=1).draw() for _ in range(100)]
        assert base != other
        assert [FaultPlan(5, window=1).draw() for _ in range(100)] == other

    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(0, loss=1.2)
        with pytest.raises(ConfigurationError):
            FaultPlan(0, duplicate=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(0, loss=0.5, duplicate=0.4, reorder=0.2)


@live_only
class TestFaultyNetwork:
    def _receiver(self):
        import socket as socket_module

        sock = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_DGRAM
        )
        sock.bind(("127.0.0.1", 0))
        sock.settimeout(2.0)
        endpoint = Endpoint("127.0.0.1", sock.getsockname()[1], Transport.UDP)
        return sock, endpoint

    def test_same_seed_same_fault_trace_over_real_sockets(self):
        source = Endpoint("127.0.0.1", 28997, Transport.UDP)
        sock, destination = self._receiver()

        def run(seed):
            network = AsyncFaultyNetwork(seed=seed)
            try:
                network.open_loss_window()
                for index in range(40):
                    network._send_udp(b"payload-%d" % index, source, destination)
                network.close_loss_window()
                return (
                    list(network.decisions),
                    network.udp_dropped,
                    network.udp_duplicated,
                    network.udp_reordered,
                )
            finally:
                network.close()

        try:
            first = run(9)
            second = run(9)
            assert first == second
            decisions, dropped, duplicated, reordered = first
            assert len(decisions) == 40
            assert dropped == sum(1 for _, v in decisions if v == "drop")
        finally:
            sock.close()

    def test_faults_never_leak_outside_a_window(self):
        """Outside a window the engine is a plain AsyncSocketNetwork: no
        verdicts drawn, nothing counted — and closing a window flushes the
        held (reordered) datagram, so the one-slot swap cannot leak."""
        source = Endpoint("127.0.0.1", 28996, Transport.UDP)
        sock, destination = self._receiver()
        network = AsyncFaultyNetwork(seed=1, loss=0.0, duplicate=0.0, reorder=1.0)
        try:
            network._send_udp(b"before", source, destination)
            assert network.decisions == []
            assert not network.window_open
            plan = network.open_loss_window()
            assert plan.window == 0
            with pytest.raises(ConfigurationError):
                network.open_loss_window()
            network._send_udp(b"one", source, destination)  # held back
            network._send_udp(b"two", source, destination)  # swaps past it
            network._send_udp(b"three", source, destination)  # held back
            network.close_loss_window()  # flushes "three"
            network.close_loss_window()  # idempotent
            assert not network.window_open
            network._send_udp(b"after", source, destination)
            received = [sock.recvfrom(2048)[0] for _ in range(5)]
            assert received == [b"before", b"two", b"one", b"three", b"after"]
            assert network.decisions == [(0, "reorder")] * 3
            assert network.udp_reordered == 2  # two holds; the swap-past
            assert network.udp_dropped == 0  # is the third verdict's send
            # A new window gets the next index (its own fresh plan).
            assert network.open_loss_window().window == 1
        finally:
            network.close()
            sock.close()
