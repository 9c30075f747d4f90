"""Every declared counter appears everywhere its declaration promises.

:mod:`repro.runtime.metrics` is the one place a deployment counter or
gauge is declared; the ``as_row`` keys, the collector's window keys, the
``/metrics`` families and the runtime's retirement all derive from those
declarations.  This suite walks the declarations, so a new counter is
checked on every surface the moment it is declared:

* it is an integer ``as_row`` key with the row's value;
* it is ``<field>_delta`` in a collector window;
* it is a ``# TYPE … counter`` family on ``/metrics`` with the row's value;
* it is conserved through ``replace_worker`` and ``undeploy``: the
  runtime's lifetime figure equals what the rows showed before the churn.
"""

from __future__ import annotations

import pytest

from case2_utils import attach_clients, mdns_answer
from repro.bridges.specs import slp_to_bonjour_bridge
from repro.evaluation.telemetry import counter_samples
from repro.network.addressing import Endpoint, Transport
from repro.network.simulated import SimulatedNetwork
from repro.obs import MetricsCollector, render_prometheus
from repro.protocols.mdns import BonjourResponder
from repro.runtime import ShardedRuntime
from repro.runtime.metrics import (
    COUNTER,
    ENGINE,
    GAUGE,
    NETWORK,
    ROUTER,
    RouterMetrics,
    WorkerMetrics,
    declared,
)

#: The colour group the case-2 router joins.
SLP_GROUP = Endpoint("239.255.255.253", 427, Transport.UDP)

GARBAGE = (b"", b"\x00", b"\xff" * 64, b"junk\r\n", bytes(range(40)))


def _declared(kind):
    return [
        pytest.param(cls, metric, id=f"{cls.family_prefix}.{metric.field}")
        for cls in (WorkerMetrics, RouterMetrics)
        for metric in declared(cls)
        if metric.kind == kind
    ]


COUNTERS = _declared(COUNTER)
GAUGES = _declared(GAUGE)


def _deploy_with_traffic(network) -> ShardedRuntime:
    """Three workers, a wave of lookups, garbage at the router and at each
    worker's own socket, and answers nobody asked for at the router and
    at worker 0 — so most counters are non-zero.  A tiny trace ring makes
    spans drop."""
    runtime = ShardedRuntime.from_bridge(
        slp_to_bonjour_bridge(),
        workers=3,
        trace_sample=1.0,
        trace_ring_size=8,
    )
    runtime.deploy(network)
    network.attach(BonjourResponder())
    for client in attach_clients(network, 9):
        client.start_lookup(network)
    network.run()
    attacker = Endpoint("attacker.local", 9999, Transport.UDP)
    targets = [SLP_GROUP] + [worker.unicast_endpoints()[0] for worker in runtime.workers]
    for target in targets:
        for payload in GARBAGE:
            network.send(payload, source=attacker, destination=target)
    mdns_answer(network, 4242)
    mdns_answer(network, 4243, destination=runtime.workers[0].local_endpoint("mDNS"))
    network.run()
    return runtime


def _rows(snapshot, cls):
    return [snapshot.router] if cls is RouterMetrics else list(snapshot.workers)


def _window_rows(window, cls):
    return [window["router"]] if cls is RouterMetrics else window["workers"]


@pytest.fixture(scope="module")
def observed():
    """One deployment's snapshot, first collector window and exposition."""
    runtime = _deploy_with_traffic(SimulatedNetwork(seed=11))
    snapshot = runtime.metrics()
    window = MetricsCollector(runtime).collect()
    return snapshot, window, render_prometheus(snapshot)


def test_the_traffic_moves_most_counters(observed):
    snapshot, _, _ = observed
    moved = [
        metric.field
        for cls, metric in (param.values for param in COUNTERS)
        if any(getattr(row, metric.field) for row in _rows(snapshot, cls))
    ]
    assert len(moved) >= len(COUNTERS) // 2, moved


@pytest.mark.parametrize("cls, metric", COUNTERS)
def test_counter_is_an_integer_row_key(observed, cls, metric):
    snapshot, _, _ = observed
    for row in _rows(snapshot, cls):
        value = getattr(row, metric.field)
        assert type(value) is int
        assert row.as_row()[metric.row_key] == value


@pytest.mark.parametrize("cls, metric", COUNTERS)
def test_counter_is_a_window_delta(observed, cls, metric):
    snapshot, window, _ = observed
    for row, series in zip(_rows(snapshot, cls), _window_rows(window, cls)):
        # The first window's baseline is zero: the delta is the whole value.
        assert series[f"{metric.field}_delta"] == getattr(row, metric.field)
        assert f"{metric.field}_rate" in series


@pytest.mark.parametrize("cls, metric", COUNTERS)
def test_counter_is_a_prometheus_counter_family(observed, cls, metric):
    snapshot, _, body = observed
    name = f"repro_{metric.family}"
    assert f"# TYPE {name} counter\n" in body
    assert f"# HELP {name} {metric.help}\n" in body
    samples = counter_samples(body)
    for row in _rows(snapshot, cls):
        series = name if cls is RouterMetrics else f'{name}{{worker="{row.name}"}}'
        assert samples[series] == getattr(row, metric.field)


@pytest.mark.parametrize("cls, metric", GAUGES)
def test_gauge_is_a_row_key_a_window_sample_and_a_gauge_family(observed, cls, metric):
    snapshot, window, body = observed
    assert f"# TYPE repro_{metric.family} gauge\n" in body
    for row, series in zip(_rows(snapshot, cls), _window_rows(window, cls)):
        assert series[metric.field] == getattr(row, metric.field)
        assert metric.row_key in row.as_row()


#: Lifetime figures of the counters the runtime does not retire itself.
_COMPUTED_LIFETIME = {
    # Record-list lengths: the runtime keeps retired workers' records.
    "completed_sessions": lambda runtime: len(runtime.sessions),
    "evicted_sessions": lambda runtime: len(runtime.evicted_sessions),
    # The tracer keeps every worker's recorder, retired ones included.
    "spans_dropped": lambda runtime: sum(
        recorder.dropped
        for recorder in runtime.tracer.recorders()
        if recorder.name.startswith("starlink:")
    ),
    # Live-only (loop and socket errors): always 0 on the simulation.
    "errors": lambda runtime: 0,
    "network_errors": lambda runtime: 0,
}


def _lifetime(runtime, metric) -> int:
    if metric.source == ENGINE:
        return runtime.total(metric.field)
    if metric.source == ROUTER:
        return runtime.total(f"router_{metric.field}")
    if metric.source == NETWORK:
        return 0  # the simulated network has no socket substrate
    return _COMPUTED_LIFETIME[metric.field](runtime)


@pytest.mark.parametrize("cls, metric", COUNTERS)
def test_counter_is_conserved_through_replacement_and_undeploy(network, cls, metric):
    runtime = _deploy_with_traffic(network)
    snapshot = runtime.metrics()
    shown = sum(getattr(row, metric.field) for row in _rows(snapshot, cls))
    assert _lifetime(runtime, metric) == shown
    victim = snapshot.workers[0].worker_id  # it also holds the unrouted answer
    runtime.replace_worker(victim)
    network.run()
    assert victim not in runtime.worker_ids
    runtime.undeploy()
    assert _lifetime(runtime, metric) == shown
