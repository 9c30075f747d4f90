"""Tests for the continuous telemetry pipeline (PR 9).

Four promises pinned down here:

* **Windows, not lifetimes** — the :class:`MetricsCollector` folds
  ``ShardMetrics`` snapshots into per-worker ring windows whose counters
  are deltas and whose quantiles come from histogram *snapshots/deltas*,
  so warmup never pollutes steady state (the cumulative-since-boot
  footgun ``stage_latency()`` had is now opt-out via ``since=``).
* **Postmortems are evidence** — the :class:`FlightRecorder` bundles the
  last windows, the :class:`EventJournal` and the sampled span trees; in
  deterministic mode a seeded heal run dumps **byte-stable** bundles.
* **The exposition is really Prometheus** — ``render_prometheus`` passes
  the text-format lint with ``# HELP``/``# TYPE`` pairs and counters
  monotone across consecutive scrapes, over a real TCP connection live.
* **Telemetry never steers** — with ``latency_p99_ceiling`` unset (the
  default), feeding the detector a latency signal changes nothing:
  decisions stay bit-identical to the gauge-only policy.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

from repro.core.errors import ConfigurationError
from repro.evaluation.chaos import run_heal_once
from repro.evaluation.telemetry import (
    COLLECTOR_OVERHEAD_THRESHOLD_PCT,
    CollectorOverheadResult,
    ScrapeCheck,
    TelemetryResult,
    counter_samples,
    lint_prometheus,
    run_metrics_scrape,
)
from repro.evaluation.workloads import live_sharded_scenario, sharded_scenario
from repro.network.addressing import Endpoint, Transport
from repro.network.sockets import loopback_available
from repro.obs import (
    EventJournal,
    FlightRecorder,
    MetricsCollector,
    MetricsEndpoint,
    render_prometheus,
)
from repro.obs.timeseries import counter_delta
from repro.obs.tracing import LatencyHistogram
from repro.runtime.health import FailureDetector, HealthPolicy
from repro.runtime.metrics import RouterMetrics, ShardMetrics, WorkerMetrics

live_only = pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)

#: Keys the deterministic flight recorder must strip: every one derives
#: from ``time.perf_counter`` and would break byte-stability.
_WALL_CLOCK_KEYS = {"duration", "p50_us", "p95_us", "p99_us", "total_seconds"}


def _all_keys(value) -> set:
    """Every dict key appearing anywhere inside ``value``, recursively."""
    keys: set = set()
    if isinstance(value, dict):
        for key, item in value.items():
            keys.add(key)
            keys |= _all_keys(item)
    elif isinstance(value, list):
        for item in value:
            keys |= _all_keys(item)
    return keys


def _run_scenario(clients=12, workers=2, **kwargs):
    scenario = sharded_scenario(2, clients=clients, workers=workers, **kwargs)
    result = scenario.run(timeout=60.0)
    assert result.all_found
    return scenario


# ---------------------------------------------------------------------------
# histogram windows and the stage_latency(since=) semantics


class TestWindowedHistograms:
    def test_snapshot_then_delta_isolates_new_records(self):
        hist = LatencyHistogram()
        hist.record(1e-6)
        hist.record(2e-3)
        mark = hist.snapshot()
        hist.record(5e-4)
        window = hist.delta(mark)
        assert window.count == 1
        assert window.total_seconds == pytest.approx(5e-4)
        # The window's percentile describes only the new record.
        assert 5e-4 <= window.percentile(0.99) <= 1e-3

    def test_delta_without_baseline_copies_the_whole_history(self):
        hist = LatencyHistogram()
        for _ in range(10):
            hist.record(1e-5)
        copy = hist.delta(None)
        assert copy.count == hist.count
        assert copy.buckets == hist.buckets
        copy.record(1e-5)
        assert copy.count == hist.count + 1  # a fresh histogram, not a view

    def test_delta_clamps_racy_negative_differences(self):
        hist = LatencyHistogram()
        hist.record(1e-6)
        mark = hist.snapshot()
        hist.buckets[:] = [0] * hist.BUCKET_COUNT  # simulate a torn read
        hist.count = 0
        hist.total_seconds = 0.0
        window = hist.delta(mark)
        assert window.count == 0
        assert window.total_seconds == 0.0
        assert all(value >= 0 for value in window.buckets)

    def test_stage_latency_since_baseline_windows_the_table(self):
        scenario = sharded_scenario(2, clients=10, workers=2)
        runtime = scenario.bridge
        # Baseline taken before any traffic: the windowed rows must equal
        # the cumulative ones (everything happened after the baseline).
        fresh = runtime.latency_baseline()
        result = scenario.run(timeout=60.0)
        assert result.all_found
        assert runtime.stage_latency(since=fresh) == runtime.stage_latency()
        # Baseline taken after the run: nothing recorded since, so the
        # windowed table is empty while the cumulative one is not — the
        # footgun the windowed semantics exist to avoid.
        after = runtime.latency_baseline()
        assert runtime.stage_latency()  # cumulative rows persist
        assert runtime.stage_latency(since=after) == []


# ---------------------------------------------------------------------------
# the collector


class TestMetricsCollector:
    def test_manual_collect_publishes_deltas_and_windowed_quantiles(self):
        scenario = _run_scenario(trace_sample=1.0)
        runtime = scenario.bridge
        collector = MetricsCollector(runtime)
        first = collector.collect()
        assert first is not None
        assert first["elapsed"] == 0.0  # no previous window to measure from
        snapshot = runtime.metrics()
        completed = sum(row.completed_sessions for row in snapshot.workers)
        assert (
            sum(row["completed_sessions_delta"] for row in first["workers"]) == completed
        )
        routed = first["router"]["routed_datagrams_delta"]
        assert routed == snapshot.router.routed_datagrams
        # At least one worker translated something, so its window carries
        # windowed per-stage quantiles.
        stages = [stage for row in first["workers"] for stage in row["stages"]]
        assert stages
        assert all(
            stage["count"] > 0 and stage["p99_us"] >= stage["p50_us"] >= 0.0
            for stage in stages
        )
        # A second window with no traffic in between: all deltas zero,
        # idle stages omitted entirely.
        second = collector.collect()
        assert all(row["completed_sessions_delta"] == 0 for row in second["workers"])
        assert all(row["stages"] == [] for row in second["workers"])
        assert collector.samples == 2

    def test_counter_delta_reads_a_drop_as_a_reset(self):
        assert counter_delta(7, 5) == 2
        assert counter_delta(5, 5) == 0
        assert counter_delta(3, 5) == 3  # a fresh counter below the mark

    def test_reused_worker_id_window_reports_the_newcomers_growth(self):
        # Worker ids are allocated lowest-free: drain worker 1 away, grow
        # back, and the newcomer is worker 1 again with a fresh engine.
        scenario = _run_scenario(clients=40, workers=2)
        runtime, network = scenario.bridge, scenario.network
        collector = MetricsCollector(runtime)
        collector.collect()
        runtime.scale_to(1, victims=[1])
        network.run()
        collector.collect()
        runtime.scale_to(2)
        assert runtime.worker_ids == [0, 1]
        started = [
            (client, client.start_lookup(network, scenario.target))
            for client in scenario.clients[:6]
        ]
        network.run()
        assert all(client.lookup_result(key).found for client, key in started)
        window = collector.collect()
        rows = {row.worker_id: row for row in runtime.metrics().workers}
        deltas = {
            row["worker_id"]: row["completed_sessions_delta"]
            for row in window["workers"]
        }
        assert rows[1].completed_sessions > 0
        assert deltas[1] == rows[1].completed_sessions

    def test_redeployed_router_window_reports_the_new_routers_growth(self):
        scenario = _run_scenario(clients=12)
        runtime, network = scenario.bridge, scenario.network
        collector = MetricsCollector(runtime)
        collector.collect()
        runtime.undeploy()
        runtime.deploy(network)
        started = [
            (client, client.start_lookup(network, scenario.target))
            for client in scenario.clients[:2]
        ]
        network.run()
        assert all(client.lookup_result(key).found for client, key in started)
        routed = runtime.metrics().router.routed_datagrams
        assert routed > 0
        assert collector.collect()["router"]["routed_datagrams_delta"] == routed

    def test_latency_signal_is_worst_stage_p99_per_worker(self):
        scenario = _run_scenario(trace_sample=1.0)
        runtime = scenario.bridge
        collector = MetricsCollector(runtime)
        window = collector.collect()
        signal = collector.latency_signal()
        assert set(signal) == {row["worker_id"] for row in window["workers"]}
        for row in window["workers"]:
            worst = max(
                (stage["p99_us"] for stage in row["stages"]), default=0.0
            )
            assert signal[row["worker_id"]] == pytest.approx(worst * 1e-6)
        assert any(value > 0.0 for value in signal.values())

    def test_ring_wraps_and_counts_dropped_windows(self):
        scenario = _run_scenario(clients=6)
        collector = MetricsCollector(scenario.bridge, capacity=4)
        for _ in range(6):
            collector.collect()
        assert collector.samples == 6
        assert collector.dropped_windows == 2
        windows = collector.windows()
        assert len(windows) == 4
        ats = [window["at"] for window in windows]
        assert ats == sorted(ats)  # oldest first
        assert collector.windows(last=2) == windows[-2:]
        assert collector.latest() == windows[-1]

    def test_collect_skips_undeployed_runtime(self):
        scenario = _run_scenario(clients=6)
        runtime = scenario.bridge
        collector = MetricsCollector(runtime)
        runtime.undeploy()
        assert collector.collect() is None
        assert collector.skipped == 1
        assert collector.samples == 0

    def test_timer_chain_closes_windows_on_the_virtual_clock(self):
        scenario = sharded_scenario(2, clients=10, workers=2)
        collector = MetricsCollector(scenario.bridge, window=0.05)
        collector.start(scenario.network)
        result = scenario.run(timeout=60.0)
        collector.stop()
        assert result.all_found
        assert collector.samples >= 2
        for window in collector.windows():
            # Window boundaries are engine-timer events: exact multiples
            # of the cadence on the virtual clock, deterministically.
            beats = window["at"] / 0.05
            assert abs(beats - round(beats)) < 1e-9
            assert window["elapsed"] in (0.0, pytest.approx(0.05))

    def test_collect_skips_while_a_rescale_is_in_flight(self):
        runtime = SimpleNamespace(
            _router=object(),
            scaling_in_progress=True,
            metrics=lambda: _synthetic_snapshot(at=0.5),
            tracer=None,
        )
        collector = MetricsCollector(runtime)
        assert collector.collect() is None
        assert collector.skipped == 1
        runtime.scaling_in_progress = False
        assert collector.collect() is not None  # baselines undisturbed

    def test_duck_typed_runtime_without_lean_snapshot_keyword(self):
        # The collector probes for metrics(include_latency=False) once
        # and falls back to the plain call for runtimes without it.
        snapshot = _synthetic_snapshot(at=1.0)
        runtime = SimpleNamespace(
            _router=object(), metrics=lambda: snapshot, tracer=None
        )
        collector = MetricsCollector(runtime)
        window = collector.collect()
        assert window is not None
        assert window["at"] == 1.0
        assert [row["worker_id"] for row in window["workers"]] == [0, 1]
        assert all(row["stages"] == [] for row in window["workers"])

    def test_constructor_validates_window_and_capacity(self):
        runtime = SimpleNamespace(_router=None)
        with pytest.raises(ValueError):
            MetricsCollector(runtime, window=0.0)
        with pytest.raises(ValueError):
            MetricsCollector(runtime, capacity=0)

    @live_only
    def test_live_collector_ticks_on_the_loop(self):
        scenario = live_sharded_scenario(2, clients=8, workers=2)
        network, runtime = scenario.network, scenario.runtime
        collector = MetricsCollector(runtime, window=0.02)
        try:
            collector.start(network)
            started = [
                (client, client.start_lookup(network, scenario.target))
                for client in scenario.clients
            ]
            done = network.run_until(
                lambda: bool(runtime.worker_errors)
                or all(
                    client.lookup_result(key) is not None
                    for client, key in started
                ),
                timeout=20.0,
            )
            if runtime.worker_errors:
                raise runtime.worker_errors[0]
            if not done:
                pytest.fail("live wave did not complete")
            network.run_for(0.06)  # let at least one more window close
            collector.stop()
        finally:
            collector.stop()
            runtime.undeploy()
            network.close()
        assert not collector.errors
        assert collector.samples >= 1
        latest = collector.latest()
        assert latest is not None
        for row in latest["workers"]:
            assert row["heartbeat_age"] >= 0.0
            assert row["completed_sessions_delta"] >= 0


# ---------------------------------------------------------------------------
# the journal


class TestEventJournal:
    def test_append_stamps_clock_and_carries_fields(self):
        now = [1.5]
        journal = EventJournal(clock=lambda: now[0])
        event = journal.append("fault", fault="wedge", worker_id=3)
        assert event == {
            "at": 1.5,
            "kind": "fault",
            "fault": "wedge",
            "worker_id": 3,
        }
        explicit = journal.append("health", at=9.0, action="replace")
        assert explicit["at"] == 9.0
        assert journal.appended == 2

    def test_trace_crosslink_strips_the_sampling_bit(self):
        journal = EventJournal()
        # Stamped-and-sampled ids carry the decision in the low bit; the
        # journal stores the bare trace number span trees are keyed by.
        sampled = journal.append("health", trace=(7 << 1) | 1)
        assert sampled["trace"] == 7
        unsampled = journal.append("health", trace=6)
        assert unsampled["trace"] == 6
        untraced = journal.append("health", trace=0)
        assert "trace" not in untraced

    def test_events_filters_by_time_and_kind(self):
        journal = EventJournal()
        journal.append("fault", at=0.1, fault="wedge")
        journal.append("health", at=0.2, action="quarantine")
        journal.append("health", at=0.3, action="replace")
        assert [event["at"] for event in journal.events()] == [0.1, 0.2, 0.3]
        assert [
            event["action"] for event in journal.events(kind="health")
        ] == ["quarantine", "replace"]
        assert [event["at"] for event in journal.events(since=0.2)] == [0.2, 0.3]

    def test_capacity_bound_drops_oldest(self):
        journal = EventJournal(capacity=4)
        for index in range(6):
            journal.append("tick", at=float(index))
        assert journal.appended == 6
        assert journal.dropped == 2
        assert [event["at"] for event in journal.events()] == [2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValueError):
            EventJournal(capacity=0)


# ---------------------------------------------------------------------------
# the flight recorder


class TestFlightRecorder:
    def _instrumented_scenario(self, deterministic: bool):
        scenario = _run_scenario(clients=8, trace_sample=1.0)
        runtime = scenario.bridge
        collector = MetricsCollector(runtime)
        journal = EventJournal(clock=scenario.network.now)
        collector.collect()
        journal.append("fault", fault="wedge", worker_id=0, seconds=0.25)
        flight = FlightRecorder(
            collector=collector,
            journal=journal,
            tracer=runtime.tracer,
            max_traces=3,
            deterministic=deterministic,
        )
        return flight

    def test_capture_bundles_windows_journal_and_complete_traces(self):
        flight = self._instrumented_scenario(deterministic=False)
        bundle = flight.capture("health:replace", detail={"worker_id": 0})
        assert bundle["reason"] == "health:replace"
        assert bundle["detail"] == {"worker_id": 0}
        assert bundle["clock"] == "virtual"
        assert len(bundle["windows"]) == 1
        assert [event["kind"] for event in bundle["events"]] == ["fault"]
        assert 1 <= len(bundle["traces"]) <= 3  # max_traces caps the dump
        assert all(trace["complete"] for trace in bundle["traces"])
        # Non-deterministic bundles keep the wall-clock fields.
        assert "duration" in _all_keys(bundle["traces"])
        assert flight.bundles == [bundle]

    def test_deterministic_capture_strips_wall_clock_keys(self):
        flight = self._instrumented_scenario(deterministic=True)
        bundle = flight.capture("health:quarantine")
        assert bundle["deterministic"] is True
        assert not (_all_keys(bundle) & _WALL_CLOCK_KEYS)
        # Timeline positions and counts survive the scrub.
        assert bundle["windows"][0]["workers"]
        assert all("at" in trace["spans"][0] for trace in bundle["traces"])

    def test_capture_with_nothing_attached_is_empty_but_valid(self):
        flight = FlightRecorder()
        bundle = flight.capture("manual")
        assert bundle["windows"] == []
        assert bundle["events"] == []
        assert bundle["traces"] == []
        assert bundle["at"] == 0.0
        assert bundle["clock"] == "unbound"


# ---------------------------------------------------------------------------
# seeded heal runs: deterministic postmortems end to end


class TestSeededPostmortems:
    def test_heal_seed_5_postmortems_are_byte_stable(self):
        first = run_heal_once(seed=5)
        second = run_heal_once(seed=5)
        assert first.ok, first.failure_reason()
        assert second.ok, second.failure_reason()
        assert first.postmortems  # the detector acted, bundles captured
        assert json.dumps(first.postmortems, sort_keys=True) == json.dumps(
            second.postmortems, sort_keys=True
        )

    def test_heal_postmortem_contents(self):
        result = run_heal_once(seed=5)
        assert result.ok, result.failure_reason()
        assert result.telemetry_windows > 0
        assert result.journal_events > 0
        # The detector quarantined and replaced: both capture reasons
        # appear, and the last bundle carries the full recent past.
        reasons = {bundle["reason"] for bundle in result.postmortems}
        assert "health:replace" in reasons
        last = result.postmortems[-1]
        assert last["deterministic"] is True
        assert last["windows"]
        assert any(trace["complete"] for trace in last["traces"])
        kinds = {event["kind"] for event in last["events"]}
        assert "fault" in kinds
        assert "health" in kinds
        assert not (_all_keys(last) & _WALL_CLOCK_KEYS)


# ---------------------------------------------------------------------------
# Prometheus exposition: grammar, pairing, monotonicity


class TestPrometheusExposition:
    def test_render_is_lint_clean_with_histograms(self):
        scenario = _run_scenario(clients=10)
        runtime = scenario.bridge
        body = render_prometheus(
            runtime.metrics(), runtime.tracer.stage_histograms()
        )
        assert lint_prometheus(body) == []
        assert "# TYPE repro_stage_latency_seconds histogram" in body
        assert 'repro_stage_latency_seconds_bucket{stage="' in body
        assert 'le="+Inf"' in body

    def test_counters_monotone_across_two_renders(self):
        scenario = sharded_scenario(2, clients=8, workers=2)
        runtime = scenario.bridge
        before = render_prometheus(
            runtime.metrics(), runtime.tracer.stage_histograms()
        )
        result = scenario.run(timeout=60.0)
        assert result.all_found
        after = render_prometheus(
            runtime.metrics(), runtime.tracer.stage_histograms()
        )
        first, second = counter_samples(before), counter_samples(after)
        assert second
        assert set(first) <= set(second)
        assert all(second[series] >= value for series, value in first.items())
        assert any(
            second[series] > first.get(series, 0.0) for series in second
        )

    def test_histogram_buckets_are_cumulative_up_to_count(self):
        scenario = _run_scenario(clients=8)
        runtime = scenario.bridge
        body = render_prometheus(
            runtime.metrics(), runtime.tracer.stage_histograms()
        )
        for stage, hist in runtime.tracer.stage_histograms().items():
            if hist.count == 0:
                continue
            inf_line = (
                f'repro_stage_latency_seconds_bucket{{stage="{stage}",le="+Inf"}}'
                f" {hist.count}"
            )
            count_line = (
                f'repro_stage_latency_seconds_count{{stage="{stage}"}}'
                f" {hist.count}"
            )
            assert inf_line in body
            assert count_line in body

    @pytest.mark.parametrize(
        "body",
        [
            "orphan_sample 1\n",  # sample with no # TYPE
            "# TYPE foo gauge\nfoo 1\n",  # TYPE without HELP
            "# HELP foo h\n# TYPE foo gauge\nfoo abc\n",  # bad value
            "# HELP foo h\n# TYPE foo widget\nfoo 1\n",  # unknown type
            "# BLAH nonsense\n",  # unknown comment
            "# HELP foo h\n# TYPE foo gauge\nfoo 1",  # missing newline
            '# HELP foo h\n# TYPE foo gauge\nfoo{1bad="x"} 1\n',  # bad label
        ],
    )
    def test_lint_rejects_malformed_bodies(self, body):
        assert lint_prometheus(body)

    def test_counter_samples_keys_series_and_ignores_gauges(self):
        text = (
            "# HELP a h\n# TYPE a counter\n"
            'a{worker="w0"} 3\na{worker="w1"} 4\n'
            "# HELP b h\n# TYPE b gauge\nb 2\n"
        )
        assert counter_samples(text) == {
            'a{worker="w0"}': 3.0,
            'a{worker="w1"}': 4.0,
        }


# ---------------------------------------------------------------------------
# the /metrics endpoint, simulated and live


class _ScrapeProbe:
    """A one-endpoint node that records every datagram it receives."""

    def __init__(self, endpoint: Endpoint) -> None:
        self.endpoint = endpoint
        self.name = "scrape-probe"
        self.received = []

    def unicast_endpoints(self):
        return [self.endpoint]

    def multicast_groups(self):
        return []

    def on_attached(self, engine):
        pass

    def on_datagram(self, engine, data, source, destination):
        self.received.append(data)


class TestMetricsEndpoint:
    def _scrape_simulated(self, request: bytes) -> bytes:
        scenario = _run_scenario(clients=8)
        runtime = scenario.bridge
        network = scenario.network
        endpoint = MetricsEndpoint(
            runtime, Endpoint("metrics.local", 9090, Transport.TCP)
        )
        probe = _ScrapeProbe(Endpoint("scraper.local", 9091, Transport.TCP))
        network.attach(endpoint)
        network.attach(probe)
        network.send(
            request, source=probe.endpoint, destination=endpoint.endpoint
        )
        network.run()
        assert endpoint.scrapes == 1
        assert not endpoint.errors
        assert len(probe.received) == 1
        return probe.received[0]

    def test_http_scrape_gets_a_lint_clean_exposition(self):
        payload = self._scrape_simulated(b"GET /metrics HTTP/1.0\r\n\r\n")
        head, _, body = payload.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        assert b"text/plain; version=0.0.4" in head
        assert lint_prometheus(body.decode("utf-8")) == []

    def test_bare_datagram_scrape_gets_the_raw_body(self):
        payload = self._scrape_simulated(b"scrape")
        assert payload.startswith(b"# HELP ")
        assert lint_prometheus(payload.decode("utf-8")) == []

    def test_render_failure_answers_500_and_records_the_error(self):
        network_log = []
        endpoint = MetricsEndpoint(
            SimpleNamespace(tracer=None, metrics=lambda: 1 / 0),
            Endpoint("metrics.local", 9090, Transport.TCP),
        )
        engine = SimpleNamespace(
            send=lambda data, source, destination: network_log.append(data)
        )
        endpoint.on_datagram(
            engine,
            b"GET /metrics HTTP/1.0\r\n\r\n",
            Endpoint("scraper.local", 1, Transport.TCP),
            endpoint.endpoint,
        )
        assert endpoint.scrapes == 1
        assert len(endpoint.errors) == 1
        assert network_log[0].startswith(b"HTTP/1.0 500")

    @live_only
    def test_live_scrape_over_real_tcp(self):
        scrape = run_metrics_scrape(clients=6, workers=2, port=26911)
        assert scrape.ok, scrape.problems[:5]
        assert scrape.scrapes == 2
        assert scrape.families > 0
        assert scrape.body_bytes > 0
        assert scrape.counters_monotone


# ---------------------------------------------------------------------------
# the latency signal into the detector: inert by default


def _synthetic_snapshot(at: float, workers: int = 2) -> ShardMetrics:
    rows = tuple(
        WorkerMetrics(
            index=index,
            name=f"w{index}",
            active_sessions=0,
            completed_sessions=0,
            evicted_sessions=0,
            worker_id=index,
        )
        for index in range(workers)
    )
    return ShardMetrics(
        at=at,
        workers=rows,
        router=RouterMetrics(0, 0, 0, 0, 0, 0.0),
        active_workers=workers,
    )


class TestLatencyCeiling:
    def test_score_ignores_latency_without_a_ceiling(self):
        policy = HealthPolicy()
        assert policy.score(0.0, 0, 0.0, latency_p99=999.0) == 0.0

    def test_score_latency_term_with_a_ceiling(self):
        policy = HealthPolicy(latency_p99_ceiling=0.5)
        assert policy.score(0.0, 0, 0.0, latency_p99=1.0) == pytest.approx(2.0)
        assert policy.score(0.0, 0, 0.0, latency_p99=0.0) == 0.0

    def test_ceiling_must_be_positive_when_set(self):
        with pytest.raises(ConfigurationError):
            HealthPolicy(latency_p99_ceiling=0.0)

    def test_detector_decisions_bit_identical_with_ceiling_off(self):
        # The acceptance criterion: passing a latency signal to a
        # gauge-only detector never changes anything — probes, streaks,
        # actions and counters all stay identical.
        policy = dict(suspect_after=1, fail_after=2, cooldown=0.0)
        plain = FailureDetector(HealthPolicy(**policy))
        fed = FailureDetector(HealthPolicy(**policy))
        for step in range(4):
            snapshot = _synthetic_snapshot(at=0.1 * step)
            if step in (1, 2):  # wedge worker 0's heartbeat for two probes
                snapshot = ShardMetrics(
                    at=snapshot.at,
                    workers=(
                        WorkerMetrics(
                            index=0,
                            name="w0",
                            active_sessions=0,
                            completed_sessions=0,
                            evicted_sessions=0,
                            worker_id=0,
                            heartbeat_age=1.0,
                        ),
                    )
                    + snapshot.workers[1:],
                    router=snapshot.router,
                    active_workers=snapshot.active_workers,
                )
            latency = {0: 123.0, 1: 456.0}
            assert plain.observe(snapshot) == fed.observe(
                snapshot, latency=latency
            )
            assert plain.last_probes == fed.last_probes
            assert plain.counters() == fed.counters()

    def test_latency_signal_trips_the_detector_when_enabled(self):
        detector = FailureDetector(
            HealthPolicy(
                latency_p99_ceiling=0.05, suspect_after=1, fail_after=2,
                cooldown=0.0,
            )
        )
        slow = {0: 0.2, 1: 0.001}  # worker 0 grey, worker 1 healthy
        first = detector.observe(_synthetic_snapshot(0.0), latency=slow)
        assert [(action.worker_id, action.kind) for action in first] == [
            (0, "quarantine")
        ]
        second = detector.observe(_synthetic_snapshot(0.1), latency=slow)
        assert [(action.worker_id, action.kind) for action in second] == [
            (0, "replace")
        ]
        assert detector.state_of(1) == "healthy"


# ---------------------------------------------------------------------------
# span-ring accounting on the metrics rows (satellite: conserved sums)


class TestSpanAccounting:
    def test_ring_accounting_conserved_through_replacement(self):
        scenario = _run_scenario(clients=16, trace_sample=1.0)
        runtime = scenario.bridge
        victim = runtime.metrics().workers[0].worker_id
        runtime.replace_worker(victim)
        scenario.network.run()
        # Every recorder — including the retired victim's, which the
        # tracer keeps — conserves pushed == retained + dropped.
        for recorder in runtime.tracer.recorders():
            assert recorder.pushed == len(recorder.spans()) + recorder.dropped
        # The surviving metrics rows mirror their recorders exactly.
        for row in runtime.metrics().workers:
            recorder = runtime.tracer.find(row.name)
            assert recorder is not None
            assert row.spans_dropped == recorder.dropped
            assert row.span_seq_high == recorder.seq_high


# ---------------------------------------------------------------------------
# the table plumbing


class TestTelemetryTable:
    def test_overhead_row_gate(self):
        row = CollectorOverheadResult(
            runtime_kind="simulated",
            clients=10,
            workers=2,
            pairs=3,
            attempts=3,
            bare_ms=100.0,
            collected_ms=104.0,
            windows=5,
        )
        assert row.overhead_pct == pytest.approx(4.0)
        assert row.ok
        assert row.as_row()["threshold_pct"] == COLLECTOR_OVERHEAD_THRESHOLD_PCT
        over = CollectorOverheadResult(
            runtime_kind="simulated",
            clients=10,
            workers=2,
            pairs=3,
            attempts=3,
            bare_ms=100.0,
            collected_ms=106.0,
            windows=5,
        )
        assert not over.ok
        no_windows = CollectorOverheadResult(
            runtime_kind="simulated",
            clients=10,
            workers=2,
            pairs=3,
            attempts=3,
            bare_ms=100.0,
            collected_ms=100.0,
            windows=0,
        )
        assert not no_windows.ok  # a gate that collected nothing proves nothing

    def test_telemetry_result_ok_composition(self):
        row = CollectorOverheadResult(
            runtime_kind="simulated",
            clients=10,
            workers=2,
            pairs=3,
            attempts=3,
            bare_ms=100.0,
            collected_ms=101.0,
            windows=3,
        )
        good_scrape = ScrapeCheck(
            port=1, scrapes=2, body_bytes=10, families=3, problems=[],
            counters_monotone=True,
        )
        bad_scrape = ScrapeCheck(
            port=1, scrapes=2, body_bytes=10, families=3,
            problems=["line 1: bad"], counters_monotone=True,
        )
        assert TelemetryResult(case=2, rows=[row], scrape=good_scrape).ok
        assert not TelemetryResult(case=2, rows=[], scrape=good_scrape).ok
        assert not TelemetryResult(case=2, rows=[row], scrape=bad_scrape).ok
        assert TelemetryResult(
            case=2, rows=[row], live_skipped="no loopback"
        ).ok

    def test_cli_parser_accepts_the_telemetry_table(self):
        from repro.evaluation.cli import build_parser

        args = build_parser().parse_args(["--table", "telemetry"])
        assert args.table == "telemetry"

    def test_write_postmortems_one_file_per_bundle(self, tmp_path, monkeypatch):
        from repro.evaluation.cli import write_postmortems

        monkeypatch.setenv("REPRO_BENCH_RESULTS_DIR", str(tmp_path))
        result = SimpleNamespace(
            name="heal-x", postmortems=[{"reason": "a"}, {"reason": "b"}]
        )
        paths = write_postmortems([result])
        assert [os.path.basename(path) for path in paths] == [
            "POSTMORTEM_heal-x_0.json",
            "POSTMORTEM_heal-x_1.json",
        ]
        with open(paths[1], encoding="utf-8") as handle:
            assert json.load(handle) == {"reason": "b"}
