"""Tests for the evaluation harness, workloads and table formatting."""

from __future__ import annotations

import pytest

from repro.evaluation.harness import (
    Summary,
    measure_connector_case,
    measure_legacy_protocol,
    run_fig12a,
    run_fig12b,
    summarise,
)
from repro.evaluation.tables import (
    PAPER_FIG12A,
    PAPER_FIG12B,
    format_fig12a,
    format_fig12b,
    format_table,
    overhead_ratios,
)
from repro.evaluation.workloads import bridged_scenario, legacy_scenario
from repro.network.latency import CalibratedLatencies, LatencyModel


@pytest.fixture
def quick_latencies(fast_latencies) -> CalibratedLatencies:
    """Distinct, fast latencies that still preserve the paper's ordering."""
    return CalibratedLatencies(
        link=LatencyModel(0.0001, 0.0002),
        slp_service=LatencyModel(0.30, 0.32),
        mdns_service=LatencyModel(0.01, 0.012),
        ssdp_service=LatencyModel(0.008, 0.01),
        http_service=LatencyModel(0.005, 0.007),
        slp_client_overhead=LatencyModel(0.001, 0.002),
        mdns_client_overhead=LatencyModel(0.02, 0.025),
        upnp_client_overhead=LatencyModel(0.03, 0.035),
        bridge_processing=LatencyModel(0.001, 0.002),
    )


class TestSummaries:
    def test_summarise_converts_to_milliseconds(self):
        summary = summarise("x", [0.1, 0.2, 0.3])
        assert summary.min_ms == pytest.approx(100)
        assert summary.median_ms == pytest.approx(200)
        assert summary.max_ms == pytest.approx(300)
        assert summary.count == 3

    def test_summarise_empty_raises(self):
        with pytest.raises(ValueError):
            summarise("x", [])

    def test_as_row(self):
        row = summarise("x", [0.1]).as_row()
        assert row == {"label": "x", "min_ms": 100.0, "median_ms": 100.0, "max_ms": 100.0}


class TestScenarios:
    def test_legacy_scenario_unknown_protocol_raises(self):
        with pytest.raises(ValueError):
            legacy_scenario("CORBA")

    def test_bridged_scenario_unknown_case_raises(self):
        with pytest.raises(ValueError):
            bridged_scenario(7)

    def test_legacy_scenario_runs(self, quick_latencies):
        scenario = legacy_scenario("Bonjour", latencies=quick_latencies)
        results = scenario.run(3)
        assert all(result.found for result in results)

    def test_bridged_scenario_exposes_bridge_sessions(self, quick_latencies):
        scenario = bridged_scenario(2, latencies=quick_latencies)
        scenario.run(2)
        assert scenario.bridge is not None
        assert len(scenario.bridge.sessions) == 2


class TestHarness:
    def test_measure_legacy_protocol(self, quick_latencies):
        summary = measure_legacy_protocol("SLP", repetitions=5, latencies=quick_latencies)
        assert summary.count == 5
        assert summary.min_ms <= summary.median_ms <= summary.max_ms

    def test_measure_connector_case(self, quick_latencies):
        summary = measure_connector_case(2, repetitions=4, latencies=quick_latencies)
        assert summary.count == 4
        assert summary.label == "2. SLP to Bonjour"

    def test_measure_connector_case_beyond_the_session_ring(self, quick_latencies):
        """More repetitions than the bridge's session ring keeps: measured
        in batches, every lookup is one sample."""
        summary = measure_connector_case(2, repetitions=300, latencies=quick_latencies)
        assert summary.count == 300

    def test_fig12_shape_is_preserved(self, quick_latencies):
        """The qualitative shape of the paper's tables holds on the simulator.

        SLP is the slow legacy protocol; connectors whose *target* is SLP
        (cases 3 and 6) inherit that cost, while all other connectors
        translate in a small fraction of the legacy response times.
        """
        legacy = {s.label: s.median_ms for s in run_fig12a(5, quick_latencies)}
        connectors = {s.label: s.median_ms for s in run_fig12b(3, quick_latencies)}
        assert legacy["SLP"] > legacy["UPnP"] > legacy["Bonjour"]
        slow_cases = [connectors["3. UPnP to SLP"], connectors["6. Bonjour to SLP"]]
        fast_cases = [
            connectors["1. SLP to UPnP"],
            connectors["2. SLP to Bonjour"],
            connectors["4. UPnP to Bonjour"],
            connectors["5. Bonjour to UPnP"],
        ]
        assert min(slow_cases) > max(fast_cases)
        # Slow cases are dominated by the SLP service wait.
        assert min(slow_cases) > 0.8 * legacy["SLP"]
        # Fast cases cost less than the legacy lookup of their source protocol.
        assert connectors["1. SLP to UPnP"] < legacy["SLP"]
        assert connectors["5. Bonjour to UPnP"] < legacy["UPnP"]


class TestTables:
    def _summaries(self):
        return [summarise("SLP", [6.0]), summarise("Bonjour", [0.7]), summarise("UPnP", [1.0])]

    def test_paper_constants_match_the_paper(self):
        assert PAPER_FIG12A["SLP"] == (5982, 6022, 6053)
        assert PAPER_FIG12B["6. Bonjour to SLP"] == (6168, 6190, 6244)

    def test_format_table_includes_paper_column(self):
        text = format_fig12a(self._summaries())
        assert "Paper median" in text
        assert "6022" in text and "SLP" in text

    def test_format_table_without_paper_values(self):
        text = format_table("title", self._summaries())
        assert "Paper median" not in text

    def test_format_fig12b_handles_unknown_labels(self):
        text = format_fig12b([summarise("99. Unknown case", [0.1])])
        assert "-" in text

    def test_overhead_ratios(self):
        legacy = self._summaries()
        connectors = [
            summarise("1. SLP to UPnP", [0.3]),
            summarise("6. Bonjour to SLP", [6.2]),
        ]
        ratios = dict(overhead_ratios(legacy, connectors))
        assert ratios["1. SLP to UPnP"] == pytest.approx(5.0, abs=0.5)
        assert ratios["6. Bonjour to SLP"] > 500


class TestElasticHarness:
    def test_run_elastic_grows_and_drains_loss_free(self):
        from repro.evaluation.harness import run_elastic
        from repro.evaluation.tables import format_elastic

        result = run_elastic(case=2, seed=7)
        assert result.all_found
        assert result.abandoned_sessions == 0
        assert result.unrouted == 0
        assert result.peak_workers == 4
        assert result.final_workers == 1
        kinds = [event.kind for event in result.events]
        assert "grow" in kinds and "drain-complete" in kinds

        text = format_elastic(result)
        assert "Scaling timeline" in text
        assert "grow 1->4" in text
        assert "drain-complete" in text
        assert "Abandoned sessions: 0" in text
        for phase in ("steady", "burst", "tail"):
            assert phase in text

    def test_elastic_table_reports_router_cost_measured_and_modelled(self):
        """Regression for the router-cost satellite: the elastic table
        keeps reporting the measured classify cost, and nothing modelled
        (the router's virtual-clock charge is gone)."""
        from repro.evaluation.harness import run_elastic
        from repro.evaluation.tables import format_elastic

        measured_only = run_elastic(case=2, seed=7)
        text = format_elastic(measured_only)
        assert "Router:" in text and "us/classify" in text
        assert "modelled routing" not in text
        assert measured_only.final_metrics.router.classify_seconds > 0.0
