"""Shared pytest fixtures for the Starlink reproduction test suite."""

from __future__ import annotations

import os
import sys

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.automata.merge import MergedAutomaton  # noqa: E402
from repro.core.engine import automata_engine  # noqa: E402
from repro.core.mdl.base import create_composer, create_parser  # noqa: E402
from repro.core.translation.logic import TranslationLogic  # noqa: E402
from repro.network.latency import CalibratedLatencies, LatencyModel  # noqa: E402
from repro.network.simulated import SimulatedNetwork  # noqa: E402
from repro.protocols.http.mdl import http_mdl  # noqa: E402
from repro.protocols.mdns.mdl import mdns_mdl  # noqa: E402
from repro.protocols.slp.mdl import slp_mdl  # noqa: E402
from repro.protocols.ssdp.mdl import ssdp_mdl  # noqa: E402


@pytest.fixture
def fast_latencies() -> CalibratedLatencies:
    """Latency calibration with sub-millisecond services, for quick tests."""
    quick = LatencyModel(0.001, 0.002)
    return CalibratedLatencies(
        link=LatencyModel(0.0001, 0.0002),
        slp_service=quick,
        mdns_service=quick,
        ssdp_service=quick,
        http_service=quick,
        slp_client_overhead=LatencyModel(0.0, 0.0),
        mdns_client_overhead=LatencyModel(0.0, 0.0),
        upnp_client_overhead=LatencyModel(0.0, 0.0),
        bridge_processing=LatencyModel(0.0, 0.0),
    )


@pytest.fixture
def network(fast_latencies: CalibratedLatencies) -> SimulatedNetwork:
    return SimulatedNetwork(latencies=fast_latencies, seed=11)


@pytest.fixture
def slp_spec():
    return slp_mdl()


@pytest.fixture
def ssdp_spec():
    return ssdp_mdl()


@pytest.fixture
def http_spec():
    return http_mdl()


@pytest.fixture
def mdns_spec():
    return mdns_mdl()


@pytest.fixture
def slp_codec(slp_spec):
    return create_parser(slp_spec), create_composer(slp_spec)


@pytest.fixture
def ssdp_codec(ssdp_spec):
    return create_parser(ssdp_spec), create_composer(ssdp_spec)


@pytest.fixture
def http_codec(http_spec):
    return create_parser(http_spec), create_composer(http_spec)


@pytest.fixture
def mdns_codec(mdns_spec):
    return create_parser(mdns_spec), create_composer(mdns_spec)


@pytest.fixture
def reference_engines(monkeypatch):
    """``switch(True)`` makes every engine built after it run the references.

    The swap is made at the factory seams, not through an engine option:
    the interpreting MDL codecs, no first-bytes discriminator (so classify
    trial-parses every candidate), ``MergedAutomaton.scan_step`` for the
    cached transition plans and ``TranslationLogic.interpret`` for the
    generated translators.  ``switch(False)`` restores the plans.
    """

    def switch(on: bool) -> None:
        monkeypatch.undo()
        if not on:
            return
        monkeypatch.setattr(
            automata_engine,
            "create_parser",
            lambda spec: create_parser(spec, interpreted=True),
        )
        monkeypatch.setattr(
            automata_engine,
            "create_composer",
            lambda spec: create_composer(spec, interpreted=True),
        )
        monkeypatch.setattr(automata_engine, "discriminator_for", lambda spec: None)
        monkeypatch.setattr(MergedAutomaton, "step", MergedAutomaton.scan_step)
        monkeypatch.setattr(TranslationLogic, "apply", TranslationLogic.interpret)

    yield switch
    monkeypatch.undo()

