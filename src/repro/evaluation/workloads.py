"""Workload construction for the evaluation scenarios.

A *scenario* wires legacy endpoints (and, for the bridged cases, a deployed
Starlink bridge) onto a fresh simulated network and exposes a uniform
``lookup()`` driver, so the harness can run the same repetition loop for
every row of Fig. 12.

The service identifiers used throughout are the three spellings of the same
test service, one per discovery vocabulary:

* SLP:     ``service:test``
* UPnP:    ``urn:schemas-upnp-org:service:test:1``
* Bonjour: ``_test._tcp.local``
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..bridges.specs import BRIDGE_BUILDERS, CASE_NAMES
from ..core.engine.bridge import StarlinkBridge
from ..network.latency import CalibratedLatencies, LatencyModel, default_latencies
from ..network.aio import AsyncSocketNetwork
from ..network.engine import RECENT_RECORDS
from ..network.simulated import SimulatedNetwork
from ..obs.tracing import Tracer
from ..protocols.common import LookupResult
from ..protocols.mdns import BonjourBrowser, BonjourResponder
from ..protocols.slp import SLPServiceAgent, SLPUserAgent
from ..protocols.upnp import UPnPControlPoint, UPnPDevice
from ..runtime import (
    Autoscaler,
    AutoscaleDecision,
    AutoscalerPolicy,
    ElasticController,
    ScaleEvent,
    ShardedRuntime,
    ShardMetrics,
)
from ..runtime.aio_live import AsyncLiveShardedRuntime

__all__ = [
    "SLP_SERVICE_TYPE",
    "UPNP_SERVICE_TYPE",
    "BONJOUR_SERVICE_NAME",
    "Scenario",
    "ConcurrentScenario",
    "ConcurrentResult",
    "LiveScenario",
    "ElasticPhase",
    "ElasticPhaseStats",
    "ElasticResult",
    "ElasticScenario",
    "legacy_scenario",
    "bridged_scenario",
    "concurrent_scenario",
    "sharded_scenario",
    "live_sharded_scenario",
    "live_twin_scenario",
    "elastic_scenario",
    "LEGACY_PROTOCOLS",
    "LIVE_BRIDGE_PORT",
    "LIVE_SERVICE_PORT",
    "LIVE_CLIENT_PORT_BASE",
    "every_record",
]

SLP_SERVICE_TYPE = "service:test"
UPNP_SERVICE_TYPE = "urn:schemas-upnp-org:service:test:1"
BONJOUR_SERVICE_NAME = "_test._tcp.local"

#: Legacy protocol names in the order of Fig. 12(a).
LEGACY_PROTOCOLS = ["SLP", "Bonjour", "UPnP"]


def every_record(records: List, count: int, what: str) -> List:
    """``records`` when they are all ``count`` recorded: a reader that
    needs every record raises rather than read a wrapped ring."""
    if len(records) != count:
        raise RuntimeError(
            f"{count} {what} recorded but only the {len(records)} most recent "
            f"kept (rings of {RECENT_RECORDS})"
        )
    return records


@dataclass
class Scenario:
    """A ready-to-run evaluation scenario."""

    name: str
    network: SimulatedNetwork
    lookup: Callable[[], LookupResult]
    bridge: Optional[StarlinkBridge] = None
    description: str = ""

    def run(self, repetitions: int) -> List[LookupResult]:
        """Perform ``repetitions`` lookups back to back."""
        return [self.lookup() for _ in range(repetitions)]


def _make_client_and_service(
    client_protocol: str, service_protocol: str, latencies: CalibratedLatencies
):
    """Instantiate the legacy endpoints for a (client, service) protocol pair."""
    if service_protocol == "SLP":
        service = SLPServiceAgent(latency=latencies.slp_service)
    elif service_protocol == "Bonjour":
        service = BonjourResponder(latency=latencies.mdns_service)
    elif service_protocol == "UPnP":
        service = UPnPDevice(
            ssdp_latency=latencies.ssdp_service, http_latency=latencies.http_service
        )
    else:
        raise ValueError(f"unknown service protocol {service_protocol!r}")

    if client_protocol == "SLP":
        client = SLPUserAgent(client_overhead=latencies.slp_client_overhead)
        target = SLP_SERVICE_TYPE
    elif client_protocol == "Bonjour":
        client = BonjourBrowser(client_overhead=latencies.mdns_client_overhead)
        target = BONJOUR_SERVICE_NAME
    elif client_protocol == "UPnP":
        client = UPnPControlPoint(client_overhead=latencies.upnp_client_overhead)
        target = UPNP_SERVICE_TYPE
    else:
        raise ValueError(f"unknown client protocol {client_protocol!r}")
    return client, service, target


def legacy_scenario(
    protocol: str,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
) -> Scenario:
    """A legacy client looking up a legacy service of the *same* protocol.

    These are the baseline measurements of Fig. 12(a).
    """
    latencies = latencies if latencies is not None else default_latencies()
    network = SimulatedNetwork(latencies=latencies, seed=seed)
    client, service, target = _make_client_and_service(protocol, protocol, latencies)
    network.attach(service)
    network.attach(client)
    return Scenario(
        name=f"legacy-{protocol.lower()}",
        network=network,
        lookup=lambda: client.lookup(network, target),
        description=f"Legacy {protocol} lookup answered by a legacy {protocol} service",
    )


def bridged_scenario(
    case: int,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
    processing_delay: Optional[float] = None,
) -> Scenario:
    """One of the six Starlink connector cases of Fig. 12(b).

    The scenario contains the legacy client of the case's *source* protocol,
    the legacy service of its *target* protocol, and the Starlink bridge for
    that pair deployed in between.
    """
    if case not in BRIDGE_BUILDERS:
        raise ValueError(f"unknown case {case}; valid cases are 1..6")
    latencies = latencies if latencies is not None else default_latencies()
    network = SimulatedNetwork(latencies=latencies, seed=seed)

    client_protocol, _, service_protocol = CASE_NAMES[case].partition(" to ")
    client, service, target = _make_client_and_service(
        client_protocol, service_protocol, latencies
    )

    if processing_delay is None:
        processing_delay = latencies.bridge_processing.midpoint
    bridge = BRIDGE_BUILDERS[case](processing_delay=processing_delay)
    bridge.deploy(network)

    network.attach(service)
    network.attach(client)
    return Scenario(
        name=f"case-{case}-{CASE_NAMES[case].replace(' ', '-').lower()}",
        network=network,
        lookup=lambda: client.lookup(network, target),
        bridge=bridge,
        description=(
            f"Case {case}: legacy {client_protocol} client answered by a legacy "
            f"{service_protocol} service through the Starlink bridge"
        ),
    )


# ----------------------------------------------------------------------
# concurrent clients: many overlapping sessions through one bridge
# ----------------------------------------------------------------------
@dataclass
class ConcurrentResult:
    """Outcome of one concurrent-clients run."""

    name: str
    clients: int
    #: Per-client lookup results, in client order (``found=False`` entries
    #: are clients whose reply never arrived).
    results: List[LookupResult]
    #: Virtual seconds from the first request sent to the last reply received.
    makespan: float
    #: Translation time of every completed bridge session (seconds).
    translation_times: List[float]
    #: Engine drop counters after the run (both 0 on a clean run).
    unrouted_datagrams: int = 0
    ignored_datagrams: int = 0

    @property
    def completed(self) -> int:
        return sum(1 for result in self.results if result.found)

    @property
    def all_found(self) -> bool:
        return self.completed == self.clients

    @property
    def throughput(self) -> float:
        """Completed sessions per virtual second of makespan."""
        if self.makespan <= 0.0:
            return 0.0
        return self.completed / self.makespan


@dataclass
class ConcurrentScenario:
    """N legacy clients with overlapping lookups through one runtime.

    The clients fire their requests ``spacing`` virtual seconds apart —
    far less than a service round trip — so the bridge holds many sessions
    in flight simultaneously.  Clients use the non-blocking
    ``start_lookup``/``lookup_result`` API and match replies by their
    transaction identifier (or, for the two-leg UPnP control point, by
    completing the SSDP+HTTP dialog), which is how correct per-client
    attribution is verified end to end.

    ``bridge`` is any deployment exposing ``sessions`` /
    ``unrouted_datagrams`` / ``ignored_datagrams`` — a single-engine
    :class:`StarlinkBridge` or a multi-worker
    :class:`~repro.runtime.runtime.ShardedRuntime`.
    """

    name: str
    network: SimulatedNetwork
    bridge: object
    clients: List
    target: str
    spacing: float
    description: str = ""

    def run(self, timeout: float = 30.0) -> ConcurrentResult:
        network = self.network
        started: List = []
        for index, client in enumerate(self.clients):

            def start(client=client) -> None:
                started.append((client, client.start_lookup(network, self.target)))

            network.call_later(index * self.spacing, start)

        expected = len(self.clients)

        def all_answered() -> bool:
            if len(started) < expected:
                return False
            return all(client.lookup_result(key) is not None for client, key in started)

        first_send = network.now()
        network.run_until(
            all_answered, timeout=timeout + expected * self.spacing
        )
        return _collect_concurrent_result(
            self.name, self.bridge, started, first_send, expected
        )


def _collect_concurrent_result(
    name: str, bridge, started, first_send: float, expected: int
) -> ConcurrentResult:
    """Harvest the per-client results after a concurrent run.

    Makespan comes from the reply timestamps themselves (virtual on the
    simulation, wall on sockets), so idle time after the last reply —
    simulation quiescence or live polling slack — does not inflate it.
    """
    results: List[LookupResult] = []
    reply_times: List[float] = []
    for client, key in started:
        result = client.lookup_result(key)
        if result is None:
            results.append(LookupResult(found=False))
            continue
        results.append(result)
        reply_times.append(client.lookup_started_at(key) + result.response_time)
    makespan = (max(reply_times) - first_send) if reply_times else 0.0

    return ConcurrentResult(
        name=name,
        clients=expected,
        results=results,
        makespan=makespan,
        translation_times=[
            record.translation_time
            for record in every_record(bridge.sessions, bridge.completed_count, "sessions")
        ],
        unrouted_datagrams=bridge.unrouted_datagrams,
        ignored_datagrams=bridge.ignored_datagrams,
    )


def _make_concurrent_clients(
    client_protocol: str,
    count: int,
    host: Optional[str] = None,
    port_base: Optional[int] = None,
    client_overhead: Optional[LatencyModel] = None,
):
    """N distinct legacy clients of ``client_protocol`` with unique endpoints.

    Transaction identifiers are pinned per client index, so two runs of the
    same workload — regardless of shard count or network engine — translate
    byte-identical outputs (the sharding benchmarks assert exactly that).
    ``host``/``port_base`` relocate the clients for the socket engine,
    where every node shares the loopback address and only ports differ.
    """
    clients = []
    for index in range(count):
        kwargs: Dict[str, object] = {}
        if client_overhead is not None:
            kwargs["client_overhead"] = client_overhead
        if client_protocol == "SLP":
            clients.append(
                SLPUserAgent(
                    host=host or f"slp-client-{index}.local",
                    port=(port_base or 5100) + index,
                    name=f"slp-client-{index}",
                    xid_start=1000 + index * 16,
                    **kwargs,
                )
            )
        elif client_protocol == "Bonjour":
            clients.append(
                BonjourBrowser(
                    host=host or f"bonjour-client-{index}.local",
                    port=(port_base or 5200) + index,
                    name=f"bonjour-client-{index}",
                    query_id_start=2000 + index * 16,
                    **kwargs,
                )
            )
        elif client_protocol == "UPnP":
            clients.append(
                UPnPControlPoint(
                    host=host or f"upnp-client-{index}.local",
                    port=(port_base or 5300) + index,
                    name=f"upnp-client-{index}",
                    **kwargs,
                )
            )
        else:
            raise ValueError(f"unknown client protocol {client_protocol!r}")
    return clients


def concurrent_scenario(
    case: int,
    clients: int = 10,
    spacing: float = 0.002,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
    processing_delay: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> ConcurrentScenario:
    """``clients`` overlapping legacy lookups through the bridge of ``case``.

    All six cases are supported: SLP and Bonjour clients fire one
    non-blocking datagram each, and the two-leg UPnP control point (cases
    3/4) drives its SSDP+HTTP dialog reactively via ``start_control``.
    ``spacing`` staggers the requests — keep it well below the service
    latency so the sessions genuinely interleave.  ``tracer`` attaches a
    :mod:`repro.obs` tracer to the single-engine bridge (the latency table
    uses this to attribute engine stages without a router in the path).
    """
    if case not in BRIDGE_BUILDERS:
        raise ValueError(f"unknown case {case}; valid cases are 1..6")
    latencies = latencies if latencies is not None else default_latencies()
    network = SimulatedNetwork(latencies=latencies, seed=seed)

    client_protocol, _, service_protocol = CASE_NAMES[case].partition(" to ")
    _, service, target = _make_client_and_service(
        client_protocol, service_protocol, latencies
    )
    concurrent_clients = _make_concurrent_clients(client_protocol, clients)

    if processing_delay is None:
        processing_delay = latencies.bridge_processing.midpoint
    bridge = BRIDGE_BUILDERS[case](processing_delay=processing_delay)
    if tracer is not None:
        bridge.tracer = tracer
    bridge.deploy(network)

    network.attach(service)
    for client in concurrent_clients:
        network.attach(client)

    return ConcurrentScenario(
        name=f"case-{case}-x{clients}",
        network=network,
        bridge=bridge,
        clients=concurrent_clients,
        target=target,
        spacing=spacing,
        description=(
            f"{clients} overlapping legacy {client_protocol} lookups answered by a "
            f"legacy {service_protocol} service through one Starlink bridge"
        ),
    )


# ----------------------------------------------------------------------
# sharded runtime: N clients across W parallel worker engines
# ----------------------------------------------------------------------
def sharded_scenario(
    case: int,
    clients: int = 100,
    workers: int = 4,
    spacing: float = 0.002,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
    processing_delay: Optional[float] = None,
    trace_sample: Optional[float] = None,
) -> ConcurrentScenario:
    """``clients`` overlapping lookups through a ``workers``-shard runtime.

    Same clients and legacy service as :func:`concurrent_scenario`, but the
    bridge is deployed as a :class:`~repro.runtime.runtime.ShardedRuntime`:
    a shard router owns the public endpoints and partitions the sessions
    across ``workers`` engines.  Each worker's translated sends queue on
    its serial send clock, so the sweep over worker counts measures
    genuine parallel capacity — run with ``workers=1`` for the
    like-for-like single-shard baseline.
    """
    if case not in BRIDGE_BUILDERS:
        raise ValueError(f"unknown case {case}; valid cases are 1..6")
    latencies = latencies if latencies is not None else default_latencies()
    network = SimulatedNetwork(latencies=latencies, seed=seed)

    client_protocol, _, service_protocol = CASE_NAMES[case].partition(" to ")
    _, service, target = _make_client_and_service(
        client_protocol, service_protocol, latencies
    )
    concurrent_clients = _make_concurrent_clients(client_protocol, clients)

    if processing_delay is None:
        processing_delay = latencies.bridge_processing.midpoint
    bridge = BRIDGE_BUILDERS[case](processing_delay=processing_delay)
    bridge.validate()
    overrides: Dict[str, object] = {}
    if trace_sample is not None:
        overrides["trace_sample"] = trace_sample
    runtime = ShardedRuntime.from_bridge(bridge, workers=workers, **overrides)
    runtime.deploy(network)

    network.attach(service)
    for client in concurrent_clients:
        network.attach(client)

    return ConcurrentScenario(
        name=f"case-{case}-x{clients}-w{workers}",
        network=network,
        bridge=runtime,
        clients=concurrent_clients,
        target=target,
        spacing=spacing,
        description=(
            f"{clients} overlapping legacy {client_protocol} lookups through a "
            f"{workers}-shard Starlink runtime answering from a legacy "
            f"{service_protocol} service"
        ),
    )


# ----------------------------------------------------------------------
# live sharded runtime: the same workload over real loopback sockets
# ----------------------------------------------------------------------
#: Fixed loopback port layout of the live workload.  The ports are part of
#: the topology: the simulated twin uses the same numbers, so translated
#: bytes that embed a bridge or service endpoint are identical in both.
LIVE_BRIDGE_PORT = 24700
LIVE_SERVICE_PORT = 25700
LIVE_CLIENT_PORT_BASE = 25750

#: Wall-clock seconds of translation compute charged per translated send in
#: the live workload (the serial resource each worker parallelises).
LIVE_PROCESSING_DELAY = 0.005

_LIVE_HOST = "127.0.0.1"
_NO_LATENCY = LatencyModel(0.0, 0.0)
_LIVE_SERVICE_LATENCY = LatencyModel(0.001, 0.001)


def _fast_calibration() -> CalibratedLatencies:
    """Sub-millisecond calibration for the simulated twin of a live run."""
    quick = LatencyModel(0.001, 0.001)
    return CalibratedLatencies(
        link=LatencyModel(0.0001, 0.0001),
        slp_service=quick,
        mdns_service=quick,
        ssdp_service=quick,
        http_service=quick,
        slp_client_overhead=_NO_LATENCY,
        mdns_client_overhead=_NO_LATENCY,
        upnp_client_overhead=_NO_LATENCY,
        bridge_processing=_NO_LATENCY,
    )


def _live_service(service_protocol: str):
    """The legacy service of a live topology, pinned to the loopback layout."""
    if service_protocol == "SLP":
        return SLPServiceAgent(
            host=_LIVE_HOST, port=LIVE_SERVICE_PORT, latency=_LIVE_SERVICE_LATENCY
        )
    if service_protocol == "Bonjour":
        return BonjourResponder(
            host=_LIVE_HOST, port=LIVE_SERVICE_PORT, latency=_LIVE_SERVICE_LATENCY
        )
    if service_protocol == "UPnP":
        return UPnPDevice(
            host=_LIVE_HOST,
            ssdp_port=LIVE_SERVICE_PORT,
            http_port=LIVE_SERVICE_PORT + 1,
            ssdp_latency=_LIVE_SERVICE_LATENCY,
            http_latency=_LIVE_SERVICE_LATENCY,
        )
    raise ValueError(f"unknown service protocol {service_protocol!r}")


@dataclass
class LiveScenario:
    """N legacy clients through a live sharded runtime on real sockets.

    The socket-engine sibling of :class:`ConcurrentScenario`: the same
    clients, the same non-blocking lookup driver, but the network is an
    :class:`~repro.network.aio.AsyncSocketNetwork` and time is the wall
    clock — :meth:`run` polls for completion instead of advancing a
    simulation.  ``run`` also tears the deployment down (sockets and the
    loop thread are real resources), so a scenario runs **once**; what the
    deployment looked like just before the teardown stays readable on
    :attr:`final_metrics`, whether the run succeeded, timed out or raised.
    """

    name: str
    network: AsyncSocketNetwork
    runtime: AsyncLiveShardedRuntime
    clients: List
    target: str
    description: str = ""
    #: ``runtime.metrics(include_latency=False)`` taken by :meth:`run`
    #: right before it undeploys (after which ``metrics()`` raises).
    final_metrics: Optional[ShardMetrics] = None

    def run(self, timeout: float = 15.0) -> ConcurrentResult:
        network = self.network
        try:
            started = []
            first_send = network.now()
            for client in self.clients:
                started.append((client, client.start_lookup(network, self.target)))

            def all_answered() -> bool:
                return all(
                    client.lookup_result(key) is not None for client, key in started
                )

            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline and not all_answered():
                # A worker-loop exception means the missing replies will
                # never come; fail immediately instead of draining the
                # timeout.
                if self.runtime.worker_errors:
                    break
                time.sleep(0.002)
            if self.runtime.worker_errors:
                raise self.runtime.worker_errors[0]
            return _collect_concurrent_result(
                self.name, self.runtime, started, first_send, len(self.clients)
            )
        finally:
            try:
                self.final_metrics = self.runtime.metrics(include_latency=False)
            finally:
                self.runtime.undeploy()
                self.network.close()

    @property
    def raw_responses_by_client(self) -> Dict[str, Tuple[bytes, ...]]:
        """Raw translated bytes each client received (byte-identity checks)."""
        return {client.name: tuple(client.raw_responses) for client in self.clients}


def _live_case_parts(case: int, clients: int):
    if case not in BRIDGE_BUILDERS:
        raise ValueError(f"unknown case {case}; valid cases are 1..6")
    client_protocol, _, service_protocol = CASE_NAMES[case].partition(" to ")
    targets = {
        "SLP": SLP_SERVICE_TYPE,
        "Bonjour": BONJOUR_SERVICE_NAME,
        "UPnP": UPNP_SERVICE_TYPE,
    }
    concurrent_clients = _make_concurrent_clients(
        client_protocol,
        clients,
        host=_LIVE_HOST,
        port_base=LIVE_CLIENT_PORT_BASE,
        client_overhead=_NO_LATENCY,
    )
    service = _live_service(service_protocol)
    return concurrent_clients, service, targets[client_protocol], service_protocol


def _live_bridge(case: int, processing_delay: float) -> StarlinkBridge:
    bridge = BRIDGE_BUILDERS[case](
        host=_LIVE_HOST,
        base_port=LIVE_BRIDGE_PORT,
        processing_delay=processing_delay,
    )
    bridge.validate()
    return bridge


def live_sharded_scenario(
    case: int,
    clients: int = 24,
    workers: int = 4,
    processing_delay: float = LIVE_PROCESSING_DELAY,
    trace_sample: Optional[float] = None,
) -> LiveScenario:
    """``clients`` real-socket lookups through a ``workers``-shard runtime.

    Deploys an :class:`~repro.runtime.aio_live.AsyncLiveShardedRuntime`
    (router and workers on one event loop) on a fresh socket engine,
    with the legacy service and N OS-socket clients of the case attached
    alongside.  Time here is the wall clock; with ``processing_delay > 0``
    the throughput is *modelled*: that many seconds of serialised
    translation compute per translated send is the timer the workers
    parallelise (a scheduling demo, not a performance result — ``bench/``
    measures the bridge's real work at ``processing_delay=0``).
    """
    network = AsyncSocketNetwork()
    concurrent_clients, service, target, service_protocol = _live_case_parts(
        case, clients
    )
    overrides: Dict[str, object] = {}
    if trace_sample is not None:
        overrides["trace_sample"] = trace_sample
    live_runtime = AsyncLiveShardedRuntime.from_bridge(
        _live_bridge(case, processing_delay), workers=workers, **overrides
    )
    try:
        live_runtime.deploy(network)
        network.attach(service)
        for client in concurrent_clients:
            network.attach(client)
    except Exception:
        live_runtime.undeploy()
        network.close()
        raise
    client_protocol, _, _ = CASE_NAMES[case].partition(" to ")
    return LiveScenario(
        name=f"live-case-{case}-x{clients}-w{workers}",
        network=network,
        runtime=live_runtime,
        clients=concurrent_clients,
        target=target,
        description=(
            f"{clients} legacy {client_protocol} lookups over real loopback "
            f"sockets through a {workers}-shard live Starlink runtime "
            f"answering from a legacy {service_protocol} service"
        ),
    )


def live_twin_scenario(
    case: int,
    clients: int = 24,
    workers: int = 4,
    processing_delay: float = LIVE_PROCESSING_DELAY,
    seed: int = 7,
) -> ConcurrentScenario:
    """The simulated twin of :func:`live_sharded_scenario`.

    Identical topology — same loopback host, same port layout, same pinned
    client transaction identifiers, same shard count, ephemeral ports off —
    on the deterministic simulation.  Translated outputs must be
    byte-identical to the live run's; only timings differ.  The live
    benchmark and ``--table live-sharding`` assert that equality.
    """
    network = SimulatedNetwork(latencies=_fast_calibration(), seed=seed)
    concurrent_clients, service, target, service_protocol = _live_case_parts(
        case, clients
    )
    runtime = ShardedRuntime.from_bridge(
        _live_bridge(case, processing_delay),
        workers=workers,
        ephemeral_ports=False,
        worker_port_stride=16,
    )
    runtime.deploy(network)
    network.attach(service)
    for client in concurrent_clients:
        network.attach(client)
    return ConcurrentScenario(
        name=f"live-twin-case-{case}-x{clients}-w{workers}",
        network=network,
        bridge=runtime,
        clients=concurrent_clients,
        target=target,
        spacing=0.0005,
        description=(
            f"Simulated twin of the live {workers}-shard case-{case} workload "
            f"(same loopback topology, virtual clock)"
        ),
    )


# ----------------------------------------------------------------------
# elastic control plane: bursty load through an autoscaled runtime
# ----------------------------------------------------------------------
@dataclass
class ElasticPhase:
    """One traffic phase of the bursty workload."""

    name: str
    clients: List
    #: Virtual second the phase's first request fires.
    start: float
    #: Seconds between consecutive requests within the phase.
    spacing: float


@dataclass(frozen=True)
class ElasticPhaseStats:
    """Measured outcome of one phase."""

    name: str
    clients: int
    completed: int
    #: Virtual seconds from the phase's first request to its last reply.
    makespan_s: float
    #: Completed sessions per virtual second of phase makespan.
    throughput: float

    def as_row(self) -> Dict[str, object]:
        return {
            "phase": self.name,
            "clients": self.clients,
            "completed": self.completed,
            "makespan_s": round(self.makespan_s, 4),
            "throughput": round(self.throughput, 2),
        }


@dataclass
class ElasticResult:
    """Outcome of one elastic (autoscaled bursty-load) run."""

    name: str
    phases: List[ElasticPhaseStats]
    #: The runtime's scaling timeline (grow / drain-start / drain-complete).
    events: List[ScaleEvent]
    #: The autoscaler's decision log.
    decisions: List[AutoscaleDecision]
    peak_workers: int
    final_workers: int
    #: Sessions abandoned by the idle-timeout sweeper — must be zero: the
    #: drain protocol never abandons a session on a removed worker.
    abandoned_sessions: int
    unrouted: int
    clients: int
    completed: int
    #: The deployment's metrics snapshot after the run (router dispatch
    #: cost, per-worker completion counts, per-stage latency).
    final_metrics: Optional[ShardMetrics] = None
    #: Per-stage latency attribution rows (always-on histograms): where
    #: datagram time went across the whole grow-and-drain cycle.
    stage_latency: List[Dict[str, object]] = field(default_factory=list)

    @property
    def all_found(self) -> bool:
        return self.completed == self.clients


@dataclass
class ElasticScenario:
    """Bursty load through an autoscaled sharded runtime.

    Three phases — a steady trickle, a burst an order of magnitude denser,
    a post-burst trickle — drive a runtime deployed at ``min_workers``
    shards under an :class:`~repro.runtime.elastic.ElasticController`.
    The controller grows the pool from observed load during the burst and
    drains it back once the load subsides; :meth:`run` completes only when
    every client is answered *and* the pool is back at ``min_workers``,
    so the result witnesses the full grow-and-drain cycle.
    """

    name: str
    network: SimulatedNetwork
    runtime: ShardedRuntime
    controller: ElasticController
    phases: List[ElasticPhase]
    target: str
    min_workers: int
    description: str = ""

    def run(self, timeout: float = 60.0) -> ElasticResult:
        network = self.network
        runtime = self.runtime
        started: Dict[int, List] = {index: [] for index in range(len(self.phases))}
        for phase_index, phase in enumerate(self.phases):
            for offset, client in enumerate(phase.clients):

                def start(client=client, phase_index=phase_index) -> None:
                    started[phase_index].append(
                        (client, client.start_lookup(network, self.target))
                    )

                network.call_later(phase.start + offset * phase.spacing, start)
        total = sum(len(phase.clients) for phase in self.phases)

        def finished() -> bool:
            if sum(len(entries) for entries in started.values()) < total:
                return False
            if not all(
                client.lookup_result(key) is not None
                for entries in started.values()
                for client, key in entries
            ):
                return False
            # The run is over only once the pool has drained back: this is
            # the loss-free scale-down the control plane exists for.
            return (
                runtime.worker_count == self.min_workers
                and not runtime.scaling_in_progress
            )

        network.run_until(finished, timeout=timeout)
        final_metrics = runtime.metrics() if runtime.router is not None else None
        self.controller.stop()

        phase_stats: List[ElasticPhaseStats] = []
        completed_total = 0
        for phase_index, phase in enumerate(self.phases):
            entries = started[phase_index]
            reply_times: List[float] = []
            completed = 0
            first_send: Optional[float] = None
            for client, key in entries:
                sent_at = client.lookup_started_at(key)
                if sent_at is not None and (first_send is None or sent_at < first_send):
                    first_send = sent_at
                result = client.lookup_result(key)
                if result is not None and result.found:
                    completed += 1
                    reply_times.append((sent_at or 0.0) + result.response_time)
            completed_total += completed
            makespan = (
                max(reply_times) - (first_send or 0.0) if reply_times else 0.0
            )
            phase_stats.append(
                ElasticPhaseStats(
                    name=phase.name,
                    clients=len(phase.clients),
                    completed=completed,
                    makespan_s=makespan,
                    throughput=(completed / makespan) if makespan > 0 else 0.0,
                )
            )

        events = list(runtime.scale_events)
        peak = max(
            [self.min_workers]
            + [event.workers_after for event in events if event.kind == "grow"]
        )
        return ElasticResult(
            name=self.name,
            phases=phase_stats,
            events=events,
            decisions=self.controller.decisions,
            peak_workers=peak,
            final_workers=runtime.worker_count,
            abandoned_sessions=runtime.evicted_count,
            unrouted=runtime.unrouted_datagrams,
            clients=total,
            completed=completed_total,
            final_metrics=final_metrics,
            stage_latency=[row.as_row() for row in runtime.stage_latency()],
        )


def _elastic_calibration() -> CalibratedLatencies:
    """Fast services with a real per-message translation cost, so worker
    compute — the resource the autoscaler manages — dominates the burst."""
    return CalibratedLatencies(
        link=LatencyModel(0.0001, 0.0002),
        slp_service=LatencyModel(0.001, 0.002),
        mdns_service=LatencyModel(0.01, 0.012),
        ssdp_service=LatencyModel(0.001, 0.002),
        http_service=LatencyModel(0.001, 0.002),
        slp_client_overhead=_NO_LATENCY,
        mdns_client_overhead=_NO_LATENCY,
        upnp_client_overhead=_NO_LATENCY,
        bridge_processing=LatencyModel(0.004, 0.004),
    )


def elastic_scenario(
    case: int = 2,
    steady_clients: int = 6,
    burst_clients: int = 64,
    tail_clients: int = 6,
    burst_start: float = 0.5,
    tail_start: float = 2.5,
    min_workers: int = 1,
    max_workers: int = 4,
    latencies: Optional[CalibratedLatencies] = None,
    seed: int = 7,
    processing_delay: float = 0.004,
    policy: Optional[AutoscalerPolicy] = None,
    tick_interval: float = 0.05,
) -> ElasticScenario:
    """The bursty elastic workload: trickle, burst, trickle.

    The runtime deploys at ``min_workers`` shards with an autoscaler
    bounded at ``max_workers``; the burst's in-flight session count
    crosses the policy's high watermark (so the pool grows), and the tail
    trickle falls below the low watermark (so the pool drains back) —
    with every session completing and none abandoned, which the elastic
    benchmark asserts.
    """
    if case not in BRIDGE_BUILDERS:
        raise ValueError(f"unknown case {case}; valid cases are 1..6")
    latencies = latencies if latencies is not None else _elastic_calibration()
    network = SimulatedNetwork(latencies=latencies, seed=seed)

    client_protocol, _, service_protocol = CASE_NAMES[case].partition(" to ")
    _, service, target = _make_client_and_service(
        client_protocol, service_protocol, latencies
    )
    total = steady_clients + burst_clients + tail_clients
    clients = _make_concurrent_clients(client_protocol, total)
    phases = [
        ElasticPhase("steady", clients[:steady_clients], 0.0, 0.05),
        ElasticPhase(
            "burst",
            clients[steady_clients : steady_clients + burst_clients],
            burst_start,
            0.0015,
        ),
        ElasticPhase(
            "tail", clients[steady_clients + burst_clients :], tail_start, 0.05
        ),
    ]

    bridge = BRIDGE_BUILDERS[case](processing_delay=processing_delay)
    bridge.validate()
    runtime = ShardedRuntime.from_bridge(bridge, workers=min_workers)
    runtime.deploy(network)
    if policy is None:
        policy = AutoscalerPolicy(min_workers=min_workers, max_workers=max_workers)
    controller = ElasticController(
        runtime, Autoscaler(policy), interval=tick_interval
    )
    controller.start(network)

    network.attach(service)
    for client in clients:
        network.attach(client)

    return ElasticScenario(
        name=f"elastic-case-{case}-x{total}-w{min_workers}..{max_workers}",
        network=network,
        runtime=runtime,
        controller=controller,
        phases=phases,
        target=target,
        min_workers=min_workers,
        description=(
            f"{total} legacy {client_protocol} lookups in a "
            f"steady/burst/tail profile through an autoscaled "
            f"{min_workers}..{max_workers}-shard Starlink runtime answering "
            f"from a legacy {service_protocol} service"
        ),
    )
