"""Chaos harness: seeded, deterministic fault schedules for both runtimes.

The bridge must keep translating transparently while the deployment around
it misbehaves.  The elastic control plane made resizing loss-free; this
module *adversarially* exercises that promise: a seeded schedule of
membership faults — grows, suffix shrinks, **arbitrary-worker removals**,
worker replacements — is interleaved with waves of concurrent legacy
clients, garbage traffic aimed at the bridge's public endpoints and colour
groups, and (on the simulation) packet-loss windows.  After every run the
harness checks the whole loss-free contract at once:

* every client lookup is answered (zero dropped sessions);
* no session was evicted by the idle sweeper (zero abandoned sessions);
* nothing was unrouted (garbage never parses, so it never counts);
* no worker record raised;
* the raw bytes every client received are **identical to a fixed-shard
  twin** of the same workload — chaos may change timings, never outputs.

Determinism is the point: every random decision — which fault fires in
which round, which worker is the victim, how lossy a loss window is —
comes from one ``random.Random(seed)``, so a failing seed reproduces the
exact same schedule locally (``python -m repro.evaluation --table chaos
--seed N``).  The tier-1 soak test and ``benchmarks/bench_chaos.py`` both
print the seed of any failing run for exactly that reason.

Each table has one runner (:func:`run_chaos_once`, :func:`run_heal_once`)
over a small substrate profile: the simulation runs its faults on the
virtual clock, ``live=True`` drives the same schedule over real loopback
sockets, and every wait is the network's own ``run_until`` / ``run_for``.
Loss windows open only while no legitimate traffic is in flight, because
lost datagrams of a live session would — correctly — fail the zero-drop
assertion the harness exists to make; live chaos rounds fire garbage only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from ..bridges.specs import BRIDGE_BUILDERS, CASE_NAMES
from ..core.errors import ConfigurationError
from ..network.addressing import Endpoint, Transport
from ..network.aio import AsyncFaultyNetwork
from ..network.simulated import SimulatedNetwork
from ..obs import EventJournal, FlightRecorder, MetricsCollector
from ..runtime import (
    FailureDetector,
    HealthController,
    HealthPolicy,
    ScaleEvent,
    ShardedRuntime,
)
from ..runtime.aio_live import AsyncLiveShardedRuntime
from .workloads import (
    _elastic_calibration,
    _fast_calibration,
    _live_bridge,
    _live_case_parts,
    _make_client_and_service,
    _make_concurrent_clients,
    every_record,
)

__all__ = [
    "ChaosEvent",
    "ChaosResult",
    "run_chaos_once",
    "run_chaos",
    "DEFAULT_CHAOS_SEEDS",
    "GARBAGE_PAYLOADS",
    "HealResult",
    "run_heal_once",
    "run_heal",
    "DEFAULT_HEAL_SEEDS",
]

#: Seeds of the default chaos sweep (the acceptance criterion's ">= 3").
DEFAULT_CHAOS_SEEDS: Tuple[int, ...] = (7, 11, 13)

#: Junk the injector throws at the bridge's public endpoints and colour
#: groups: none of it parses under any MDL spec, so the engines must record
#: parse failures and carry on — garbage never becomes a session and never
#: counts as unrouted.
GARBAGE_PAYLOADS: Tuple[bytes, ...] = (
    b"",
    b"\x00",
    b"\xff" * 48,
    b"chaos \x00\x01\x02 not-a-protocol\r\n\r\n",
)

_LIVE_HOST = "127.0.0.1"

#: Membership faults a round can fire (weighted towards the arbitrary
#: removals this harness exists to cover).
_MEMBERSHIP_KINDS = ("grow", "shrink", "remove", "remove", "replace", "hold")


@dataclass(frozen=True)
class ChaosEvent:
    """One executed fault of a chaos run's schedule."""

    round: int
    #: ``grow`` | ``shrink`` | ``remove`` | ``replace`` | ``garbage`` |
    #: ``loss`` | ``hold``
    kind: str
    detail: str = ""

    def as_row(self) -> Dict[str, object]:
        return {"round": self.round, "kind": self.kind, "detail": self.detail}


@dataclass
class _RunResult:
    """What every seeded run of this harness reports: the loss-free
    contract — every lookup answered, nothing abandoned or unrouted, no
    worker record raised, bytes identical to the fixed-shard twin — and
    the seed that replays it."""

    #: The ``--table`` that replays a run.
    table: ClassVar[str]

    name: str
    seed: int
    #: ``simulated`` | ``live``
    runtime_kind: str
    rounds: int
    clients: int
    completed: int
    events: List[ChaosEvent] = field(default_factory=list)
    #: The runtime's scaling timeline, for the audit trail.
    scale_events: List[ScaleEvent] = field(default_factory=list)
    garbage_sent: int = 0
    #: Datagrams dropped by the loss windows.
    datagrams_dropped: int = 0
    abandoned_sessions: int = 0
    unrouted: int = 0
    worker_errors: int = 0
    final_workers: int = 0
    outputs_match_twin: bool = False
    #: A harness-level exception (e.g. a live drain timeout's
    #: ``EngineError``) caught by the sweep, so even a crashed run
    #: reports its seed instead of losing the repro path to a traceback.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """The whole contract, as one boolean."""
        return self.failure_reason() is None

    def repro_command(self) -> str:
        """The exact shell line that replays this run's schedule.

        Includes the ``PYTHONPATH=src`` prefix (the package is only
        importable from a source checkout that way), and ``--chaos-live``
        for a live row — without the flag the command would replay only
        the simulated schedule and a red live run would not be
        reproducible via its own printed repro path.
        """
        command = (
            f"PYTHONPATH=src python -m repro.evaluation --table {self.table} "
            f"--seed {self.seed}"
        )
        if self.runtime_kind == "live":
            command += " --chaos-live"
        return command

    def failure_reason(self) -> Optional[str]:
        """Why :attr:`ok` is false (``None`` on a clean run)."""
        if self.error is not None:
            return f"harness exception: {self.error}"
        if self.completed != self.clients:
            return f"{self.clients - self.completed} of {self.clients} lookups unanswered"
        if self.abandoned_sessions:
            return f"{self.abandoned_sessions} sessions abandoned (evicted)"
        if self.unrouted:
            return f"{self.unrouted} datagrams unrouted"
        if self.worker_errors:
            return f"{self.worker_errors} worker-loop exceptions"
        return self._table_failure()

    def _table_failure(self) -> Optional[str]:
        """The rest of the contract, in the order a reader should fix it."""
        if not self.outputs_match_twin:
            return "client bytes differ from the fixed-shard twin"
        return None

    def as_row(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed": self.seed,
            "runtime": self.runtime_kind,
            "rounds": self.rounds,
            "clients": self.clients,
            "completed": self.completed,
            "garbage_sent": self.garbage_sent,
            "datagrams_dropped": self.datagrams_dropped,
            "abandoned": self.abandoned_sessions,
            "unrouted": self.unrouted,
            "worker_errors": self.worker_errors,
            "final_workers": self.final_workers,
            "outputs_match_twin": self.outputs_match_twin,
            "error": self.error,
            "ok": self.ok,
            "events": [event.as_row() for event in self.events],
        }


@dataclass
class ChaosResult(_RunResult):
    """Outcome of one seeded chaos run (plus its fixed-shard twin check)."""

    table: ClassVar[str] = "chaos"

    #: Membership faults executed (everything but garbage/loss/hold).
    membership_ops: int = 0
    #: Drains of a worker that was *not* the last pool position — the
    #: arbitrary-removal coverage the suffix-only ring could never give.
    arbitrary_removals: int = 0
    #: Per-stage latency attribution rows (always-on histograms), so a
    #: chaos run reports *where* time went while membership churned.
    stage_latency: List[Dict[str, object]] = field(default_factory=list)
    #: Structured span-tree export (``runtime.trace_export()``), populated
    #: when the run sampled spans (``trace_sample`` > 0).  Span ``at``
    #: positions and :attr:`scale_events` times share one clock, so the
    #: membership faults interleave with datagram traces on one timeline.
    trace: Optional[Dict[str, object]] = None

    def as_row(self) -> Dict[str, object]:
        return {
            **super().as_row(),
            "membership_ops": self.membership_ops,
            "arbitrary_removals": self.arbitrary_removals,
            "stage_latency": self.stage_latency,
        }


def _case_parts(case: int, total_clients: int, live: bool):
    """Clients / service / lookup target of ``case``, chaos edition.

    Delegates to the existing workload builders — the live branch *is*
    :func:`~repro.evaluation.workloads._live_case_parts`, so the chaos
    byte-twin comparison can never drift from the topology the
    live-sharding harness checks.
    """
    if live:
        clients, service, target, _ = _live_case_parts(case, total_clients)
        return clients, service, target
    if case not in BRIDGE_BUILDERS:
        raise ValueError(f"unknown case {case}; valid cases are 1..6")
    client_protocol, _, service_protocol = CASE_NAMES[case].partition(" to ")
    clients = _make_concurrent_clients(client_protocol, total_clients)
    _, service, target = _make_client_and_service(
        client_protocol, service_protocol, _elastic_calibration()
    )
    return clients, service, target


def _pick_membership(rng: random.Random, workers: int, bounds) -> str:
    minimum, maximum = bounds
    kinds = [
        kind
        for kind in _MEMBERSHIP_KINDS
        if (kind != "grow" or workers < maximum)
        and (kind not in ("shrink", "remove") or workers > minimum)
        # A replacement never shrinks the pool, but it does grow it
        # transiently — keep headroom under the bound.
        and (kind != "replace" or workers < maximum)
    ]
    return rng.choice(kinds) if kinds else "hold"


def _pick_victim(rng: random.Random, worker_ids: Sequence[int]) -> Tuple[int, bool]:
    """A victim id, preferring a non-suffix position; returns (id, arbitrary)."""
    ids = list(worker_ids)
    if len(ids) > 1:
        victim = rng.choice(ids[:-1])  # never the last position: the drain
        return victim, True  # is guaranteed non-suffix
    return ids[-1], False


def _garbage_targets(runtime) -> List[Endpoint]:
    """The bridge's public UDP endpoints plus its multicast colour groups."""
    router = runtime.router
    assert router is not None
    targets = [
        endpoint
        for endpoint in router.unicast_endpoints()
        if endpoint.transport == Transport.UDP
    ]
    targets.extend(router.multicast_groups())
    return targets


def _send_garbage(network, runtime, source: Endpoint) -> int:
    sent = 0
    for destination in _garbage_targets(runtime):
        for payload in GARBAGE_PAYLOADS:
            network.send(payload, source=source, destination=destination)
            sent += 1
    return sent


def _apply_membership(
    runtime, rng: random.Random, kind: str, result: ChaosResult, round_index: int
) -> None:
    """Execute one membership fault against a settled runtime."""
    ids = runtime.worker_ids
    if kind == "grow":
        runtime.scale_to(len(ids) + 1)
        result.events.append(
            ChaosEvent(round_index, "grow", f"{len(ids)}->{len(ids) + 1}")
        )
    elif kind == "shrink":
        strategy = rng.choice(("suffix", "least-loaded"))
        victims = runtime.select_victims(1, strategy)
        runtime.scale_to(len(ids) - 1, victims=victims)
        result.events.append(
            ChaosEvent(round_index, "shrink", f"{strategy} victims={victims}")
        )
        if victims[0] != ids[-1]:
            result.arbitrary_removals += 1
    elif kind == "remove":
        victim, arbitrary = _pick_victim(rng, ids)
        runtime.remove_worker(victim)
        result.events.append(ChaosEvent(round_index, "remove", f"worker {victim}"))
        if arbitrary:
            result.arbitrary_removals += 1
    elif kind == "replace":
        victim, arbitrary = _pick_victim(rng, ids)
        new_id = runtime.replace_worker(victim)
        result.events.append(
            ChaosEvent(round_index, "replace", f"worker {victim} -> {new_id}")
        )
        if arbitrary:
            result.arbitrary_removals += 1
    else:
        result.events.append(ChaosEvent(round_index, "hold"))
    if kind != "hold":
        result.membership_ops += 1


def _collect_bytes(clients) -> Dict[str, Tuple[bytes, ...]]:
    return {client.name: tuple(client.raw_responses) for client in clients}


#: Per-message translation compute of the simulated chaos topology.
SIM_PROCESSING_DELAY = 0.004


def _attach(network, runtime, service, clients) -> None:
    runtime.deploy(network)
    network.attach(service)
    for client in clients:
        network.attach(client)


def _sampling(trace_sample: Optional[float]) -> Dict[str, object]:
    """Runtime overrides for a span-sampling rate (``None``: the default)."""
    return {} if trace_sample is None else {"trace_sample": trace_sample}


def _deploy_simulated(
    case: int,
    seed: int,
    total_clients: int,
    workers: int,
    live_topology: bool,
    trace_sample: Optional[float] = None,
):
    """Deploy one simulated chaos topology: network, runtime, clients.

    The **single** deploy recipe shared by a simulated run and every
    twin — the byte-twin oracle is only meaningful while the chaotic and
    fixed-shard topologies are built identically, so there must be
    exactly one place that builds them.  ``live_topology`` selects the
    loopback layout of the *live* workload (the reference the live chaos
    run is compared against) instead of the model-level one.
    ``trace_sample`` overrides the runtime's span-sampling rate (the twin
    builders leave it at the default — tracing never changes outputs).
    """
    overrides = _sampling(trace_sample)
    clients, service, target = _case_parts(case, total_clients, live=live_topology)
    if live_topology:
        network = SimulatedNetwork(latencies=_fast_calibration(), seed=seed)
        runtime = ShardedRuntime.from_bridge(
            _live_bridge(case, 0.0),
            workers=workers,
            ephemeral_ports=False,
            worker_port_stride=16,
            **overrides,
        )
    else:
        network = SimulatedNetwork(latencies=_elastic_calibration(), seed=seed)
        bridge = BRIDGE_BUILDERS[case](processing_delay=SIM_PROCESSING_DELAY)
        bridge.validate()
        runtime = ShardedRuntime.from_bridge(bridge, workers=workers, **overrides)
    _attach(network, runtime, service, clients)
    return network, runtime, clients, target


def _deploy_live(
    case: int,
    seed: int,
    total_clients: int,
    workers: int,
    trace_sample: Optional[float] = None,
):
    """Deploy the loopback topology of ``case`` on real sockets.

    The network is a seeded :class:`AsyncFaultyNetwork` — the plain
    socket engine until a loss window opens.  A failed deploy closes the
    network again, so its loop thread never outlives the call.
    """
    clients, service, target = _case_parts(case, total_clients, live=True)
    runtime = AsyncLiveShardedRuntime.from_bridge(
        _live_bridge(case, 0.0), workers=workers, **_sampling(trace_sample)
    )
    network = AsyncFaultyNetwork(seed=seed)
    try:
        _attach(network, runtime, service, clients)
    except BaseException:
        runtime.undeploy()
        network.close()
        raise
    return network, runtime, clients, target


# ----------------------------------------------------------------------
# self-healing chaos: the failure detector under injected faults
# ----------------------------------------------------------------------
#: Seeds of the default heal sweep.
DEFAULT_HEAL_SEEDS: Tuple[int, ...] = (5, 17)

#: Faults a heal round can fire.  ``wedge`` stalls one worker (the
#: detector must replace it), ``skew`` delays heartbeat pulses below the
#: hysteresis budget (the detector must NOT replace anything), ``loss``
#: opens a packet-loss window over garbage, ``hold`` does nothing.
_HEAL_FAULT_KINDS = ("wedge", "skew", "loss", "hold")

#: Simulated heal-run detection knobs.  Snappier than the
#: :class:`~repro.runtime.health.HealthPolicy` defaults because the
#: virtual clock makes probes free: the heartbeat threshold sits well
#: above the probe interval (healthy age ~ one interval plus backlog)
#: and the backlog ceiling well above the per-delivery compute
#: (:data:`SIM_PROCESSING_DELAY`), while a 0.5 s+ wedge crosses both
#: ceilings on the first probe after the stall.
_SIM_HEAL_POLICY = HealthPolicy(
    heartbeat_wedge_threshold=0.15,
    busy_backlog_ceiling=0.3,
    suspect_after=2,
    fail_after=4,
    cooldown=0.5,
)
_SIM_HEAL_PROBE_INTERVAL = 0.02

#: Live heal-run detection knobs.  The live loops run with zero
#: processing delay, so the wedge signature is a stale ``heartbeat_at``
#: stamp (plus a backed-up queue): the threshold leaves several probe
#: intervals of scheduler jitter before a probe reads bad, and
#: ``fail_after`` keeps one contended tick from replacing anything.
_LIVE_HEAL_POLICY = HealthPolicy(
    heartbeat_wedge_threshold=0.25,
    suspect_after=2,
    fail_after=3,
    cooldown=1.0,
)
_LIVE_HEAL_PROBE_INTERVAL = 0.05

#: Telemetry cadence of the heal runs (timeline seconds per window):
#: denser than the production default so the windows around a wedge and
#: its replacement resolve the incident, not just bracket it.
_HEAL_COLLECTOR_WINDOW = 0.05


@dataclass
class HealResult(_RunResult):
    """Outcome of one seeded self-healing run (plus its twin check).

    The contract is the chaos one — loss-free, byte-identical to the
    fixed-shard twin — **plus** the healing clauses: every wedged worker
    was detected and replaced by the :class:`FailureDetector` alone
    (the harness never calls ``replace_worker``), every detection landed
    within :attr:`detection_budget` seconds of the wedge, and nothing
    *else* was replaced (a clock skew or a load spike must never cost a
    worker — that is what the hysteresis is for).
    """

    table: ClassVar[str] = "heal"

    #: Faults injected, by kind.
    wedges: int = 0
    skews: int = 0
    loss_windows: int = 0
    #: Actions the controller executed, by kind.
    quarantines: int = 0
    releases: int = 0
    replaces: int = 0
    #: Seconds from each wedge to its detector-driven replace decision
    #: (virtual on the simulation, wall on the live runtime).
    detection_seconds: List[float] = field(default_factory=list)
    #: The probe budget every detection must land within.
    detection_budget: float = 0.0
    #: The detector's conserved counter row (``probes == sum(probe
    #: counts) + retired_probes`` — checked by the tier-1 soak).
    detector_counters: Dict[str, int] = field(default_factory=dict)
    #: Exceptions the health controller and collector ticks swallowed.
    controller_errors: int = 0
    #: Telemetry windows the run's collector closed (PR 9 pipeline).
    telemetry_windows: int = 0
    #: Structured events the run's journal recorded (faults, scale
    #: events, health actions, session-loss incidents).
    journal_events: int = 0
    #: Postmortem bundles the flight recorder captured — one per
    #: detector quarantine/replace.  Simulated bundles are deterministic
    #: (byte-stable per seed); the CLI persists them as
    #: ``POSTMORTEM_*.json``.
    postmortems: List[dict] = field(default_factory=list)

    def _table_failure(self) -> Optional[str]:
        if self.controller_errors:
            return f"{self.controller_errors} health-controller exceptions"
        twin = super()._table_failure()
        if twin is not None:
            return twin
        # Every wedge healed, nothing else replaced: exactly one
        # detector-driven replacement per wedged worker.
        if self.replaces < self.wedges or len(self.detection_seconds) < self.wedges:
            return (
                f"{self.wedges - len(self.detection_seconds)} wedged worker(s) "
                "never replaced by the detector"
            )
        if self.replaces > self.wedges:
            return (
                f"{self.replaces - self.wedges} spurious replacement(s) — "
                "hysteresis failed to absorb a transient"
            )
        late = [d for d in self.detection_seconds if d > self.detection_budget]
        if late:
            return (
                f"detection took {max(late):.3f}s "
                f"(budget {self.detection_budget:.3f}s)"
            )
        return None

    def as_row(self) -> Dict[str, object]:
        return {
            **super().as_row(),
            "wedges": self.wedges,
            "skews": self.skews,
            "loss_windows": self.loss_windows,
            "quarantines": self.quarantines,
            "releases": self.releases,
            "replaces": self.replaces,
            "detection_seconds": [round(d, 6) for d in self.detection_seconds],
            "detection_budget": self.detection_budget,
            "detector": dict(self.detector_counters),
            "controller_errors": self.controller_errors,
            "telemetry_windows": self.telemetry_windows,
            "journal_events": self.journal_events,
            "postmortems": len(self.postmortems),
        }


# ----------------------------------------------------------------------
# the substrates: what differs between a simulated and a live run
# ----------------------------------------------------------------------
def _simulated_loss_window(network: SimulatedNetwork, rate: float):
    """Drop ``rate`` of every datagram until closed."""
    network.loss_rate = rate

    def close() -> str:
        network.loss_rate = 0.0
        return f"rate={rate:.2f}"

    return {"rate": round(rate, 6)}, close


def _live_loss_window(network: AsyncFaultyNetwork, rate: float):
    """Open the network's next seeded window (its verdict rates are the
    network's own, so ``rate`` goes unused)."""
    plan = network.open_loss_window()

    def close() -> str:
        network.close_loss_window()
        return (
            f"window {plan.window}: {len(plan.decisions)} verdicts, "
            f"{network.udp_dropped} dropped"
        )

    return {"window": plan.window}, close


@dataclass(frozen=True)
class _Substrate:
    """Everything a chaos or heal run does differently per substrate, as
    data: one runner per table reads it, and every wait in the runners
    is the network's own ``run_until`` / ``run_for``."""

    #: The rows' ``runtime`` column: ``simulated`` | ``live``.
    kind: str
    #: Inserted after the table name in a row's name.
    label: str
    #: ``(case, seed, total_clients, workers, trace_sample=)`` → a
    #: deployed ``(network, runtime, clients, target)``.
    deploy: Callable
    #: Whether the twin is built on the loopback topology of the live run.
    loopback_twin: bool
    #: Runner defaults, per table.
    defaults: Dict[str, Dict[str, object]]
    #: Where each table's garbage comes from.
    injectors: Dict[str, Endpoint]
    #: ``(network, rate)`` → ``(journal fields, close)`` per table, where
    #: ``close()`` ends the window and returns the event detail; a table
    #: without an entry opens no loss window.
    loss_windows: Dict[str, Callable]
    #: Datagrams the network has dropped so far.
    dropped: Callable[[object], int]
    #: Seconds a wave runs before its fault fires.  Virtual time stands
    #: still between calls, so the simulation must let the sessions open;
    #: live they open while the harness thread carries on.
    fault_lead: float
    heal_policy: HealthPolicy
    probe_interval: float
    #: The faults a heal round after the first draws from.
    heal_fault_kinds: Tuple[str, ...]
    #: The range a wedge's duration is drawn from.
    wedge_seconds: Tuple[float, float]
    #: Whether the flight recorder strips wall-clock fields, so one seed
    #: dumps byte-stable postmortems (only virtual time can promise it).
    deterministic_flight: bool


_SIMULATED = _Substrate(
    kind="simulated",
    label="",
    deploy=partial(_deploy_simulated, live_topology=False),
    loopback_twin=False,
    defaults={
        "chaos": dict(
            rounds=5, clients_per_round=6, min_workers=1, max_workers=4,
            start_workers=2, twin_workers=2, wave_timeout=30.0, trace_sample=None,
        ),
        "heal": dict(
            rounds=3, clients_per_round=4, start_workers=2, twin_workers=2,
            wave_timeout=40.0, detection_budget=1.0,
        ),
    },
    injectors={
        "chaos": Endpoint("chaos-injector.local", 9999, Transport.UDP),
        "heal": Endpoint("heal-injector.local", 9998, Transport.UDP),
    },
    loss_windows={"chaos": _simulated_loss_window, "heal": _simulated_loss_window},
    dropped=lambda network: network.dropped,
    fault_lead=0.004,
    heal_policy=_SIM_HEAL_POLICY,
    probe_interval=_SIM_HEAL_PROBE_INTERVAL,
    heal_fault_kinds=_HEAL_FAULT_KINDS,
    wedge_seconds=(0.5, 0.9),
    deterministic_flight=True,
)

# Packet loss cannot be injected into a kernel loopback path between
# the live chaos rounds' membership faults, so live chaos opens no loss
# window; the live heal run's windows are the network's seeded ones.
_LIVE = _Substrate(
    kind="live",
    label="-live",
    deploy=_deploy_live,
    loopback_twin=True,
    defaults={
        "chaos": dict(
            rounds=3, clients_per_round=4, min_workers=1, max_workers=3,
            start_workers=2, twin_workers=2, wave_timeout=15.0, trace_sample=None,
        ),
        "heal": dict(
            rounds=2, clients_per_round=4, start_workers=2, twin_workers=2,
            wave_timeout=20.0, detection_budget=2.0,
        ),
    },
    injectors={
        "chaos": Endpoint(_LIVE_HOST, 28999, Transport.UDP),
        "heal": Endpoint(_LIVE_HOST, 28998, Transport.UDP),
    },
    loss_windows={"heal": _live_loss_window},
    dropped=lambda network: network.udp_dropped,
    fault_lead=0.0,
    heal_policy=_LIVE_HEAL_POLICY,
    probe_interval=_LIVE_HEAL_PROBE_INTERVAL,
    heal_fault_kinds=("loss",),
    wedge_seconds=(0.8, 0.8),
    deterministic_flight=False,
)


def _row_name(table: str, substrate: _Substrate, case: int, seed: int) -> str:
    return f"{table}{substrate.label}-case-{case}-seed-{seed}"


def _resolve(defaults: Dict[str, object], options: Dict[str, object]) -> Dict[str, object]:
    """``defaults`` overridden by ``options``, whose names must be known."""
    unknown = sorted(set(options) - set(defaults))
    if unknown:
        raise TypeError(f"unexpected option(s): {', '.join(unknown)}")
    return {**defaults, **options}


class _Run:
    """One seeded run on its substrate — deployment, schedule rng, result
    row and the waits — which the chaos and heal runners share."""

    def __init__(self, table: str, row_type, case: int, seed: int, live: bool,
                 options: Dict[str, object], trace_sample: Optional[float]) -> None:
        self.substrate = substrate = _LIVE if live else _SIMULATED
        self.opts = opts = _resolve(substrate.defaults[table], options)
        self.case, self.seed, self.rng = case, seed, random.Random(seed)
        self.total = opts["rounds"] * opts["clients_per_round"]
        self.network, self.runtime, self.clients, self.target = substrate.deploy(
            case, seed, self.total, opts["start_workers"], trace_sample=trace_sample
        )
        self.result = row_type(
            name=_row_name(table, substrate, case, seed),
            seed=seed,
            runtime_kind=substrate.kind,
            rounds=opts["rounds"],
            clients=self.total,
            completed=0,
        )
        self.injector = substrate.injectors[table]
        self.open_window = substrate.loss_windows.get(table)
        self.started: List[Tuple[object, object]] = []
        self._dropped_before = substrate.dropped(self.network)

    def wave(self, round_index: int):
        """Start round ``round_index``'s lookups and let them run until the
        round's fault may fire; returns them."""
        per_round = self.opts["clients_per_round"]
        wave = self.clients[round_index * per_round : (round_index + 1) * per_round]
        started = [(client, client.start_lookup(self.network, self.target)) for client in wave]
        self.started.extend(started)
        self.network.run_for(self.substrate.fault_lead)
        return started

    def garbage(self, round_index: int) -> None:
        self.result.garbage_sent += _send_garbage(self.network, self.runtime, self.injector)
        self.result.events.append(ChaosEvent(round_index, "garbage"))

    def settle(self, started, also=None, bail=None) -> bool:
        """Wait until every lookup in ``started`` is answered, no drain is in
        flight and ``also()`` holds; returns whether all of that happened.

        A worker-loop exception (or ``bail()``) ends the wait early: the
        missing replies will never come, and the row fails on it anyway.
        """
        runtime = self.runtime

        def settled() -> bool:
            return (
                all(client.lookup_result(key) is not None for client, key in started)
                and not runtime.scaling_in_progress
                and (also is None or also())
            )

        self.network.run_until(
            lambda: settled() or bool(runtime.worker_errors) or (bail is not None and bail()),
            timeout=self.opts["wave_timeout"],
        )
        return settled()

    def loss_window(self, round_index: int, rate: float, journal=None) -> None:
        """A loss window over one garbage burst.  Opened only once the wave
        settled: with no legitimate traffic in flight, loss can only eat
        garbage, so the zero-drop assertion stays meaningful."""
        fields, close = self.open_window(self.network, rate)
        if journal is not None:
            journal.append("fault", at=self.network.now(), fault="loss", **fields)
        self.result.garbage_sent += _send_garbage(self.network, self.runtime, self.injector)
        self.network.run_for(0.05)
        self.result.events.append(ChaosEvent(round_index, "loss", close()))

    def harvest(self) -> Dict[str, Tuple[bytes, ...]]:
        """Fold the loss-free contract's counters into the row; returns
        the bytes every client received."""
        result, runtime = self.result, self.runtime
        result.completed = sum(
            1
            for client, key in self.started
            if (found := client.lookup_result(key)) is not None and found.found
        )
        result.datagrams_dropped = self.substrate.dropped(self.network) - self._dropped_before
        result.abandoned_sessions = runtime.evicted_count
        result.unrouted = runtime.unrouted_datagrams
        result.worker_errors = len(runtime.worker_errors)
        result.final_workers = runtime.worker_count
        result.scale_events = list(runtime.scale_events)
        return _collect_bytes(self.clients)

    def teardown(self) -> None:
        self.runtime.undeploy()
        self.network.close()

    def matches_twin(self, client_bytes) -> bool:
        """Whether ``client_bytes`` equal those of the twin: the same
        clients on a fixed ``twin_workers``-shard simulated pool with no
        faults — for a live run, on the loopback topology of the live run
        (same hosts, ports, pinned transaction ids)."""
        network, _, clients, target = _deploy_simulated(
            self.case, self.seed, self.total, self.opts["twin_workers"],
            self.substrate.loopback_twin,
        )
        started = [(client, client.start_lookup(network, target)) for client in clients]
        network.run_until(
            lambda: all(client.lookup_result(key) is not None for client, key in started),
            timeout=self.opts["wave_timeout"],
        )
        return client_bytes == _collect_bytes(clients)


# ----------------------------------------------------------------------
# the runners
# ----------------------------------------------------------------------
def run_chaos_once(case: int = 2, seed: int = 7, live: bool = False, **options) -> ChaosResult:
    """One seeded chaos run, plus its twin check: on the simulated
    runtime, or with ``live`` on real loopback sockets.

    Every round starts a wave of concurrent lookups, fires one membership
    fault *while the wave is in flight* (racing the drain against open
    sessions and fan-out legs; live, the membership call blocks through
    the drain), floods the public endpoints with garbage, waits for the
    wave to complete and the pool to settle, and then — on the rounds the
    schedule says so — opens a packet-loss window over another garbage
    burst (simulated only).  The client bytes must equal the twin's.

    ``options`` override the substrate's defaults (``rounds``,
    ``clients_per_round``, ``min_workers``, ``max_workers``,
    ``start_workers``, ``twin_workers``, ``wave_timeout``,
    ``trace_sample``).  ``trace_sample`` turns span capture on (1.0 =
    every datagram): the result then carries a full ``trace`` export whose
    span positions share one clock with the membership ``scale_events``.
    Stage-latency attribution is recorded regardless.
    """
    run = _Run("chaos", ChaosResult, case, seed, live, options, options.get("trace_sample"))
    runtime, rng, result = run.runtime, run.rng, run.result
    bounds = (run.opts["min_workers"], run.opts["max_workers"])
    try:
        for round_index in range(run.opts["rounds"]):
            wave = run.wave(round_index)
            kind = _pick_membership(rng, runtime.worker_count, bounds)
            _apply_membership(runtime, rng, kind, result, round_index)
            run.garbage(round_index)
            wave_settled = run.settle(wave)
            run.network.run_for(3 * runtime.drain_poll_interval)
            if run.open_window is None:
                continue
            # Draw from the rng unconditionally so the schedule is a pure
            # function of the seed, but only OPEN the window when the wave
            # really finished: a timed-out wave still in flight must
            # surface as the unanswered-lookup failure it is, not as loss
            # eating its datagrams.
            open_loss, rate = rng.random() < 0.5, rng.uniform(0.5, 1.0)
            if open_loss and wave_settled:
                run.loss_window(round_index, rate)
        run.settle(run.started)
        chaos_bytes = run.harvest()
    finally:
        run.teardown()

    # The tracer outlives the deployment, so attribution is harvested
    # after the teardown above.
    result.stage_latency = [row.as_row() for row in runtime.stage_latency()]
    if run.opts["trace_sample"]:
        result.trace = runtime.trace_export()
    result.outputs_match_twin = run.matches_twin(chaos_bytes)
    return result


def run_heal_once(case: int = 2, seed: int = 5, live: bool = False, **options) -> HealResult:
    """One seeded self-healing run: on the simulated runtime, or with
    ``live`` on real loopback sockets.

    Round 0 always wedges a worker mid-wave (the acceptance scenario:
    detection and replacement must be driven solely by the
    :class:`HealthController` started below — the harness never touches
    ``replace_worker``); later rounds draw their fault from the
    substrate's kinds (wedge / skew / loss / hold simulated, loss live,
    where the network itself — an :class:`AsyncFaultyNetwork` — drops,
    duplicates and reorders real UDP datagrams in a seeded window).  A
    wedge round's settle predicate additionally waits for the controller
    to have replaced the victim, and the time from wedge to the replace
    *decision* is checked against ``detection_budget`` (virtual seconds
    simulated; live, wall seconds on the monotonic clock the workers stamp
    their heartbeats with).  Skews stay below the ``fail_after``
    hysteresis, so a run in which a skew costs a worker fails the
    ``replaces == wedges`` clause.

    ``options`` override the substrate's defaults (``rounds``,
    ``clients_per_round``, ``start_workers``, ``twin_workers``,
    ``wave_timeout``, ``detection_budget``).
    """
    # Full span sampling: the postmortem bundles below must carry
    # complete span trees (tracing never changes outputs or the virtual
    # timeline, so the twin comparison and detector decisions are
    # unaffected).
    run = _Run("heal", HealResult, case, seed, live, options, trace_sample=1.0)
    network, runtime, rng, result = run.network, run.runtime, run.rng, run.result
    substrate = run.substrate
    result.detection_budget = run.opts["detection_budget"]
    # The telemetry pipeline rides along: windowed time-series on the
    # network's timer, a structured journal on its clock, and a flight
    # recorder capturing a bundle per detector action.
    collector = MetricsCollector(runtime, window=_HEAL_COLLECTOR_WINDOW)
    journal = EventJournal(clock=network.now)
    flight = FlightRecorder(
        collector=collector,
        journal=journal,
        tracer=runtime.tracer,
        deterministic=substrate.deterministic_flight,
    )
    runtime.journal = journal
    controller = HealthController(
        runtime,
        FailureDetector(substrate.heal_policy),
        interval=substrate.probe_interval,
        collector=collector,
        journal=journal,
        flight_recorder=flight,
    )
    try:
        collector.start(network)
        controller.start(network)
        for round_index in range(run.opts["rounds"]):
            wave = run.wave(round_index)
            kind = "wedge" if round_index == 0 else rng.choice(substrate.heal_fault_kinds)
            victim: Optional[int] = None
            wedge_at = 0.0
            if kind == "wedge":
                victim = rng.choice(list(runtime.worker_ids))
                duration = rng.uniform(*substrate.wedge_seconds)
                wedge_at = network.now()
                runtime.wedge_worker(victim, duration)
                result.wedges += 1
                journal.append(
                    "fault",
                    at=wedge_at,
                    fault="wedge",
                    worker_id=victim,
                    seconds=round(duration, 6),
                )
                result.events.append(
                    ChaosEvent(
                        round_index, "wedge", f"worker {victim} for {duration:.2f}s"
                    )
                )
            elif kind == "skew":
                skewed = rng.choice(list(runtime.worker_ids))
                controller.skew_probes(
                    skewed, substrate.heal_policy.heartbeat_wedge_threshold, probes=3
                )
                result.skews += 1
                journal.append(
                    "fault", at=network.now(), fault="skew", worker_id=skewed, probes=3
                )
                result.events.append(
                    ChaosEvent(round_index, "skew", f"worker {skewed} x3 pulses")
                )
            elif kind == "hold":
                result.events.append(ChaosEvent(round_index, "hold"))
            run.garbage(round_index)
            wave_settled = run.settle(
                wave,
                also=lambda: victim is None or victim in controller.replaced_ids,
                bail=lambda: bool(controller.errors),
            )
            if victim is not None:
                decision = next(
                    (a for a in controller.actions
                     if a.kind == "replace" and a.worker_id == victim and a.at >= wedge_at),
                    None,
                )
                if decision is not None:
                    result.detection_seconds.append(decision.at - wedge_at)
                healed = "healed" if decision is not None else "NOT healed"
                result.events.append(
                    ChaosEvent(round_index, "replace", f"worker {victim} {healed}")
                )
            network.run_for(3 * runtime.drain_poll_interval)
            if kind == "loss" and wave_settled:
                run.loss_window(round_index, rng.uniform(0.5, 1.0), journal)
                result.loss_windows += 1
        run.settle(run.started)
        # Stop both control loops while the deployment is still up: a
        # collect racing ``undeploy`` would record a spurious error.
        controller.stop()
        collector.stop()
        heal_bytes = run.harvest()
        # Session-loss incidents land on the journal timeline first (a
        # green run records none — ``evicted_sessions`` must be empty),
        # then the telemetry counters and the captured postmortem bundles
        # are carried over.  A run whose detector never acted still gets
        # one on-demand bundle, so every heal row has a postmortem to
        # persist.
        evicted = every_record(runtime.evicted_sessions, runtime.evicted_count, "evictions")
        for record in evicted:
            journal.append(
                "session-loss", at=record.finished_at, key=str(record.session_key)
            )
        if not flight.bundles:
            flight.capture("run-complete")
        result.telemetry_windows = collector.samples
        result.journal_events = journal.appended
        result.postmortems = list(flight.bundles)
    finally:
        controller.stop()
        collector.stop()
        run.teardown()

    # The controller's audit log, and both control loops' swallowed
    # exceptions (read once the loop can no longer tick).
    result.controller_errors = len(controller.errors) + len(collector.errors)
    result.quarantines = sum(
        1 for a in controller.actions if a.kind == "quarantine"
    )
    result.releases = sum(1 for a in controller.actions if a.kind == "release")
    result.replaces = len(controller.replaced_ids)
    result.detector_counters = controller.detector.counters()
    result.outputs_match_twin = run.matches_twin(heal_bytes)
    return result


# ----------------------------------------------------------------------
# the sweeps
# ----------------------------------------------------------------------
def _check_options(table: str, case: int, options: Dict[str, object]) -> None:
    """Fail fast on caller misconfiguration, *before* any seed runs.

    Everything that raises here is independent of the seed — an unknown
    case or option, a non-positive size or timeout, a sampling rate
    outside [0, 1] — so surfacing it as an exception (the CLI's uniform
    ``error:`` exit) beats folding it into per-seed FAIL rows whose
    printed seed-replay command would not reproduce it.  Exceptions raised
    later, mid-schedule, ARE seed-reproducible and are folded.
    """
    if case not in BRIDGE_BUILDERS:
        raise ValueError(f"unknown case {case}; valid cases are 1..6")
    _resolve(_SIMULATED.defaults[table], options)
    for key, value in options.items():
        number = isinstance(value, (int, float))
        if key == "trace_sample":
            valid, expected = value is None or (number and 0 <= value <= 1), "in [0, 1]"
        elif key in ("wave_timeout", "detection_budget"):
            valid, expected = number and value > 0, "a positive number"
        else:
            valid, expected = isinstance(value, int) and value > 0, "a positive integer"
        if not valid:
            raise ConfigurationError(
                f"{table} option {key!r} must be {expected}, got {value!r}"
            )


def _sweep(table: str, runner, row_type, case, seeds, include_live, raise_on_failure, options):
    """Run ``runner`` once per seed (plus one live run on the first seed),
    folding a crashed run into a failed row that carries its seed."""
    if not seeds:
        raise ConfigurationError(
            f"a {table} sweep needs at least one seed — an empty sweep would "
            "report success having run nothing"
        )
    _check_options(table, case, options)

    def guarded(seed: int, live: bool):
        try:
            return runner(case=case, seed=seed, live=live, **options)
        except Exception as exc:  # noqa: BLE001 - every seed must report
            substrate = _LIVE if live else _SIMULATED
            return row_type(
                name=_row_name(table, substrate, case, seed),
                seed=seed,
                runtime_kind=substrate.kind,
                rounds=0,
                clients=0,
                completed=0,
                error=f"{type(exc).__name__}: {exc}",
            )

    results = [guarded(seed, live=False) for seed in seeds]
    if include_live:
        # Explicit options apply to the live run too (its own smaller
        # defaults only cover the keys the caller left unset), so one
        # sweep never silently mixes parameters between its rows.
        results.append(guarded(seeds[0], live=True))
    failures = [result for result in results if not result.ok]
    if failures and raise_on_failure:
        first = failures[0]
        raise RuntimeError(
            f"{table} run {first.name} (seed {first.seed}, {first.runtime_kind}) "
            f"failed: {first.failure_reason()} — reproduce with "
            f"`{first.repro_command()}`"
        )
    return results


def run_chaos(
    case: int = 2,
    seeds: Sequence[int] = DEFAULT_CHAOS_SEEDS,
    include_live: bool = False,
    raise_on_failure: bool = True,
    **options,
) -> List[ChaosResult]:
    """The chaos sweep: one simulated run per seed (plus one live run).

    With ``raise_on_failure`` (the default) raises ``RuntimeError`` naming
    the **failing seed** when any run breaks the loss-free contract, so a
    red sweep is reproducible with
    ``python -m repro.evaluation --table chaos --seed <seed>``; with it
    off the rows come back regardless, carrying their per-run ``ok``.
    Either way a run that *crashes* (a live drain-timeout ``EngineError``,
    a wedged simulated drain's ``ConfigurationError``) is folded into a
    failed row carrying its seed rather than lost to a bare traceback —
    the failing-seed log must name every red seed.  Only *pre-flight*
    configuration mistakes (an unknown case, a non-positive worker count)
    raise directly: those are the caller's bug, and replaying a seed would
    not reproduce them, so a FAIL row would print a phantom repro command.
    """
    return _sweep(
        "chaos", run_chaos_once, ChaosResult, case, seeds, include_live,
        raise_on_failure, options,
    )


def run_heal(
    case: int = 2,
    seeds: Sequence[int] = DEFAULT_HEAL_SEEDS,
    include_live: bool = False,
    raise_on_failure: bool = True,
    **options,
) -> List[HealResult]:
    """The self-healing sweep: one simulated run per seed (plus one live).

    Mirrors :func:`run_chaos`: with ``raise_on_failure`` a red run raises
    ``RuntimeError`` naming its seed and repro command; a run that
    *crashes* is folded into a failed row carrying its seed; only
    pre-flight configuration mistakes raise directly.
    """
    return _sweep(
        "heal", run_heal_once, HealResult, case, seeds, include_live,
        raise_on_failure, options,
    )
