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

Faults on the simulation run on the virtual clock (loss windows open only
while no legitimate traffic is in flight, because lost datagrams of a
live session would — correctly — fail the zero-drop assertion the harness
exists to make).  The live runner drives the same membership schedule over
real sockets; loss injection does not exist there, so its rounds fire
garbage only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bridges.specs import BRIDGE_BUILDERS, CASE_NAMES
from ..core.errors import ConfigurationError
from ..network.addressing import Endpoint, Transport
from ..network.aio import AsyncFaultyNetwork, AsyncSocketNetwork
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
    "run_chaos_simulated",
    "run_chaos_live",
    "run_chaos",
    "DEFAULT_CHAOS_SEEDS",
    "GARBAGE_PAYLOADS",
    "HealResult",
    "run_heal_simulated",
    "run_heal_live",
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
class ChaosResult:
    """Outcome of one seeded chaos run (plus its fixed-shard twin check)."""

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
    #: Membership faults executed (everything but garbage/loss/hold).
    membership_ops: int = 0
    #: Drains of a worker that was *not* the last pool position — the
    #: arbitrary-removal coverage the suffix-only ring could never give.
    arbitrary_removals: int = 0
    garbage_sent: int = 0
    #: Datagrams dropped by the loss windows (simulated runs only).
    datagrams_dropped: int = 0
    abandoned_sessions: int = 0
    unrouted: int = 0
    worker_errors: int = 0
    final_workers: int = 0
    outputs_match_twin: bool = False
    #: A harness-level exception (e.g. a live drain timeout's
    #: ``EngineError``) caught by :func:`run_chaos`, so even a crashed run
    #: reports its seed instead of losing the repro path to a traceback.
    error: Optional[str] = None
    #: Per-stage latency attribution rows (always-on histograms), so a
    #: chaos run reports *where* time went while membership churned.
    stage_latency: List[Dict[str, object]] = field(default_factory=list)
    #: Structured span-tree export (``runtime.trace_export()``), populated
    #: when the run sampled spans (``trace_sample`` > 0).  Span ``at``
    #: positions and :attr:`scale_events` times share one clock, so the
    #: membership faults interleave with datagram traces on one timeline.
    trace: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """The whole loss-free contract, as one boolean."""
        return (
            self.error is None
            and self.completed == self.clients
            and self.abandoned_sessions == 0
            and self.unrouted == 0
            and self.worker_errors == 0
            and self.outputs_match_twin
        )

    def repro_command(self) -> str:
        """The exact shell line that replays this run's schedule.

        Includes the ``PYTHONPATH=src`` prefix (the package is only
        importable from a source checkout that way), and ``--chaos-live``
        for a live row — without the flag the command would replay only
        the simulated schedule and a red live run would not be
        reproducible via its own printed repro path.
        """
        command = (
            "PYTHONPATH=src python -m repro.evaluation --table chaos "
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
            "membership_ops": self.membership_ops,
            "arbitrary_removals": self.arbitrary_removals,
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


def _deploy_simulated(
    case: int,
    seed: int,
    total_clients: int,
    workers: int,
    live_topology: bool,
    trace_sample: Optional[float] = None,
):
    """Deploy one simulated chaos topology: network, runtime, clients.

    The **single** deploy recipe shared by the chaos run and both twin
    builders — the byte-twin oracle is only meaningful while the chaotic
    and fixed-shard topologies are built identically, so there must be
    exactly one place that builds them.  ``live_topology`` selects the
    loopback layout of the *live* workload (the reference the live chaos
    run is compared against) instead of the model-level one.
    ``trace_sample`` overrides the runtime's span-sampling rate (the twin
    builders leave it at the default — tracing never changes outputs).
    """
    overrides: Dict[str, object] = {}
    if trace_sample is not None:
        overrides["trace_sample"] = trace_sample
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
    runtime.deploy(network)
    network.attach(service)
    for client in clients:
        network.attach(client)
    return network, runtime, clients, target


def _twin_bytes(
    case: int,
    seed: int,
    total: int,
    workers: int,
    timeout: float,
    live_topology: bool,
) -> Dict[str, Tuple[bytes, ...]]:
    """The fixed-shard twin: same clients, no faults, ``workers`` shards."""
    network, _, clients, target = _deploy_simulated(
        case, seed, total, workers, live_topology
    )
    started = [(client, client.start_lookup(network, target)) for client in clients]
    network.run_until(
        lambda: all(client.lookup_result(key) is not None for client, key in started),
        timeout=timeout,
    )
    return _collect_bytes(clients)


# ----------------------------------------------------------------------
# simulated chaos
# ----------------------------------------------------------------------
def run_chaos_simulated(
    case: int = 2,
    seed: int = 7,
    rounds: int = 5,
    clients_per_round: int = 6,
    min_workers: int = 1,
    max_workers: int = 4,
    start_workers: int = 2,
    twin_workers: int = 2,
    wave_timeout: float = 30.0,
    trace_sample: Optional[float] = None,
) -> ChaosResult:
    """One seeded chaos run on the simulated runtime, plus its twin check.

    Every round starts a wave of concurrent lookups, fires one membership
    fault *while the wave is in flight* (racing the drain against open
    sessions and fan-out legs), floods the public endpoints with garbage,
    waits for the wave to complete and the pool to settle, and then — on
    the rounds the schedule says so — opens a packet-loss window over
    another garbage burst.  The twin run serves the identical client set
    on a fixed ``twin_workers``-shard pool with no faults; its bytes are
    the reference the chaos run must reproduce exactly.

    ``trace_sample`` turns span capture on (1.0 = every datagram): the
    result then carries a full ``trace`` export whose span positions share
    the virtual clock with the membership ``scale_events``.  Stage-latency
    attribution is recorded regardless (histograms are unconditional).
    """
    rng = random.Random(seed)
    total = rounds * clients_per_round
    network, runtime, clients, target = _deploy_simulated(
        case, seed, total, start_workers, live_topology=False,
        trace_sample=trace_sample,
    )

    result = ChaosResult(
        name=f"chaos-case-{case}-seed-{seed}",
        seed=seed,
        runtime_kind="simulated",
        rounds=rounds,
        clients=total,
        completed=0,
    )
    injector = Endpoint("chaos-injector.local", 9999, Transport.UDP)
    started: List[Tuple[object, object]] = []
    dropped_before = network.dropped

    for round_index in range(rounds):
        wave = clients[
            round_index * clients_per_round : (round_index + 1) * clients_per_round
        ]
        wave_started = [
            (client, client.start_lookup(network, target)) for client in wave
        ]
        started.extend(wave_started)
        # Let the wave's sessions open, then fault the membership while
        # they are in flight: the drain must race live sessions, sticky
        # pins and fan-out legs, not an idle pool.
        network.run_for(0.004)
        kind = _pick_membership(rng, runtime.worker_count, (min_workers, max_workers))
        _apply_membership(runtime, rng, kind, result, round_index)
        result.garbage_sent += _send_garbage(network, runtime, injector)
        result.events.append(ChaosEvent(round_index, "garbage"))
        wave_settled = network.run_until(
            lambda: all(
                client.lookup_result(key) is not None for client, key in wave_started
            )
            and not runtime.scaling_in_progress,
            timeout=wave_timeout,
        )
        # Settle before a loss window: with no legitimate traffic in
        # flight, loss can only eat garbage — the zero-drop assertion
        # stays meaningful.  Draw from the rng unconditionally so the
        # schedule is a pure function of the seed, but only OPEN the
        # window when the wave really finished: a timed-out wave still in
        # flight must surface as the unanswered-lookup failure it is, not
        # as loss eating its datagrams.
        network.run_for(3 * runtime.drain_poll_interval)
        open_loss, loss = rng.random() < 0.5, rng.uniform(0.5, 1.0)
        if open_loss and wave_settled:
            network.loss_rate = loss
            result.garbage_sent += _send_garbage(network, runtime, injector)
            network.run_for(0.05)
            network.loss_rate = 0.0
            result.events.append(
                ChaosEvent(round_index, "loss", f"rate={loss:.2f}")
            )

    network.run_until(
        lambda: all(client.lookup_result(key) is not None for client, key in started)
        and not runtime.scaling_in_progress,
        timeout=wave_timeout,
    )
    result.completed = sum(
        1
        for client, key in started
        if (found := client.lookup_result(key)) is not None and found.found
    )
    result.datagrams_dropped = network.dropped - dropped_before
    result.abandoned_sessions = runtime.evicted_count
    result.unrouted = runtime.unrouted_datagrams
    result.worker_errors = len(runtime.worker_errors)
    result.final_workers = runtime.worker_count
    result.scale_events = list(runtime.scale_events)
    result.stage_latency = [row.as_row() for row in runtime.stage_latency()]
    if trace_sample:
        result.trace = runtime.trace_export()
    chaos_bytes = _collect_bytes(clients)

    twin_bytes = _twin_bytes(
        case, seed, total, twin_workers, wave_timeout, live_topology=False
    )
    result.outputs_match_twin = chaos_bytes == twin_bytes
    return result


# ----------------------------------------------------------------------
# live chaos
# ----------------------------------------------------------------------
def run_chaos_live(
    case: int = 2,
    seed: int = 7,
    rounds: int = 3,
    clients_per_round: int = 4,
    min_workers: int = 1,
    max_workers: int = 3,
    start_workers: int = 2,
    twin_workers: int = 2,
    wave_timeout: float = 15.0,
    trace_sample: Optional[float] = None,
) -> ChaosResult:
    """One seeded chaos run on the **live** runtime (real loopback sockets).

    The same membership schedule as the simulated runner — grows, shrinks,
    arbitrary removals, replacements, all racing real in-flight waves —
    plus garbage datagrams thrown at the router's real sockets.  Packet
    loss cannot be injected into a kernel loopback path, so live rounds
    have no loss windows.  The byte reference is the deterministic
    *simulated* twin of the identical loopback topology at a fixed shard
    count (the same cross-engine check the live-sharding table performs).
    """
    import time as _time

    rng = random.Random(seed)
    total = rounds * clients_per_round
    overrides: Dict[str, object] = {}
    if trace_sample is not None:
        overrides["trace_sample"] = trace_sample
    clients, service, target = _case_parts(case, total, live=True)
    network = AsyncSocketNetwork()
    runtime = AsyncLiveShardedRuntime.from_bridge(
        _live_bridge(case, 0.0), workers=start_workers, **overrides
    )
    result = ChaosResult(
        name=f"chaos-live-case-{case}-seed-{seed}",
        seed=seed,
        runtime_kind="live",
        rounds=rounds,
        clients=total,
        completed=0,
    )
    injector = Endpoint(_LIVE_HOST, 28999, Transport.UDP)
    started: List[Tuple[object, object]] = []

    def wave_done(pairs) -> bool:
        return all(client.lookup_result(key) is not None for client, key in pairs)

    def await_wave(pairs) -> None:
        deadline = _time.monotonic() + wave_timeout
        while _time.monotonic() < deadline and not wave_done(pairs):
            if runtime.worker_errors:
                return
            _time.sleep(0.002)

    try:
        runtime.deploy(network)
        network.attach(service)
        for client in clients:
            network.attach(client)
        for round_index in range(rounds):
            wave = clients[
                round_index * clients_per_round : (round_index + 1) * clients_per_round
            ]
            wave_started = [
                (client, client.start_lookup(network, target)) for client in wave
            ]
            started.extend(wave_started)
            kind = _pick_membership(
                rng, runtime.worker_count, (min_workers, max_workers)
            )
            # The live membership ops block through the drain — which is
            # exactly the race: the wave above is still in flight.
            _apply_membership(runtime, rng, kind, result, round_index)
            result.garbage_sent += _send_garbage(network, runtime, injector)
            result.events.append(ChaosEvent(round_index, "garbage"))
            await_wave(wave_started)
        await_wave(started)
        result.completed = sum(
            1
            for client, key in started
            if (found := client.lookup_result(key)) is not None and found.found
        )
        result.abandoned_sessions = runtime.evicted_count
        result.unrouted = runtime.unrouted_datagrams
        result.worker_errors = len(runtime.worker_errors)
        result.final_workers = runtime.worker_count
        result.scale_events = list(runtime.scale_events)
        chaos_bytes = _collect_bytes(clients)
    finally:
        runtime.undeploy()
        network.close()

    # The tracer outlives the deployment, so attribution is harvested
    # after the teardown above.
    result.stage_latency = [row.as_row() for row in runtime.stage_latency()]
    if trace_sample:
        result.trace = runtime.trace_export()

    # The live run's byte reference: a fixed-shard *simulated* twin of the
    # same loopback topology (same hosts, ports, pinned transaction ids).
    result.outputs_match_twin = chaos_bytes == _twin_bytes(
        case, seed, total, twin_workers, wave_timeout, live_topology=True
    )
    return result


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def _check_options(case: int, options: Dict[str, object]) -> None:
    """Fail fast on caller misconfiguration, *before* any seed runs.

    Everything that raises here is independent of the seed — an unknown
    case, a non-positive size — so surfacing it as an exception (the CLI's
    uniform ``error:`` exit) beats folding it into per-seed FAIL rows
    whose printed seed-replay command would not reproduce it.  Exceptions
    raised later, mid-schedule, ARE seed-reproducible and are folded.
    """
    if case not in BRIDGE_BUILDERS:
        raise ValueError(f"unknown case {case}; valid cases are 1..6")
    for key in (
        "rounds",
        "clients_per_round",
        "min_workers",
        "max_workers",
        "start_workers",
        "twin_workers",
    ):
        value = options.get(key)
        if value is not None and (not isinstance(value, int) or value <= 0):
            raise ConfigurationError(
                f"chaos option {key!r} must be a positive integer, got {value!r}"
            )


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
    if not seeds:
        raise ConfigurationError(
            "a chaos sweep needs at least one seed — an empty sweep would "
            "report 'all runs loss-free' having run nothing"
        )
    _check_options(case, options)

    def _guarded(runner, kind: str, seed: int, **runner_options) -> ChaosResult:
        try:
            return runner(case=case, seed=seed, **runner_options)
        except Exception as exc:  # noqa: BLE001 - every seed must report
            prefix = "chaos-live" if kind == "live" else "chaos"
            return ChaosResult(
                name=f"{prefix}-case-{case}-seed-{seed}",
                seed=seed,
                runtime_kind=kind,
                rounds=0,
                clients=0,
                completed=0,
                error=f"{type(exc).__name__}: {exc}",
            )

    results = [
        _guarded(run_chaos_simulated, "simulated", seed, **options)
        for seed in seeds
    ]
    if include_live:
        # Explicit options apply to the live run too (its own smaller
        # defaults only cover the keys the caller left unset), so one
        # sweep never silently mixes parameters between its rows.
        results.append(_guarded(run_chaos_live, "live", seeds[0], **options))
    failures = [result for result in results if not result.ok]
    if failures and raise_on_failure:
        first = failures[0]
        raise RuntimeError(
            f"chaos run {first.name} (seed {first.seed}, {first.runtime_kind}) "
            f"failed: {first.failure_reason()} — reproduce with "
            f"`{first.repro_command()}`"
        )
    return results


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
class HealResult:
    """Outcome of one seeded self-healing run (plus its twin check).

    The contract is the chaos one — loss-free, byte-identical to the
    fixed-shard twin — **plus** the healing clauses: every wedged worker
    was detected and replaced by the :class:`FailureDetector` alone
    (the harness never calls ``replace_worker``), every detection landed
    within :attr:`detection_budget` seconds of the wedge, and nothing
    *else* was replaced (a clock skew or a load spike must never cost a
    worker — that is what the hysteresis is for).
    """

    name: str
    seed: int
    #: ``simulated`` | ``live``
    runtime_kind: str
    rounds: int
    clients: int
    completed: int
    events: List[ChaosEvent] = field(default_factory=list)
    scale_events: List[ScaleEvent] = field(default_factory=list)
    #: Faults injected, by kind.
    wedges: int = 0
    skews: int = 0
    loss_windows: int = 0
    garbage_sent: int = 0
    datagrams_dropped: int = 0
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
    abandoned_sessions: int = 0
    unrouted: int = 0
    worker_errors: int = 0
    #: Exceptions the health controller and collector ticks swallowed.
    controller_errors: int = 0
    final_workers: int = 0
    outputs_match_twin: bool = False
    error: Optional[str] = None
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

    @property
    def ok(self) -> bool:
        """Loss-free AND self-healing, as one boolean."""
        return (
            self.error is None
            and self.completed == self.clients
            and self.abandoned_sessions == 0
            and self.unrouted == 0
            and self.worker_errors == 0
            and self.controller_errors == 0
            and self.outputs_match_twin
            # Every wedge healed, nothing else replaced: exactly one
            # detector-driven replacement per wedged worker.
            and self.replaces == self.wedges
            and len(self.detection_seconds) == self.wedges
            and all(d <= self.detection_budget for d in self.detection_seconds)
        )

    def repro_command(self) -> str:
        """The exact shell line that replays this run's schedule."""
        command = (
            "PYTHONPATH=src python -m repro.evaluation --table heal "
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
        if self.controller_errors:
            return f"{self.controller_errors} health-controller exceptions"
        if not self.outputs_match_twin:
            return "client bytes differ from the fixed-shard twin"
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
            "name": self.name,
            "seed": self.seed,
            "runtime": self.runtime_kind,
            "rounds": self.rounds,
            "clients": self.clients,
            "completed": self.completed,
            "wedges": self.wedges,
            "skews": self.skews,
            "loss_windows": self.loss_windows,
            "garbage_sent": self.garbage_sent,
            "datagrams_dropped": self.datagrams_dropped,
            "quarantines": self.quarantines,
            "releases": self.releases,
            "replaces": self.replaces,
            "detection_seconds": [round(d, 6) for d in self.detection_seconds],
            "detection_budget": self.detection_budget,
            "detector": dict(self.detector_counters),
            "abandoned": self.abandoned_sessions,
            "unrouted": self.unrouted,
            "worker_errors": self.worker_errors,
            "controller_errors": self.controller_errors,
            "final_workers": self.final_workers,
            "outputs_match_twin": self.outputs_match_twin,
            "error": self.error,
            "ok": self.ok,
            "telemetry_windows": self.telemetry_windows,
            "journal_events": self.journal_events,
            "postmortems": len(self.postmortems),
            "events": [event.as_row() for event in self.events],
        }


def _harvest_controller(
    result: HealResult, controller: HealthController, collector: MetricsCollector
) -> None:
    """Fold the controller's audit log (and both control loops' swallowed
    exceptions) into the result row."""
    result.controller_errors = len(controller.errors) + len(collector.errors)
    result.quarantines = sum(
        1 for a in controller.actions if a.kind == "quarantine"
    )
    result.releases = sum(1 for a in controller.actions if a.kind == "release")
    result.replaces = len(controller.replaced_ids)
    result.detector_counters = controller.detector.counters()


def _harvest_telemetry(
    result: HealResult,
    runtime,
    collector: MetricsCollector,
    journal: EventJournal,
    flight: FlightRecorder,
) -> None:
    """Fold the run's telemetry pipeline into the result row.

    Session-loss incidents land on the journal timeline first (a green
    run records none — ``evicted_sessions`` must be empty), then the
    counters and the captured postmortem bundles are carried over.  A
    run whose detector never acted still gets one on-demand bundle, so
    every heal row has a postmortem to persist.
    """
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


def run_heal_simulated(
    case: int = 2,
    seed: int = 5,
    rounds: int = 3,
    clients_per_round: int = 4,
    start_workers: int = 2,
    twin_workers: int = 2,
    wave_timeout: float = 40.0,
    detection_budget: float = 1.0,
) -> HealResult:
    """One seeded self-healing run on the simulated runtime.

    Round 0 always wedges a worker mid-wave (the acceptance scenario:
    detection and replacement must be driven solely by the
    :class:`HealthController` started below — the harness never touches
    ``replace_worker``); later rounds draw wedge / skew / loss / hold
    from the seeded rng.  A wedge round's settle predicate additionally
    waits for the controller to have replaced the victim, and the time
    from wedge to the replace *decision* is checked against
    ``detection_budget`` (virtual seconds).  Skews stay below the
    ``fail_after`` hysteresis, so a run in which a skew costs a worker
    fails the ``replaces == wedges`` clause.
    """
    rng = random.Random(seed)
    total = rounds * clients_per_round
    # Full span sampling: the postmortem bundles below must carry
    # complete span trees (tracing never changes outputs or the virtual
    # timeline, so the twin comparison and detector decisions are
    # unaffected).
    network, runtime, clients, target = _deploy_simulated(
        case, seed, total, start_workers, live_topology=False,
        trace_sample=1.0,
    )
    # The telemetry pipeline rides along: windowed time-series on the
    # virtual timer wheel, a structured journal on the virtual clock,
    # and a *deterministic* flight recorder — every wall-clock-derived
    # field is stripped from its bundles, so one seed dumps byte-stable
    # postmortems.
    collector = MetricsCollector(runtime, window=_HEAL_COLLECTOR_WINDOW)
    journal = EventJournal(clock=network.now)
    flight = FlightRecorder(
        collector=collector,
        journal=journal,
        tracer=runtime.tracer,
        deterministic=True,
    )
    runtime.journal = journal
    collector.start(network)
    controller = HealthController(
        runtime,
        FailureDetector(_SIM_HEAL_POLICY),
        interval=_SIM_HEAL_PROBE_INTERVAL,
        collector=collector,
        journal=journal,
        flight_recorder=flight,
    )
    controller.start(network)

    result = HealResult(
        name=f"heal-case-{case}-seed-{seed}",
        seed=seed,
        runtime_kind="simulated",
        rounds=rounds,
        clients=total,
        completed=0,
        detection_budget=detection_budget,
    )
    injector = Endpoint("heal-injector.local", 9998, Transport.UDP)
    started: List[Tuple[object, object]] = []
    dropped_before = network.dropped

    for round_index in range(rounds):
        wave = clients[
            round_index * clients_per_round : (round_index + 1) * clients_per_round
        ]
        wave_started = [
            (client, client.start_lookup(network, target)) for client in wave
        ]
        started.extend(wave_started)
        network.run_for(0.004)
        kind = "wedge" if round_index == 0 else rng.choice(_HEAL_FAULT_KINDS)
        victim: Optional[int] = None
        wedge_at = 0.0
        if kind == "wedge":
            victim = rng.choice(list(runtime.worker_ids))
            duration = rng.uniform(0.5, 0.9)
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
                skewed, _SIM_HEAL_POLICY.heartbeat_wedge_threshold, probes=3
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
        result.garbage_sent += _send_garbage(network, runtime, injector)
        result.events.append(ChaosEvent(round_index, "garbage"))
        wave_settled = network.run_until(
            lambda: all(
                client.lookup_result(key) is not None
                for client, key in wave_started
            )
            and not runtime.scaling_in_progress
            and (victim is None or victim in controller.replaced_ids),
            timeout=wave_timeout,
        )
        if victim is not None:
            decisions = [
                a
                for a in controller.actions
                if a.kind == "replace"
                and a.worker_id == victim
                and a.at >= wedge_at
            ]
            if decisions:
                result.detection_seconds.append(decisions[0].at - wedge_at)
            result.events.append(
                ChaosEvent(
                    round_index,
                    "replace",
                    f"worker {victim} healed"
                    if decisions
                    else f"worker {victim} NOT healed",
                )
            )
        network.run_for(3 * runtime.drain_poll_interval)
        if kind == "loss" and wave_settled:
            loss = rng.uniform(0.5, 1.0)
            network.loss_rate = loss
            journal.append(
                "fault", at=network.now(), fault="loss", rate=round(loss, 6)
            )
            result.garbage_sent += _send_garbage(network, runtime, injector)
            network.run_for(0.05)
            network.loss_rate = 0.0
            result.loss_windows += 1
            result.events.append(
                ChaosEvent(round_index, "loss", f"rate={loss:.2f}")
            )

    network.run_until(
        lambda: all(client.lookup_result(key) is not None for client, key in started)
        and not runtime.scaling_in_progress,
        timeout=wave_timeout,
    )
    controller.stop()
    collector.stop()
    result.completed = sum(
        1
        for client, key in started
        if (found := client.lookup_result(key)) is not None and found.found
    )
    result.datagrams_dropped = network.dropped - dropped_before
    result.abandoned_sessions = runtime.evicted_count
    result.unrouted = runtime.unrouted_datagrams
    result.worker_errors = len(runtime.worker_errors)
    result.final_workers = runtime.worker_count
    result.scale_events = list(runtime.scale_events)
    _harvest_controller(result, controller, collector)
    _harvest_telemetry(result, runtime, collector, journal, flight)
    heal_bytes = _collect_bytes(clients)

    result.outputs_match_twin = heal_bytes == _twin_bytes(
        case, seed, total, twin_workers, wave_timeout, live_topology=False
    )
    return result


def run_heal_live(
    case: int = 2,
    seed: int = 5,
    rounds: int = 2,
    clients_per_round: int = 4,
    start_workers: int = 2,
    twin_workers: int = 2,
    wave_timeout: float = 20.0,
    detection_budget: float = 2.0,
) -> HealResult:
    """One seeded self-healing run on the **live** runtime.

    The network itself is the fault injector: an
    :class:`~repro.network.aio.AsyncFaultyNetwork` whose seeded loss
    windows drop / duplicate / reorder real UDP datagrams.  Round 0
    wedges a worker mid-wave (``runtime.wedge_worker``: its records queue
    behind a pause, so only the victim stalls) and polls until the
    :class:`HealthController`, ticking on the loop, has replaced it and
    the victim's drain has finished; the last round
    opens a loss window over a garbage burst — only after its wave
    settled, so loss can only eat garbage and the zero-drop contract
    stays meaningful.  Detection times are wall-clock
    (``AsyncSocketNetwork.now()``, the same monotonic clock the workers
    stamp their heartbeats with).
    """
    import time as _time

    rng = random.Random(seed)
    total = rounds * clients_per_round
    clients, service, target = _case_parts(case, total, live=True)
    network = AsyncFaultyNetwork(seed=seed)
    runtime = AsyncLiveShardedRuntime.from_bridge(
        _live_bridge(case, 0.0), workers=start_workers
    )
    # Live telemetry: a collector on the loop's timer and a wall-clock
    # journal.  Bundles here are *not* deterministic (real time, real
    # scheduling) — only the simulated runs promise byte-stable
    # postmortems.
    collector = MetricsCollector(runtime, window=_HEAL_COLLECTOR_WINDOW)
    journal = EventJournal(clock=network.now)
    flight = FlightRecorder(
        collector=collector, journal=journal, tracer=runtime.tracer
    )
    runtime.journal = journal
    controller = HealthController(
        runtime,
        FailureDetector(_LIVE_HEAL_POLICY),
        interval=_LIVE_HEAL_PROBE_INTERVAL,
        collector=collector,
        journal=journal,
        flight_recorder=flight,
    )
    result = HealResult(
        name=f"heal-live-case-{case}-seed-{seed}",
        seed=seed,
        runtime_kind="live",
        rounds=rounds,
        clients=total,
        completed=0,
        detection_budget=detection_budget,
    )
    injector = Endpoint(_LIVE_HOST, 28998, Transport.UDP)
    started: List[Tuple[object, object]] = []

    def wave_done(pairs) -> bool:
        return all(client.lookup_result(key) is not None for client, key in pairs)

    def await_wave(pairs) -> None:
        deadline = _time.monotonic() + wave_timeout
        while _time.monotonic() < deadline and not wave_done(pairs):
            if runtime.worker_errors:
                return
            _time.sleep(0.002)

    try:
        runtime.deploy(network)
        network.attach(service)
        for client in clients:
            network.attach(client)
        collector.start(network)
        controller.start(network)
        for round_index in range(rounds):
            wave = clients[
                round_index * clients_per_round : (round_index + 1) * clients_per_round
            ]
            wave_started = [
                (client, client.start_lookup(network, target)) for client in wave
            ]
            started.extend(wave_started)
            if round_index == 0:
                # The acceptance wedge: stall one loop mid-wave, then
                # wait for the controller — and only it — to notice and
                # replace the worker, and for the victim's drain to end.
                victim = rng.choice(list(runtime.worker_ids))
                duration = 0.8
                wedge_at = _time.monotonic()
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
                result.garbage_sent += _send_garbage(network, runtime, injector)
                result.events.append(ChaosEvent(round_index, "garbage"))
                heal_deadline = _time.monotonic() + wave_timeout
                while _time.monotonic() < heal_deadline and (
                    victim not in controller.replaced_ids
                    or runtime.scaling_in_progress
                ):
                    if runtime.worker_errors or controller.errors:
                        break
                    _time.sleep(0.01)
                decisions = [
                    a
                    for a in controller.actions
                    if a.kind == "replace"
                    and a.worker_id == victim
                    and a.at >= wedge_at
                ]
                if decisions:
                    result.detection_seconds.append(decisions[0].at - wedge_at)
                result.events.append(
                    ChaosEvent(
                        round_index,
                        "replace",
                        f"worker {victim} healed"
                        if decisions
                        else f"worker {victim} NOT healed",
                    )
                )
                await_wave(wave_started)
            else:
                result.garbage_sent += _send_garbage(network, runtime, injector)
                result.events.append(ChaosEvent(round_index, "garbage"))
                await_wave(wave_started)
                # The wave settled: a loss window now can only eat the
                # garbage burst below (plus its duplicates/reorders).
                plan = network.open_loss_window()
                journal.append(
                    "fault", at=network.now(), fault="loss", window=plan.window
                )
                result.garbage_sent += _send_garbage(network, runtime, injector)
                _time.sleep(0.05)
                network.close_loss_window()
                result.loss_windows += 1
                result.events.append(
                    ChaosEvent(
                        round_index,
                        "loss",
                        f"window {plan.window}: {len(plan.decisions)} verdicts, "
                        f"{network.udp_dropped} dropped",
                    )
                )
        await_wave(started)
        result.completed = sum(
            1
            for client, key in started
            if (found := client.lookup_result(key)) is not None and found.found
        )
        result.datagrams_dropped = network.udp_dropped
        result.abandoned_sessions = runtime.evicted_count
        result.unrouted = runtime.unrouted_datagrams
        result.worker_errors = len(runtime.worker_errors)
        result.final_workers = runtime.worker_count
        result.scale_events = list(runtime.scale_events)
        heal_bytes = _collect_bytes(clients)
        # Stop the collector while the deployment is still up: a collect
        # racing ``undeploy`` would record a spurious error.
        collector.stop()
        _harvest_telemetry(result, runtime, collector, journal, flight)
    finally:
        collector.stop()
        controller.stop()
        runtime.undeploy()
        network.close()

    _harvest_controller(result, controller, collector)
    result.outputs_match_twin = heal_bytes == _twin_bytes(
        case, seed, total, twin_workers, wave_timeout, live_topology=True
    )
    return result


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
    if not seeds:
        raise ConfigurationError(
            "a heal sweep needs at least one seed — an empty sweep would "
            "report 'all wedges healed' having injected nothing"
        )
    _check_options(case, options)
    for key in ("wave_timeout", "detection_budget"):
        value = options.get(key)
        if value is not None and (
            not isinstance(value, (int, float)) or value <= 0
        ):
            raise ConfigurationError(
                f"heal option {key!r} must be a positive number, got {value!r}"
            )

    def _guarded(runner, kind: str, seed: int, **runner_options) -> HealResult:
        try:
            return runner(case=case, seed=seed, **runner_options)
        except Exception as exc:  # noqa: BLE001 - every seed must report
            prefix = "heal-live" if kind == "live" else "heal"
            return HealResult(
                name=f"{prefix}-case-{case}-seed-{seed}",
                seed=seed,
                runtime_kind=kind,
                rounds=0,
                clients=0,
                completed=0,
                error=f"{type(exc).__name__}: {exc}",
            )

    results = [
        _guarded(run_heal_simulated, "simulated", seed, **options)
        for seed in seeds
    ]
    if include_live:
        results.append(_guarded(run_heal_live, "live", seeds[0], **options))
    failures = [result for result in results if not result.ok]
    if failures and raise_on_failure:
        first = failures[0]
        raise RuntimeError(
            f"heal run {first.name} (seed {first.seed}, {first.runtime_kind}) "
            f"failed: {first.failure_reason()} — reproduce with "
            f"`{first.repro_command()}`"
        )
    return results
