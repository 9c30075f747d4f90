"""The Automata Engine: session-multiplexed runtime execution of merged automata.

Section IV-B of the paper: the Automata Engine interprets the loaded
behaviour model — the merged automaton plus its translation logic — and
drives the message parsers/composers and the network engine accordingly.
It reacts to three kinds of states:

* **receiving states** listen for a message on the state colour's network
  endpoint; a parsed message whose name matches an outgoing
  receive-transition is stored and the automaton advances;
* **sending states** construct the outgoing abstract message (filling its
  fields by executing the translation-logic assignments), compose it with
  the MDL composer of the protocol and hand it to the network engine with
  the network semantics of the state colour;
* **bridge (δ) states** neither send nor receive: they execute the λ-actions
  of the δ-transition (e.g. ``set_host``) and move execution to the next
  protocol's automaton.

The engine multiplexes **concurrent sessions**: every legacy client
interaction runs in its own :class:`~repro.core.engine.session.SessionContext`
holding the ``(automaton, state)`` cursor, the message instances received
and sent so far, the crossed δ-transitions, learnt peers and forced
destinations.  The merged automaton and its component coloured automata are
*read-only at runtime* — no session ever mutates the shared model — so a
datagram from a second client arriving while the first session is
mid-flight simply opens (or resumes) another session instead of being
dropped.

Demultiplexing is split into steps the sharded runtime can drive
separately (see :class:`AutomataEngine` for the contract):

1. :meth:`AutomataEngine.classify` — the destination endpoint selects the
   component automaton (any automaton whose colour matches a multicast
   group, or the owner of the unicast endpoint) and thereby the MDL parser;
2. datagrams arriving on the *client-facing* (initial) automaton are keyed
   by the pluggable :class:`~repro.core.engine.session.SessionCorrelator`
   — source endpoint by default, a transaction-identifier field (SLP XID,
   DNS ID) when the bridge supplies a
   :class:`~repro.core.engine.session.FieldCorrelator`; an unknown key
   whose message matches the merged initial state opens a new session;
3. datagrams arriving on any other automaton are responses from legacy
   services: they are matched by reply token when the correlator extracted
   one from the translated request, by the **per-session ephemeral source
   port** the request went out on (exact attribution for protocols such as
   SSDP and HTTP that carry no transaction identifier), and otherwise fall
   back to the oldest session waiting for that message on that automaton
   (preferring a session whose client shares the datagram's source host,
   which routes multi-leg client dialogs such as UPnP's follow-up HTTP GET).

Sessions that stop making progress are evicted after ``session_timeout``
seconds of inactivity by a **single periodic sweep** per engine (one
``call_later`` chain total, instead of one per session), so abandoned
lookups cannot accumulate state in a long-running bridge and high session
rates do not flood the event queue with eviction timers.

The engine keeps no clock of its own.  ``processing_delay`` is a fixed
per-send latency, and when the send departs is the network engine's
answer (:meth:`~repro.network.engine.NetworkEngine.departure`): a plain
engine charges the fixed delay, infinitely parallel, for the modelled
Fig. 12 tables; a sharded worker's engine view queues each send behind
the worker's earlier ones (:mod:`repro.runtime.worker`).

The engine remains a reactive :class:`~repro.network.engine.NetworkNode`,
so the same code runs unchanged on the discrete-event simulation and on
the socket engine.  Each completed interaction is recorded as a
:class:`SessionRecord` attributed to its originating client, which is what
the performance evaluation measures (time from the first message received
by the framework to the last translated output sent).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ...network.addressing import Endpoint, Transport
from ...network.engine import NetworkEngine, NetworkNode, recent
from ..automata.colored import ColoredAutomaton
from ..automata.merge import DeltaTransition, MergedAutomaton
from ..errors import ConfigurationError, EngineError, ParseError
from ..mdl.base import MessageComposer, MessageParser, create_composer, create_parser
from ..mdl.compiled import (
    PROBE_MATCH,
    PROBE_REJECT,
    PROBE_UNKNOWN,
    SpecDiscriminator,
    discriminator_for,
)
from ..mdl.spec import MDLSpec
from ..message import AbstractMessage
from ...obs.tracing import (
    FOLD_MASK,
    STAGE_COMPOSE,
    STAGE_DISPATCH,
    STAGE_INGRESS,
    STAGE_PARSE,
    STAGE_TRANSITION,
    STAGE_TRANSLATE,
    Tracer,
)
from .actions import ActionRegistry, default_action_registry
from .session import (
    EndpointCorrelator,
    FieldCorrelator,
    SessionContext,
    SessionCorrelator,
    SessionRecord,
)

__all__ = [
    "SessionRecord",
    "SessionContext",
    "SessionCorrelator",
    "EndpointCorrelator",
    "FieldCorrelator",
    "ProtocolBinding",
    "AutomataEngine",
    "binding_plan",
    "DEFAULT_SESSION_TIMEOUT",
]

#: Idle seconds after which an unfinished session is evicted.  Generous
#: enough for the paper's slowest leg (the ~6 s SLP service agent) plus
#: client retransmissions.
DEFAULT_SESSION_TIMEOUT = 30.0

#: Offset above ``base_port`` where per-session ephemeral ports start, well
#: clear of the per-automaton binding ports.
_EPHEMERAL_PORT_OFFSET = 1000


def binding_plan(
    merged: MergedAutomaton, host: str, base_port: int
) -> Dict[str, Endpoint]:
    """The per-automaton unicast endpoints an engine at ``host`` binds.

    Shared by the engine itself and by the shard router, which advertises
    the same endpoint layout under the bridge's public host.
    """
    plan: Dict[str, Endpoint] = {}
    port = base_port
    for automaton_name, automaton in merged.automata.items():
        color = automaton.single_color()
        plan[automaton_name] = Endpoint(host, port, color.transport)
        port += 1
    return plan


@dataclass
class ProtocolBinding:
    """Per-component-automaton runtime resources (shared by all sessions)."""

    automaton: ColoredAutomaton
    parser: MessageParser
    composer: MessageComposer
    local_endpoint: Endpoint
    #: Engine-level destination override (``set_host`` outside a session or
    #: static next-hop configuration); per-session overrides take precedence.
    forced_destination: Optional[Endpoint] = None


class AutomataEngine(NetworkNode):
    """Executes one merged automaton, multiplexing concurrent sessions.

    ``on_datagram`` is :meth:`classify` + :meth:`dispatch`; a shard
    router calls the steps separately (classify once at the edge, place
    by :meth:`routing_key`, dispatch on the owning worker, prune sticky
    entries by :meth:`has_session`), so the standalone engine and the
    sharded workers execute the same code.  :meth:`classify` and
    :meth:`routing_key` are pure with respect to session state and safe
    from any thread; :meth:`dispatch` and :meth:`has_session` touch the
    session table and must be serialised per engine — a sharded worker's
    loop (:mod:`repro.runtime.worker`) runs them as its records, in order,
    on the one thread that delivers the substrate's events.
    """

    def __init__(
        self,
        merged: MergedAutomaton,
        mdl_specs: Mapping[str, MDLSpec],
        host: str = "starlink.bridge",
        base_port: int = 41000,
        actions: Optional[ActionRegistry] = None,
        processing_delay: float = 0.0,
        name: str = "",
        correlator: Optional[SessionCorrelator] = None,
        session_timeout: Optional[float] = DEFAULT_SESSION_TIMEOUT,
        sweep_interval: Optional[float] = None,
        public_endpoints: Optional[Mapping[str, Endpoint]] = None,
        join_groups: bool = True,
        ephemeral_ports: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """Create an engine for ``merged``.

        ``mdl_specs`` maps each component automaton's *name* to the MDL
        specification of its protocol (used to build the parser and
        composer).  ``processing_delay`` adds a fixed delay (seconds) to
        every outgoing send, modelling the framework's own translation cost
        on the virtual clock of a simulation; it defaults to zero.
        ``correlator`` decides which session an incoming datagram belongs
        to (source endpoint by default); ``session_timeout`` evicts
        sessions idle for that many seconds (``None``/``0`` disables) via a
        periodic sweep every ``sweep_interval`` seconds (default: half the
        timeout).  ``public_endpoints`` substitutes the advertised
        bridge endpoints in translation context and destination
        classification when the engine runs as a worker behind a
        :class:`~repro.runtime.router.ShardRouter`; ``join_groups`` is
        turned off for workers so only the router receives group traffic.
        ``ephemeral_ports`` sends upstream legs that carry no transaction
        identifier from a fresh per-session source port, so their replies
        are attributed exactly instead of FIFO (requires a network engine
        with ``bind_endpoint``; silently falls back otherwise).
        ``tracer`` attaches a :mod:`repro.obs` tracer: the engine then
        records per-stage latency histograms (always) and sampled spans
        into its own recorder; without one, every span site is a single
        ``is None`` test.
        """
        self.merged = merged
        self.name = name or f"starlink:{merged.name}"
        self.host = host
        self.actions = actions if actions is not None else default_action_registry()
        self.processing_delay = processing_delay
        self.correlator = correlator if correlator is not None else EndpointCorrelator()
        self.session_timeout = session_timeout
        if sweep_interval is None and session_timeout:
            sweep_interval = session_timeout / 2.0
        self.sweep_interval = sweep_interval
        self.join_groups = join_groups
        self.ephemeral_ports = ephemeral_ports
        self.public_endpoints: Dict[str, Endpoint] = dict(public_endpoints or {})
        self._bindings: Dict[str, ProtocolBinding] = {}
        #: First-bytes discriminators per automaton (where the spec has one):
        #: a sound O(1) probe that lets :meth:`classify` skip candidates
        #: whose parser is guaranteed to reject the datagram.
        self._discriminators: Dict[str, SpecDiscriminator] = {}
        plan = binding_plan(merged, host, base_port)
        for automaton_name, automaton in merged.automata.items():
            spec = mdl_specs.get(automaton_name)
            if spec is None:
                raise ConfigurationError(
                    f"no MDL specification supplied for automaton '{automaton_name}'"
                )
            self._bindings[automaton_name] = ProtocolBinding(
                automaton=automaton,
                parser=create_parser(spec),
                composer=create_composer(spec),
                local_endpoint=plan[automaton_name],
            )
            discriminator = discriminator_for(spec)
            if discriminator is not None:
                self._discriminators[automaton_name] = discriminator
        #: ``(automaton, state) -> Step``: the merged automaton's cached
        #: transition plans, lowered here, at deploy time (shared: the
        #: second worker finds them built).
        merged.lower()
        self._step = merged.step
        #: The session-independent part of the translation context; the
        #: bindings and public endpoints are fixed at construction.
        self._bridge_endpoints: Dict[str, Tuple[str, int]] = {}
        for automaton_name in self._bindings:
            advertised = self.advertised_endpoint(automaton_name)
            self._bridge_endpoints[automaton_name] = (advertised.host, advertised.port)
        self._bridge_host = (
            next(iter(self.public_endpoints.values())).host
            if self.public_endpoints
            else host
        )
        #: Static multicast routing, precomputed once: the automata are
        #: read-only at runtime, so colours never change after this point.
        #: ``(group, port) -> automaton names`` plus the ordered group list
        #: (client-facing colour first).
        self._group_routes: Dict[Tuple[str, int], List[str]] = {}
        self._group_endpoints: List[Endpoint] = []
        #: ``(automaton, state) -> group endpoint`` of every multicast
        #: colour: where a send goes when nothing forced or learnt one.
        self._multicast_destinations: Dict[Tuple[str, str], Endpoint] = {}
        #: The merged initial state and its client-facing component
        #: automaton (fixed when the merged automaton is built): that
        #: automaton's traffic is keyed by the correlator.
        self._initial_state = merged.initial_state
        self._client_automaton = self._initial_state[0]
        ordered = [self._client_automaton] + [
            name for name in self._bindings if name != self._client_automaton
        ]
        for automaton_name in ordered:
            for state_name, state in self._bindings[automaton_name].automaton.states.items():
                color = state.color
                if not (color.is_multicast and color.group):
                    continue
                key = (color.group, color.port)
                names = self._group_routes.setdefault(key, [])
                if not names:
                    self._group_endpoints.append(
                        Endpoint(color.group, color.port, color.transport)
                    )
                if automaton_name not in names:
                    names.append(automaton_name)
                self._multicast_destinations[(automaton_name, state_name)] = Endpoint(
                    color.group, color.port, color.transport
                )
        #: Static unicast routing, likewise: ``(host, port) -> automaton``
        #: for every local binding and public (router-advertised) endpoint.
        self._unicast_routes: Dict[Tuple[str, int], str] = {}
        for automaton_name, binding in self._bindings.items():
            for endpoint in (
                binding.local_endpoint,
                self.public_endpoints.get(automaton_name),
            ):
                if endpoint is not None:
                    self._unicast_routes.setdefault(
                        (endpoint.host, endpoint.port), automaton_name
                    )
        #: In-flight sessions, keyed by correlation key, in creation order.
        self._sessions: Dict[Any, SessionContext] = {}
        #: Upstream reply tokens -> sessions awaiting a response, FIFO.
        self._pending_replies: Dict[Hashable, List[SessionContext]] = {}
        #: Ephemeral source endpoints -> (automaton, owning session).
        self._ephemeral_routes: Dict[
            Tuple[str, int, str], Tuple[str, SessionContext]
        ] = {}
        self._ephemeral_next_port = base_port + _EPHEMERAL_PORT_OFFSET
        #: Released ephemeral ports, FIFO with their release time.  A port
        #: is quarantined for a session-timeout's worth of virtual seconds
        #: before reuse (the sockets' TIME_WAIT discipline): a late reply
        #: for the dead session must not be delivered to a new session
        #: that inherited its port.  Reuse keeps a long-running engine
        #: inside its port range.
        self._ephemeral_free_ports: Deque[Tuple[float, int]] = deque()
        self._ephemeral_quarantine = session_timeout or DEFAULT_SESSION_TIMEOUT
        #: ``(host, port)`` of every address this engine sends from (the
        #: bindings plus live ephemeral ports); O(1) echo detection for
        #: the shard router's hot path.
        self._source_addresses = {
            (endpoint.host, endpoint.port) for endpoint in plan.values()
        }
        #: The session currently being advanced (targets λ-actions).
        self._active_session: Optional[SessionContext] = None
        #: True while a sweep event is pending on the network engine.
        self._sweep_scheduled = False
        #: Sessions completed, and the most recent of their records in
        #: order of completion (a ``RECENT_RECORDS`` ring: the count is
        #: exact, the records are a recent view).
        self.completed_count: int = 0
        self.sessions: Deque[SessionRecord] = recent()
        #: Sessions abandoned by the idle-timeout sweeper, likewise.
        self.evicted_count: int = 0
        self.evicted_sessions: Deque[SessionRecord] = recent()
        #: Parse failures observed, likewise (timestamp, automaton, error).
        self.parse_failure_count: int = 0
        self.parse_failures: Deque[Tuple[float, str, str]] = recent()
        #: Parsed datagrams no session could be found or opened for.
        self.unrouted_datagrams: int = 0
        #: Datagrams routed to a session that was not receptive to them
        #: (duplicates, retransmissions while mid-flight).
        self.ignored_datagrams: int = 0
        #: Upstream replies attributed exactly via an ephemeral source port.
        self.ephemeral_hits: int = 0
        #: Classifications resolved by a single discriminator probe (the
        #: probed candidate matched and parsed, no wasted trial parses).
        self.discriminator_hits: int = 0
        #: Classifications that needed trial parsing beyond the probe (no
        #: discriminator for the winning candidate, an ambiguous prefix, or
        #: a matched prefix whose full parse still failed).
        self.discriminator_misses: int = 0
        #: Datagrams rejected by discriminators alone — every candidate's
        #: probe said REJECT, so no parser ever ran (a garbage flood shows
        #: up here as cheap rejects instead of trial-parse storms).
        self.garbage_rejects: int = 0
        #: Called with the session key whenever a session leaves the table
        #: (normal completion, eviction or reset).  The shard router wires
        #: this to unpin its sticky entry promptly — drain latency then
        #: tracks session lifetime, not the prune interval.
        self.session_close_listener: Optional[Callable[[Hashable], None]] = None
        #: Optional :mod:`repro.obs` tracer shared with the deployment;
        #: the engine owns one span recorder named after itself.
        self.tracer = tracer
        self._recorder = tracer.recorder(self.name) if tracer is not None else None
        #: Trace id of the datagram currently being processed (0 when the
        #: delivery never crossed a stamping edge, e.g. a timer callback).
        self._active_trace = 0
        self._engine: Optional[NetworkEngine] = None

    # ------------------------------------------------------------------
    # NetworkNode interface
    # ------------------------------------------------------------------
    def unicast_endpoints(self) -> List[Endpoint]:
        return [binding.local_endpoint for binding in self._bindings.values()]

    def multicast_groups(self) -> List[Endpoint]:
        """Every multicast group named by a colour of the merged automaton.

        The client-facing (initial) colour's group comes first — that is
        where legacy client requests arrive — followed by the groups of the
        other component automata, so multicast traffic addressed to *any*
        protocol leg of the bridge is observable.  Workers behind a shard
        router (``join_groups=False``) join nothing: the router owns the
        groups and forwards.
        """
        if not self.join_groups:
            return []
        return list(self._group_endpoints)

    @property
    def group_endpoints(self) -> List[Endpoint]:
        """The colour groups of the merged automaton, independent of
        whether this engine joins them itself (the shard router asks)."""
        return list(self._group_endpoints)

    def on_attached(self, engine: NetworkEngine) -> None:
        self._engine = engine

    # ------------------------------------------------------------------
    # public helpers
    # ------------------------------------------------------------------
    @property
    def current_state(self) -> Tuple[str, str]:
        """The cursor of the oldest in-flight session (initial state if idle)."""
        for session in self._sessions.values():
            return session.current
        return self.merged.initial_state

    @property
    def active_sessions(self) -> List[SessionContext]:
        """The in-flight sessions, oldest first."""
        return list(self._sessions.values())

    def has_session(self, key: Any) -> bool:
        """Whether a session under ``key`` is currently in flight."""
        return key in self._sessions

    def owns_endpoint(self, endpoint: Endpoint) -> bool:
        """Whether ``endpoint`` is one of this engine's source addresses.

        Covers the per-automaton bindings and the live per-session
        ephemeral ports; the shard router uses this to recognise (and
        drop) the bridge's own upstream multicast echoing back through
        the groups it joined.
        """
        return (endpoint.host, endpoint.port) in self._source_addresses

    def binding(self, automaton_name: str) -> ProtocolBinding:
        try:
            return self._bindings[automaton_name]
        except KeyError:
            raise EngineError(
                f"engine has no binding for automaton '{automaton_name}'"
            ) from None

    def local_endpoint(self, automaton_name: str) -> Endpoint:
        return self.binding(automaton_name).local_endpoint

    def force_destination(
        self, automaton_name: str, host: str, port: Optional[int] = None
    ) -> None:
        """Point the next send of ``automaton_name`` at ``host`` (set_host).

        When called while a session is being advanced (the normal case: a
        ``set_host`` λ-action on a δ-transition) the destination applies to
        that session only; otherwise it becomes the engine-level default.
        """
        binding = self.binding(automaton_name)
        color = binding.automaton.single_color()
        endpoint = Endpoint(
            host, port if port is not None else color.port, color.transport
        )
        if self._active_session is not None:
            self._active_session.forced_destinations[automaton_name] = endpoint
        else:
            binding.forced_destination = endpoint

    def advertised_endpoint(self, automaton_name: str) -> Endpoint:
        """The endpoint the bridge presents for an automaton: the public
        (router) endpoint when running sharded, the local binding else."""
        public = self.public_endpoints.get(automaton_name)
        if public is not None:
            return public
        return self.binding(automaton_name).local_endpoint

    def translation_context(
        self, session: Optional[SessionContext] = None
    ) -> Dict[str, Any]:
        """Context passed to translation functions (bridge endpoints etc.).

        Sharded workers advertise the *public* router endpoints here, so
        translated messages that embed a bridge address (e.g. the SSDP
        ``LOCATION`` header) are byte-identical regardless of which worker
        produced them — and follow-up client legs land on the router.
        """
        context: Dict[str, Any] = {
            "bridge_endpoints": dict(self._bridge_endpoints),
            "bridge_host": self._bridge_host,
        }
        if session is not None:
            context["session"] = {
                "key": session.key,
                "client": (
                    (session.client.host, session.client.port)
                    if session.client is not None
                    else None
                ),
            }
        return context

    def open_session(
        self, key: Any = None, client: Optional[Endpoint] = None
    ) -> SessionContext:
        """Open a session explicitly (tests and custom drivers).

        Normal operation opens sessions implicitly when a datagram matching
        the merged initial state arrives from an unknown correlation key.
        """
        if self._engine is None:
            raise EngineError("engine is not attached to a network")
        return self._open_session(
            self._engine, key if key is not None else object(), client
        )

    def reset_session(self) -> None:
        """Abandon every in-flight session and clear engine-level overrides.

        The shared automata carry no runtime state, so this only drops the
        session contexts; completed :class:`SessionRecord` measurements are
        kept.
        """
        for session in list(self._sessions.values()):
            session.finished = True
            self._release_ephemeral(session)
        self._sessions.clear()
        self._pending_replies.clear()
        for binding in self._bindings.values():
            binding.forced_destination = None

    # ------------------------------------------------------------------
    # datagram handling (classify + dispatch pipeline)
    # ------------------------------------------------------------------
    def on_datagram(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> None:
        self._engine = engine
        tracer = self.tracer
        recorder = self._recorder
        if tracer is None or recorder is None:
            if self._deliver_to_ephemeral(engine, data, source, destination):
                return
            classified = self.classify(data, destination, now=engine.now())
            if classified is None:
                return
            automaton_name, message = classified
            self.dispatch(engine, automaton_name, message, source)
            return
        # This engine *is* the datagram's edge (standalone deployment, or
        # an upstream reply landing directly on a worker's sockets, which
        # bypasses the router): stamp the trace id and record the ingress
        # root span here.
        trace = tracer.stamp()
        if not trace & FOLD_MASK:
            tracer.fold()
        started = perf_counter()
        previous = self._active_trace
        self._active_trace = trace
        try:
            if self._deliver_to_ephemeral(engine, data, source, destination):
                return
            classified = self.classify(
                data, destination, now=engine.now(), trace=trace
            )
            if classified is None:
                return
            automaton_name, message = classified
            self.dispatch(engine, automaton_name, message, source, trace=trace)
        finally:
            self._active_trace = previous
            if trace & 1:
                recorder.record(trace, STAGE_INGRESS, started)
            else:
                recorder.hold[STAGE_INGRESS](perf_counter() - started)

    def classify(
        self,
        data: bytes,
        destination: Endpoint,
        now: float = 0.0,
        counters: Optional[Any] = None,
        trace: int = 0,
        recorder=None,
    ) -> Optional[Tuple[str, AbstractMessage]]:
        """Select the component automaton for ``destination`` and parse.

        Candidate automata are tried in order (client-facing first for
        multicast groups shared by several colours); the first parser that
        accepts the bytes wins.  Returns ``None`` when no automaton owns
        the destination, or when every candidate parser rejected the bytes
        (recorded in ``parse_failures``).

        ``counters`` redirects the outcome counters — ``parse_failures``
        and ``parse_failure_count``,
        ``discriminator_hits``/``discriminator_misses``/
        ``garbage_rejects`` — to another owner: the shard router passes
        itself when classifying at the edge, so its outcomes are charged
        to the router and the router/worker counters stay a conserved
        sum.  ``trace``/``recorder`` likewise attribute the parse span to
        the caller's recorder (default: this engine's own).
        """
        target = counters if counters is not None else self
        rec = recorder if recorder is not None else self._recorder
        candidates = self._automata_for_destination(destination)
        if not candidates:
            return None
        started = perf_counter() if rec is not None else 0.0
        automaton_name = candidates[0]
        last_error: Optional[str] = None
        # Probe each candidate's first-bytes discriminator first.  REJECT
        # is sound (the parser would raise), so rejected candidates are
        # skipped without parsing; only ambiguous (UNKNOWN, also every spec
        # without a discriminator) or matching prefixes fall through to a
        # real parse.
        discriminators = self._discriminators
        attempted = False
        clean = True
        for name in candidates:
            discriminator = discriminators.get(name)
            verdict = (
                discriminator.probe(data)
                if discriminator is not None
                else PROBE_UNKNOWN
            )
            if verdict == PROBE_REJECT:
                continue
            attempted = True
            try:
                message = self._bindings[name].parser.parse(data)
            except ParseError as exc:
                automaton_name, last_error = name, str(exc)
                clean = False
                continue
            if verdict == PROBE_MATCH and clean:
                target.discriminator_hits += 1
            else:
                target.discriminator_misses += 1
            if rec is not None:
                if trace & 1:
                    rec.record(trace, STAGE_PARSE, started)
                else:
                    rec.hold[STAGE_PARSE](perf_counter() - started)
            return name, message
        if not attempted:
            # Pure discriminator reject: no parser ever ran, so no parse
            # span/histogram either — the edge's classify span (or the
            # caller) owns the probe cost.
            target.garbage_rejects += 1
            target.parse_failure_count += 1
            target.parse_failures.append(
                (now, automaton_name, "datagram rejected by first-bytes discriminator")
            )
            return None
        if rec is not None:
            rec.record(trace, STAGE_PARSE, started)
        # Trial parses ran (an ambiguous or matched prefix) and all of
        # them failed: that is still a discriminator miss, so the three
        # outcome counters partition every classified datagram.
        target.discriminator_misses += 1
        target.parse_failure_count += 1
        target.parse_failures.append((now, automaton_name, last_error or ""))
        return None

    def routing_key(
        self, automaton_name: str, message: AbstractMessage, source: Endpoint
    ) -> Optional[Hashable]:
        """The sticky session key for client-facing traffic, else ``None``."""
        if automaton_name != self._client_automaton:
            return None
        return self.correlator.client_key(source, message)

    def dispatch(
        self,
        engine: NetworkEngine,
        automaton_name: str,
        message: AbstractMessage,
        source: Endpoint,
        count_unrouted: bool = True,
        strict: bool = False,
        trace: int = 0,
    ) -> bool:
        """Route an already-parsed message to its session and advance it;
        True when a session consumed it.  ``strict`` accepts upstream
        replies only on exact evidence (reply token, client host) — a
        router's first fan-out pass, so no worker steals another shard's
        response; ``count_unrouted=False`` leaves the drop count to the
        caller; ``trace`` is the datagram's :mod:`repro.obs` trace id."""
        self._engine = engine
        recorder = self._recorder
        if recorder is None or not trace & 1:
            # Dispatch is a composite stage (its children are timed): only
            # sampled datagrams time it.
            session = self._route(
                engine, automaton_name, message, source, strict=strict
            )
            if session is None:
                if count_unrouted:
                    self.unrouted_datagrams += 1
                return False
            now = self._deliver(engine, session, automaton_name, message, source)
            if now is not None:
                self._advance(engine, session, now)
            return True
        previous = self._active_trace
        self._active_trace = trace
        started = perf_counter()
        try:
            session = self._route(
                engine, automaton_name, message, source, strict=strict
            )
            if session is None:
                if count_unrouted:
                    self.unrouted_datagrams += 1
                return False
            now = self._deliver(engine, session, automaton_name, message, source)
            if now is not None:
                self._advance(engine, session, now)
            return True
        finally:
            self._active_trace = previous
            recorder.record(trace, STAGE_DISPATCH, started)

    def _automata_for_destination(self, destination: Endpoint) -> List[str]:
        """Component automata addressed by ``destination``, client-facing first.

        A multicast destination selects *every* automaton one of whose
        colours names that group — not only the merged automaton's initial
        one — so upstream multicast legs receive their traffic too.  A
        unicast destination selects the owner of the endpoint; the public
        (router-advertised) endpoints count as owned too, so a worker can
        classify traffic the router received on the bridge's behalf.
        """
        key = (destination.host, destination.port)
        if destination.is_multicast:
            return list(self._group_routes.get(key, []))
        owner = self._unicast_routes.get(key)
        return [owner] if owner is not None else []

    # ------------------------------------------------------------------
    # session demultiplexing
    # ------------------------------------------------------------------
    def _route(
        self,
        engine: NetworkEngine,
        automaton_name: str,
        message: AbstractMessage,
        source: Endpoint,
        strict: bool = False,
    ) -> Optional[SessionContext]:
        """Find (or open) the session an incoming message belongs to."""
        if automaton_name == self._client_automaton:
            key = self.correlator.client_key(source, message)
            session = self._sessions.get(key)
            if session is not None:
                return session
            if message.name in self._step(self._initial_state).receives:
                return self._open_session(engine, key, source)
            return None

        # A response from a legacy service (or a later client leg, e.g. the
        # HTTP GET of a UPnP control point) on a non-initial automaton.
        token = self.correlator.reply_token(message)
        if token is not None:
            for session in self._pending_replies.get(token, []):
                if not session.finished:
                    return session
        waiting = [
            session
            for session in self._sessions.values()
            if self._expects(session, automaton_name, message.name)
        ]
        if not waiting:
            return None
        for session in waiting:
            if session.client is not None and session.client.host == source.host:
                return session
        if strict:
            # No exact evidence ties this datagram to one of our sessions;
            # a fanning-out router will fall back FIFO only after every
            # shard declined the strict pass.
            return None
        return waiting[0]

    def _expects(
        self, session: SessionContext, automaton_name: str, message_name: str
    ) -> bool:
        current = session.current
        return (
            current[0] == automaton_name
            and message_name in self._step(current).receives
        )

    def _open_session(
        self, engine: NetworkEngine, key: Any, client: Optional[Endpoint]
    ) -> SessionContext:
        now = engine.now()
        session = SessionContext(
            key=key,
            current=self._initial_state,
            record=SessionRecord(started_at=now, client=client, session_key=key),
            client=client,
            last_activity=now,
        )
        self._sessions[key] = session
        self._ensure_sweeper(engine)
        return session

    def _deliver(
        self,
        engine: NetworkEngine,
        session: SessionContext,
        automaton_name: str,
        message: AbstractMessage,
        source: Endpoint,
    ) -> Optional[float]:
        """Store ``message`` in ``session`` and take its receive transition;
        the delivery time, from which the caller advances the session, or
        ``None`` when the session is not receptive to the message."""
        current = session.current
        if current[0] != automaton_name:
            self.ignored_datagrams += 1
            return None
        transition = self._step(current).receives.get(message.name)
        if transition is None:
            self.ignored_datagrams += 1
            return None

        record = session.record
        record.messages_received += 1
        record.received_names.append(message.name)
        session.peers[automaton_name] = source
        session.store(automaton_name, current[1], message)
        session.instances[message.name] = message
        session.current = (automaton_name, transition.target)
        # One clock read per delivery: the advance and its sends share it.
        session.last_activity = engine.now()
        return session.last_activity

    # ------------------------------------------------------------------
    # ephemeral per-session source ports (exact upstream attribution)
    # ------------------------------------------------------------------
    def _deliver_to_ephemeral(
        self,
        engine: NetworkEngine,
        data: bytes,
        source: Endpoint,
        destination: Endpoint,
    ) -> bool:
        """Deliver a reply addressed to a per-session ephemeral port.

        The port *is* the session attribution: no correlator, no FIFO
        fallback.  Returns True when the destination was an ephemeral
        endpoint of this engine (whether or not delivery succeeded).
        """
        entry = self._ephemeral_routes.get(
            (destination.host, destination.port, destination.transport)
        )
        if entry is None:
            return False
        automaton_name, session = entry
        recorder = self._recorder
        started = perf_counter() if recorder is not None else 0.0
        try:
            message = self._bindings[automaton_name].parser.parse(data)
        except ParseError as exc:
            if recorder is not None:
                recorder.record(self._active_trace, STAGE_PARSE, started)
            self.parse_failure_count += 1
            self.parse_failures.append((engine.now(), automaton_name, str(exc)))
            return True
        if recorder is not None:
            recorder.record(self._active_trace, STAGE_PARSE, started)
        if session.finished:
            self.ignored_datagrams += 1
            return True
        self.ephemeral_hits += 1
        now = self._deliver(engine, session, automaton_name, message, source)
        if now is not None:
            self._advance(engine, session, now)
        return True

    def _ephemeral_source(
        self, session: SessionContext, automaton_name: str, binding: ProtocolBinding
    ) -> Optional[Endpoint]:
        """A per-session source endpoint for a token-less upstream send.

        Allocated once per (session, automaton) and bound late on the
        network engine; ``None`` when the feature is off or the leg is TCP
        on live sockets (the shared binding endpoint and FIFO matching
        remain the fallback).
        """
        engine = self._engine
        if not self.ephemeral_ports or engine is None:
            return None
        existing = session.ephemeral_sources.get(automaton_name)
        if existing is not None:
            return existing
        transport = binding.local_endpoint.transport
        if engine.kernel_ephemeral_ports:
            # Live sockets: the kernel assigns the port (bind to 0) and
            # manages reuse, so the engine's deterministic range and
            # TIME_WAIT quarantine below do not apply.  TCP legs skip the
            # feature entirely — their replies return on the accepted
            # connection, which is exact attribution already.
            if transport != Transport.UDP:
                return None
            endpoint = engine.bind_endpoint(self, Endpoint(self.host, 0, transport))
        else:
            now = engine.now()
            if (
                self._ephemeral_free_ports
                and now - self._ephemeral_free_ports[0][0]
                >= self._ephemeral_quarantine
            ):
                _, port = self._ephemeral_free_ports.popleft()
            else:
                port = self._ephemeral_next_port
                self._ephemeral_next_port += 1
            endpoint = Endpoint(self.host, port, transport)
            engine.bind_endpoint(self, endpoint)
        session.ephemeral_sources[automaton_name] = endpoint
        self._ephemeral_routes[
            (endpoint.host, endpoint.port, endpoint.transport)
        ] = (automaton_name, session)
        self._source_addresses.add((endpoint.host, endpoint.port))
        return endpoint

    def _release_ephemeral(self, session: SessionContext) -> None:
        if not session.ephemeral_sources:
            return
        engine = self._engine
        kernel = engine is not None and engine.kernel_ephemeral_ports
        now = engine.now() if engine is not None else 0.0
        for endpoint in session.ephemeral_sources.values():
            self._ephemeral_routes.pop(
                (endpoint.host, endpoint.port, endpoint.transport), None
            )
            self._source_addresses.discard((endpoint.host, endpoint.port))
            if not kernel:
                # Kernel-assigned ports are not drawn from the engine's
                # range; closing the socket returns them to the OS.
                self._ephemeral_free_ports.append((now, endpoint.port))
            if engine is not None:
                engine.unbind_endpoint(self, endpoint)
        session.ephemeral_sources.clear()

    # ------------------------------------------------------------------
    # advancing through delta / send states
    # ------------------------------------------------------------------
    def _advance(
        self,
        engine: NetworkEngine,
        session: SessionContext,
        now: Optional[float] = None,
    ) -> None:
        """Run ``session`` through its δ and send states until it waits for
        a datagram or finishes; every send shares the delivery's ``now``."""
        if now is None:
            now = engine.now()
        previous = self._active_session
        self._active_session = session
        # A composite stage, like dispatch: only sampled datagrams time it.
        recorder = self._recorder if self._active_trace & 1 else None
        started = perf_counter() if recorder is not None else 0.0
        step_of = self._step
        taken = session.taken_deltas
        try:
            for _ in range(1000):
                current = session.current
                step = step_of(current)

                delta = None
                for candidate in step.deltas:
                    if id(candidate) not in taken:
                        delta = candidate
                        break
                if delta is not None:
                    taken.add(id(delta))
                    if delta.actions:
                        self._execute_delta(session, delta)
                    session.current = (delta.target_automaton, delta.target_state)
                    continue

                transition = step.send
                if transition is not None:
                    self._send(engine, session, current, transition.message, now)
                    session.current = (current[0], transition.target)
                    continue

                if not step.receives:
                    # Terminal state: the interoperability session is complete.
                    self._finish_session(engine, session)
                # Else wait for the next datagram of this session.
                return
            raise EngineError(
                f"automata engine did not reach a quiescent state (at {session.current})"
            )
        finally:
            self._active_session = previous
            if recorder is not None:
                recorder.record(self._active_trace, STAGE_TRANSITION, started)

    def _execute_delta(self, session: SessionContext, delta: DeltaTransition) -> None:
        for action in delta.actions:
            values = []
            for argument in action.arguments:
                instance = session.instances.get(argument.message)
                if instance is None:
                    raise EngineError(
                        f"lambda-action {action} references message "
                        f"'{argument.message}' which has not been received"
                    )
                values.append(instance.get(argument.field))
            self.actions.execute(action.name, self, delta, values)

    def _send(
        self,
        engine: NetworkEngine,
        session: SessionContext,
        current: Tuple[str, str],
        message_name: str,
        now: float,
    ) -> None:
        automaton_name = current[0]
        binding = self._bindings[automaton_name]

        outgoing = AbstractMessage(message_name, protocol=binding.automaton.protocol)
        context = session.translation
        if context is None:
            context = session.translation = self.translation_context(session)
        # Looked up per send, never bound at deploy: ``translation.apply``
        # is a public seam that tracing shims wrap on the instance.
        translate = self.merged.translation.apply
        recorder = self._recorder
        trace = self._active_trace
        if recorder is None:
            translate(outgoing, session.instances, context=context)
            data = binding.composer.compose(outgoing)
        elif trace & 1:
            started = perf_counter()
            translate(outgoing, session.instances, context=context)
            started = recorder.record(trace, STAGE_TRANSLATE, started)
            data = binding.composer.compose(outgoing)
            recorder.record(trace, STAGE_COMPOSE, started)
        else:
            # Unsampled: the two durations go straight to their pending
            # lists, with no recorder call.
            started = perf_counter()
            translate(outgoing, session.instances, context=context)
            translated = perf_counter()
            data = binding.composer.compose(outgoing)
            hold = recorder.hold
            hold[STAGE_TRANSLATE](translated - started)
            hold[STAGE_COMPOSE](perf_counter() - translated)

        destination = (
            session.forced_destinations.get(automaton_name)
            or binding.forced_destination
            or session.peers.get(automaton_name)
            or self._multicast_destinations.get(current)
        )
        if destination is None:
            raise EngineError(
                f"no destination known for sends of automaton '{binding.automaton.name}': "
                "the colour is unicast, no peer has been learnt and no set_host action ran"
            )
        source = binding.local_endpoint
        token: Optional[Hashable] = None
        if automaton_name != self._client_automaton:
            token = self.correlator.reply_token(outgoing)
            if token is None:
                # No transaction identifier to correlate the reply by: give
                # the request its own return address instead.
                source = self._ephemeral_source(session, automaton_name, binding) or source
        delay = engine.departure(self.processing_delay)
        engine.send(
            data,
            source=source,
            destination=destination,
            delay=delay,
        )

        session.store(automaton_name, current[1], outgoing)
        session.instances[message_name] = outgoing
        if token is not None:
            self._pending_replies.setdefault(token, []).append(session)
            session.reply_tokens.append(token)
        record = session.record
        record.messages_sent += 1
        record.sent_names.append(message_name)
        record.finished_at = now + delay

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def _finish_session(self, engine: NetworkEngine, session: SessionContext) -> None:
        if session.record.finished_at == 0.0:
            session.record.finished_at = engine.now()
        self.completed_count += 1
        self.sessions.append(session.record)
        self._close_session(session)

    def _close_session(self, session: SessionContext) -> None:
        session.finished = True
        registered = self._sessions.get(session.key)
        if registered is session:
            del self._sessions[session.key]
            if self.session_close_listener is not None:
                self.session_close_listener(session.key)
        for token in session.reply_tokens:
            waiting = self._pending_replies.get(token)
            if waiting and session in waiting:
                waiting.remove(session)
                if not waiting:
                    del self._pending_replies[token]
        session.reply_tokens.clear()
        self._release_ephemeral(session)

    # -- idle-session eviction: one periodic sweep per engine -------------
    def _ensure_sweeper(self, engine: NetworkEngine) -> None:
        """Schedule the next eviction sweep, if one is not pending already.

        One ``call_later`` chain serves the whole engine regardless of how
        many sessions are in flight (the per-session timers this replaces
        scheduled one event per session).  The chain stops when the session
        table drains, so simulations still quiesce.
        """
        if not self.session_timeout or self.session_timeout <= 0:
            return
        if self._sweep_scheduled:
            return
        self._sweep_scheduled = True
        interval = self.sweep_interval or self.session_timeout
        engine.call_later(interval, lambda: self._sweep(engine))

    def _sweep(self, engine: NetworkEngine) -> None:
        self._sweep_scheduled = False
        assert self.session_timeout is not None
        now = engine.now()
        for session in list(self._sessions.values()):
            if now - session.last_activity + 1e-9 >= self.session_timeout:
                self._evict(engine, session)
        if self._sessions:
            self._ensure_sweeper(engine)

    def _evict(self, engine: NetworkEngine, session: SessionContext) -> None:
        record = session.record
        record.evicted = True
        if record.finished_at == 0.0:
            record.finished_at = engine.now()
        self.evicted_count += 1
        self.evicted_sessions.append(record)
        self._close_session(session)
