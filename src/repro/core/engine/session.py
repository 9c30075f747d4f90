"""Per-session runtime state and datagram-to-session correlation.

The Automata Engine of Section IV-B executes the merged automaton for
*live* legacy traffic, and live traffic overlaps: several legacy clients
can be mid-lookup through the same bridge at the same time.  Everything
that is mutable during one client interaction therefore lives in a
:class:`SessionContext` — the ``(automaton, state)`` cursor, the message
instances received and sent so far (the paper's per-state queues), the
δ-transitions already crossed, the peers learnt and the destinations
forced by ``set_host`` λ-actions — while the merged automaton itself stays
a read-only model shared by every session.

Which session an incoming datagram belongs to is decided by a pluggable
:class:`SessionCorrelator`:

* :class:`EndpointCorrelator` (the default) keys sessions on the source
  endpoint of the datagram that opened them — the classic UDP demux;
* :class:`FieldCorrelator` keys on a transaction-identifier field of the
  parsed message (SLP's ``XID``, DNS's ``ID``) when one is present, so a
  client whose address changes between retransmissions still lands in its
  session, and — crucially — so a response arriving from a *service* can
  be correlated back to the session whose translated request carried the
  same identifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Set, Tuple

from ...network.addressing import Endpoint
from ..message import ABSENT, AbstractMessage

__all__ = [
    "SessionRecord",
    "SessionContext",
    "SessionCorrelator",
    "EndpointCorrelator",
    "FieldCorrelator",
]


@dataclass
class SessionRecord:
    """Measurements of one complete interoperability session."""

    started_at: float
    finished_at: float = 0.0
    messages_received: int = 0
    messages_sent: int = 0
    received_names: List[str] = field(default_factory=list)
    sent_names: List[str] = field(default_factory=list)
    #: Endpoint of the legacy client that opened the session.
    client: Optional[Endpoint] = None
    #: Correlation key the session was demultiplexed under.
    session_key: Any = None
    #: True when the session was abandoned by the idle-timeout sweeper.
    evicted: bool = False

    @property
    def translation_time(self) -> float:
        """Paper metric: first message received -> last translated output sent."""
        return max(0.0, self.finished_at - self.started_at)


@dataclass
class SessionContext:
    """All mutable runtime state of one in-flight interoperability session.

    The coloured-automata layer is read-only at runtime: the per-state
    message queues of the paper's history operator live here, keyed by
    ``(automaton, state)``, so concurrent sessions never see each other's
    instances.
    """

    key: Any
    current: Tuple[str, str]
    record: SessionRecord
    client: Optional[Endpoint] = None
    #: Latest instance of every message kind received or sent this session.
    instances: Dict[str, AbstractMessage] = field(default_factory=dict)
    #: δ-transitions already crossed (by identity), to avoid re-taking them.
    taken_deltas: Set[int] = field(default_factory=set)
    #: Per-state message queues: ``(automaton, state) -> stored instances``.
    queues: Dict[Tuple[str, str], List[AbstractMessage]] = field(default_factory=dict)
    #: Peer endpoint learnt from the last message received per automaton.
    peers: Dict[str, Endpoint] = field(default_factory=dict)
    #: Destinations forced by ``set_host`` λ-actions, per automaton.
    forced_destinations: Dict[str, Endpoint] = field(default_factory=dict)
    #: Reply-correlation tokens registered for this session's upstream sends.
    reply_tokens: List[Hashable] = field(default_factory=list)
    #: Per-session ephemeral source endpoints, per automaton: upstream legs
    #: without a transaction identifier send from one of these so the reply
    #: address alone attributes the response exactly (no FIFO fallback).
    ephemeral_sources: Dict[str, Endpoint] = field(default_factory=dict)
    last_activity: float = 0.0
    finished: bool = False
    #: The translation context of this session's sends, built on its
    #: first send (the bridge endpoints and the client never change).
    translation: Optional[Dict[str, Any]] = None

    # -- the history operator, per session --------------------------------
    def store(self, automaton: str, state: str, message: AbstractMessage) -> None:
        """Push a message instance onto the session's queue for a state."""
        self.queues.setdefault((automaton, state), []).append(message)

    def stored(
        self, automaton: str, state: str, message_name: Optional[str] = None
    ) -> List[AbstractMessage]:
        """Instances stored at ``(automaton, state)``, optionally by name."""
        queue = self.queues.get((automaton, state), [])
        if message_name is None:
            return list(queue)
        return [msg for msg in queue if msg.name == message_name]

    def latest(
        self, automaton: str, state: str, message_name: Optional[str] = None
    ) -> Optional[AbstractMessage]:
        matching = self.stored(automaton, state, message_name)
        return matching[-1] if matching else None

    def __repr__(self) -> str:
        status = "finished" if self.finished else f"at {self.current}"
        return f"SessionContext(key={self.key!r}, {status})"


class SessionCorrelator:
    """Strategy mapping incoming datagrams to session keys.

    ``client_key`` identifies the session a datagram on the *client-facing*
    automaton belongs to (and the key a new session is opened under);
    ``reply_token`` extracts a transaction token linking an upstream
    request the engine sent to the response it provokes, or ``None`` when
    the protocol carries no such identifier.
    """

    def client_key(self, source: Endpoint, message: AbstractMessage) -> Hashable:
        raise NotImplementedError

    def reply_token(self, message: AbstractMessage) -> Optional[Hashable]:
        return None


class EndpointCorrelator(SessionCorrelator):
    """Correlate purely by the source endpoint of the datagram."""

    def client_key(self, source: Endpoint, message: AbstractMessage) -> Hashable:
        return (source.host, source.port, source.transport)


class FieldCorrelator(EndpointCorrelator):
    """Correlate by a transaction-identifier field when the message has one.

    ``fields`` maps message names to the field label carrying the
    identifier (e.g. ``{"SLP_SrvReq": "XID", "SLP_SrvReply": "XID"}``).
    Request and response tokens match when they share the label and value.
    Messages without a mapped (or present) field fall back to endpoint
    correlation, so one correlator serves mixed-protocol bridges.

    Client keys include the source *host* alongside the identifier:
    identifiers stay stable across a client's port changes
    (retransmission from a fresh ephemeral socket), but two independent
    clients picking the same 16-bit identifier must not collide into one
    session.  Reply tokens cannot include a host — responses arrive from
    the service, not the client — so they carry the identifier alone and
    ambiguity there is resolved FIFO by the engine.
    """

    def __init__(self, fields: Mapping[str, str]) -> None:
        self.fields = dict(fields)

    def reply_token(self, message: AbstractMessage) -> Optional[Hashable]:
        label = self.fields.get(message.name)
        if label is None:
            return None
        value = message.get(label, ABSENT)
        if value is ABSENT:
            return None
        return (label, value)

    def client_key(self, source: Endpoint, message: AbstractMessage) -> Hashable:
        token = self.reply_token(message)
        if token is not None:
            return (source.host,) + token
        return super().client_key(source, message)
