"""The worker-facing engine API used by the sharded runtime.

:class:`~repro.core.engine.automata_engine.AutomataEngine` historically
exposed exactly one entry point — ``on_datagram`` — which parsed, routed
and executed in a single step.  The sharded runtime of
:mod:`repro.runtime` needs those steps separately: the
:class:`~repro.runtime.router.ShardRouter` parses a datagram *once* at the
edge, derives the session's routing key from it, picks the owning worker,
and only then hands the already-parsed message to that worker's engine.

:class:`EngineCore` names that contract.  An implementation executes one
read-only merged automaton and multiplexes sessions over it:

* :meth:`classify` turns raw bytes plus the destination endpoint into the
  owning component automaton and the parsed abstract message;
* :meth:`routing_key` exposes the session-correlation key of a
  client-facing message (``None`` for upstream legs, which are routed by
  reply token or waiting-session matching inside the worker);
* :meth:`dispatch` delivers a parsed message to the session it belongs to
  and advances the automaton, reporting whether any session consumed it —
  which is what lets a router fan a multicast datagram out across workers
  and count it unrouted only when *no* worker claimed it;
* :meth:`has_session` lets the router prune sticky routing entries whose
  session has completed.

``on_datagram`` remains the single-engine fast path and is expressed as
``classify`` + ``dispatch``, so the standalone engine and the sharded
workers execute the same code.

Threading contract: :meth:`classify` and :meth:`routing_key` are pure with
respect to session state and safe to call from any thread;
:meth:`dispatch` and :meth:`has_session` touch the session table and must
be serialised per engine — the simulation's event queue does this
implicitly, the live runtime runs every worker's jobs on the socket
engine's one event-loop thread.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Tuple

from ...network.addressing import Endpoint
from ...network.engine import NetworkEngine
from ..message import AbstractMessage
from .session import SessionContext, SessionRecord

__all__ = ["EngineCore"]


class EngineCore:
    """Abstract worker-facing surface of a session-multiplexing engine."""

    # -- datagram pipeline ------------------------------------------------
    def classify(
        self,
        data: bytes,
        destination: Endpoint,
        now: float = 0.0,
        counters: Optional[Any] = None,
        trace: int = 0,
    ) -> Optional[Tuple[str, AbstractMessage]]:
        """Parse ``data`` addressed to ``destination``.

        Returns ``(automaton_name, message)`` or ``None`` when no component
        automaton owns the destination or no candidate parser accepts the
        bytes (parse failures are recorded with timestamp ``now``).

        ``counters`` redirects the classify outcome counters
        (``discriminator_hits``/``discriminator_misses``/
        ``garbage_rejects`` and the ``parse_failures`` list) to another
        owner: a shard router classifying at the edge passes itself, so
        edge outcomes are charged to the router and the per-worker/router
        counters stay a conserved sum.  ``trace`` is the datagram's
        :mod:`repro.obs` trace id (span attribution for the parse stage).
        """
        raise NotImplementedError

    def routing_key(
        self, automaton_name: str, message: AbstractMessage, source: Endpoint
    ) -> Optional[Hashable]:
        """Session key of a client-facing message, ``None`` for other legs."""
        raise NotImplementedError

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
        """Deliver an already-parsed message; return True when consumed.

        ``strict`` restricts upstream-reply matching to exact evidence
        (reply token or client-host match) and skips the FIFO
        waiting-session fallback — routers fan out in a strict first pass
        so a worker cannot steal another shard's response, then retry
        leniently.  With ``count_unrouted`` false the engine leaves its
        drop counter alone and lets the caller aggregate instead.
        ``trace`` carries the datagram's :mod:`repro.obs` trace id into
        the dispatch/transition/translate/compose spans.
        """
        raise NotImplementedError

    # -- session visibility ----------------------------------------------
    def has_session(self, key: Any) -> bool:
        """Whether a session under ``key`` is currently in flight."""
        raise NotImplementedError

    @property
    def active_sessions(self) -> List[SessionContext]:
        raise NotImplementedError

    # Implementations also expose the statistics the runtime aggregates:
    # ``sessions`` / ``evicted_sessions`` (lists of SessionRecord),
    # ``unrouted_datagrams`` / ``ignored_datagrams`` (ints) and
    # ``parse_failures`` (list of (time, automaton, error) tuples).
    sessions: List[SessionRecord]
    evicted_sessions: List[SessionRecord]
