"""k-coloured automata describing protocol behaviour.

Section III-B defines a k-coloured automaton
``Ak = (Q, M, q0, F, Act, →, ⇒)`` where ``Q`` is a finite set of states,
``M`` the abstract messages, ``q0`` the starting state, ``F`` the accepting
states, ``Act = {?, !}`` the receive/send actions, ``→`` the transition
relation and ``⇒`` the *history operator* returning the sequence of message
instances stored along a path.  Every state maintains a queue of message
instances, and every state carries a network colour; ordinary transitions
may only connect states of the same colour.

The per-state queues here are *model-level* storage used when reasoning
about automata in isolation (merge checking, synthesis, tests).  At
runtime the automata engine treats automata as read-only shared structure:
each concurrent session keeps its own per-state queues in its
:class:`~repro.core.engine.session.SessionContext`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import AutomatonError, ColorMismatchError, InvalidTransitionError
from ..message import AbstractMessage
from .color import NetworkColor

__all__ = ["Action", "State", "Transition", "ColoredAutomaton"]


class Action(enum.Enum):
    """The two transition actions of the paper: receive (?) and send (!)."""

    RECEIVE = "?"
    SEND = "!"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class State:
    """One automaton state: a name, a colour, and a message-instance queue."""

    name: str
    color: NetworkColor
    accepting: bool = False
    queue: List[AbstractMessage] = field(default_factory=list)

    def store(self, message: AbstractMessage) -> None:
        """Push a message instance onto this state's queue."""
        self.queue.append(message)

    def stored(self, message_name: Optional[str] = None) -> List[AbstractMessage]:
        """Return stored instances, optionally filtered by message name."""
        if message_name is None:
            return list(self.queue)
        return [msg for msg in self.queue if msg.name == message_name]

    def latest(self, message_name: Optional[str] = None) -> Optional[AbstractMessage]:
        """Return the most recent stored instance (of ``message_name`` if given)."""
        matching = self.stored(message_name)
        return matching[-1] if matching else None

    def clear(self) -> None:
        self.queue.clear()

    def __repr__(self) -> str:
        return f"State({self.name!r}, color={self.color.value})"


@dataclass(frozen=True)
class Transition:
    """A send- or receive-transition ``s1 --act m--> s2``."""

    source: str
    action: Action
    message: str
    target: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.source} --{self.action.value}{self.message}--> {self.target}"


class ColoredAutomaton:
    """A k-coloured automaton for one protocol.

    The automaton is *k-coloured* in the paper's sense when every state is
    coloured; by construction that is always true here because states are
    created with a colour.  The class exposes the history operator ``⇒`` as
    :meth:`received_history` / :meth:`sent_history`.
    """

    def __init__(self, name: str, protocol: str = "") -> None:
        self.name = name
        #: The protocol whose behaviour this automaton captures (e.g. "SLP").
        self.protocol = protocol or name
        self._states: Dict[str, State] = {}
        self._transitions: List[Transition] = []
        self._initial: Optional[str] = None
        #: Bumped by every structural change (``add_state`` /
        #: ``add_transition``): artefacts derived from this automaton — the
        #: merged automaton's transition plans — compare it to know they
        #: are stale.
        self.version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_state(
        self,
        name: str,
        color: NetworkColor,
        initial: bool = False,
        accepting: bool = False,
    ) -> State:
        """Create and register a state; the first state added becomes initial."""
        if name in self._states:
            raise AutomatonError(f"duplicate state '{name}' in automaton {self.name}")
        state = State(name=name, color=color, accepting=accepting)
        self._states[name] = state
        self.version += 1
        if initial or self._initial is None:
            self._initial = name if initial or self._initial is None else self._initial
        if initial:
            self._initial = name
        return state

    def add_transition(
        self, source: str, action: Action, message: str, target: str
    ) -> Transition:
        """Add ``source --action message--> target``.

        Raises :class:`ColorMismatchError` when the two states do not share
        the same colour — the paper's well-formedness condition for ordinary
        (non-δ) transitions.
        """
        if source not in self._states:
            raise InvalidTransitionError(
                f"unknown source state '{source}' in automaton {self.name}"
            )
        if target not in self._states:
            raise InvalidTransitionError(
                f"unknown target state '{target}' in automaton {self.name}"
            )
        if self._states[source].color != self._states[target].color:
            raise ColorMismatchError(
                f"transition {source} -> {target} in automaton {self.name} crosses "
                "colours; only delta-transitions of a merged automaton may do that"
            )
        transition = Transition(source, action, message, target)
        self._transitions.append(transition)
        self.version += 1
        return transition

    def receive(self, source: str, message: str, target: str) -> Transition:
        """Shorthand for a receive-transition ``source --?message--> target``."""
        return self.add_transition(source, Action.RECEIVE, message, target)

    def send(self, source: str, message: str, target: str) -> Transition:
        """Shorthand for a send-transition ``source --!message--> target``."""
        return self.add_transition(source, Action.SEND, message, target)

    # ------------------------------------------------------------------
    # structure access
    # ------------------------------------------------------------------
    @property
    def initial_state(self) -> str:
        if self._initial is None:
            raise AutomatonError(f"automaton {self.name} has no states")
        return self._initial

    @property
    def states(self) -> Dict[str, State]:
        return dict(self._states)

    @property
    def accepting_states(self) -> List[str]:
        return [name for name, state in self._states.items() if state.accepting]

    @property
    def transitions(self) -> List[Transition]:
        return list(self._transitions)

    def state(self, name: str) -> State:
        try:
            return self._states[name]
        except KeyError:
            raise AutomatonError(
                f"automaton {self.name} has no state '{name}'"
            ) from None

    def has_state(self, name: str) -> bool:
        return name in self._states

    def transitions_from(self, state_name: str, action: Optional[Action] = None) -> List[Transition]:
        return [
            t
            for t in self._transitions
            if t.source == state_name and (action is None or t.action == action)
        ]

    def transitions_into(self, state_name: str, action: Optional[Action] = None) -> List[Transition]:
        return [
            t
            for t in self._transitions
            if t.target == state_name and (action is None or t.action == action)
        ]

    def colors(self) -> Set[NetworkColor]:
        return {state.color for state in self._states.values()}

    def single_color(self) -> NetworkColor:
        """The unique colour ``k`` of this automaton.

        Colours are inspected in state-insertion order, so the result is
        deterministic.  Raises :class:`AutomatonError` when the automaton
        has no states or carries more than one distinct colour — picking an
        arbitrary one would bind the automaton's network resources (local
        endpoint, default destination) nondeterministically.
        """
        distinct: List[NetworkColor] = []
        for state in self._states.values():
            if state.color not in distinct:
                distinct.append(state.color)
        if not distinct:
            raise AutomatonError(f"automaton {self.name} has no states, hence no colour")
        if len(distinct) > 1:
            raise AutomatonError(
                f"automaton {self.name} carries {len(distinct)} distinct colours; "
                "a single per-automaton network binding is ambiguous"
            )
        return distinct[0]

    @property
    def is_k_colored(self) -> bool:
        """True when every state carries a colour and all colours agree.

        A single protocol automaton has exactly one colour ``k``; merged
        automata have several.
        """
        return len(self.colors()) == 1

    def messages(self, action: Optional[Action] = None) -> List[str]:
        """Names of messages appearing on (optionally filtered) transitions."""
        seen: List[str] = []
        for transition in self._transitions:
            if action is not None and transition.action != action:
                continue
            if transition.message not in seen:
                seen.append(transition.message)
        return seen

    # ------------------------------------------------------------------
    # paths and the history operator
    # ------------------------------------------------------------------
    def path(self, source: str, target: str) -> Optional[List[Transition]]:
        """Return one transition path from ``source`` to ``target`` (BFS), or None."""
        if source == target:
            return []
        visited = {source}
        frontier: List[Tuple[str, List[Transition]]] = [(source, [])]
        while frontier:
            current, trail = frontier.pop(0)
            for transition in self.transitions_from(current):
                if transition.target in visited:
                    continue
                new_trail = trail + [transition]
                if transition.target == target:
                    return new_trail
                visited.add(transition.target)
                frontier.append((transition.target, new_trail))
        return None

    def _history(self, source: str, target: str, action: Action) -> List[AbstractMessage]:
        trail = self.path(source, target)
        if trail is None:
            raise AutomatonError(
                f"no path from {source} to {target} in automaton {self.name}"
            )
        history: List[AbstractMessage] = []
        for transition in trail:
            if transition.action != action:
                continue
            state = self._states[transition.source]
            history.extend(state.stored(transition.message))
        return history

    def received_history(self, source: str, target: str) -> List[AbstractMessage]:
        """The paper's ``s1 ?⇒ s2``: received instances stored along the path."""
        return self._history(source, target, Action.RECEIVE)

    def sent_history(self, source: str, target: str) -> List[AbstractMessage]:
        """The paper's ``s1 !⇒ s2``: sent instances stored along the path."""
        return self._history(source, target, Action.SEND)

    def received_message_names(self, source: str, target: str) -> List[str]:
        """Message *names* received along the path (for model-level reasoning)."""
        trail = self.path(source, target)
        if trail is None:
            return []
        return [t.message for t in trail if t.action is Action.RECEIVE]

    def sent_message_names(self, source: str, target: str) -> List[str]:
        trail = self.path(source, target)
        if trail is None:
            return []
        return [t.message for t in trail if t.action is Action.SEND]

    # ------------------------------------------------------------------
    # execution support
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear every state queue (start of a new interoperability session)."""
        for state in self._states.values():
            state.clear()

    def is_receive_state(self, state_name: str) -> bool:
        return bool(self.transitions_from(state_name, Action.RECEIVE))

    def is_send_state(self, state_name: str) -> bool:
        return bool(self.transitions_from(state_name, Action.SEND))

    def validate(self) -> None:
        """Sanity-check the automaton structure."""
        if self._initial is None:
            raise AutomatonError(f"automaton {self.name} has no initial state")
        reachable = {self._initial}
        frontier = [self._initial]
        while frontier:
            current = frontier.pop()
            for transition in self.transitions_from(current):
                if transition.target not in reachable:
                    reachable.add(transition.target)
                    frontier.append(transition.target)
        unreachable = set(self._states) - reachable
        if unreachable:
            raise AutomatonError(
                f"automaton {self.name} has unreachable states: {sorted(unreachable)}"
            )

    def __repr__(self) -> str:
        return (
            f"ColoredAutomaton({self.name!r}, states={len(self._states)}, "
            f"transitions={len(self._transitions)})"
        )
