"""Merged automata: chaining coloured automata with δ-transitions.

Section III-C: two coloured automata are *mergeable* when δ-transitions can
be drawn between them — from a state of the first where the received
history is semantically equivalent to the output message required in the
initial state of the second (constraint 2), and back from a final state of
the second to a sending state of the first (constraint 3).  n automata are
*weakly merged* when their δ-transitions chain them along a directed path
that starts and ends in the same automaton (constraint 4) — Fig. 4's
SLP/SSDP/HTTP example.

δ-transitions carry a sequence ``{λ}`` of network-layer actions, such as
``set_host(ip, port)`` which points the next TCP connection at the host
discovered inside a previously received message.

A :class:`MergedAutomaton` is itself a ``{k1..kn}``-coloured automaton: its
states are the union of the component automata's states, with the extra
δ-transition relation and the attached translation logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import MergeError, NotMergeableError
from ..translation.logic import MessageFieldRef, TranslationLogic
from .color import NetworkColor
from .colored import Action, ColoredAutomaton, State, Transition
from .semantics import SemanticEquivalence

__all__ = [
    "LambdaAction",
    "DeltaTransition",
    "Step",
    "MergedAutomaton",
    "check_mergeable",
    "derive_equivalence",
]


@dataclass(frozen=True)
class LambdaAction:
    """One network-layer action ``λ`` attached to a δ-transition.

    ``name`` identifies the action (the paper's keyword operator, e.g.
    ``set_host``); ``arguments`` reference fields of previously received
    messages whose values parameterise the action.
    """

    name: str
    arguments: Tuple[MessageFieldRef, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(argument) for argument in self.arguments)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class DeltaTransition:
    """A δ-transition between states of two *different* automata."""

    source_automaton: str
    source_state: str
    target_automaton: str
    target_state: str
    actions: Tuple[LambdaAction, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        actions = ",".join(str(action) for action in self.actions)
        label = f"δ{{{actions}}}" if actions else "δ"
        return (
            f"{self.source_automaton}.{self.source_state} --{label}--> "
            f"{self.target_automaton}.{self.target_state}"
        )


class Step:
    """What the engine may do in one ``(automaton, state)`` of a merged automaton.

    ``receives`` maps each message name the state listens for to its
    receive-transition (the first one, for duplicates); ``deltas`` are the
    δ-transitions leaving the state, in declaration order; ``send`` is the
    state's first send-transition or ``None``.  A state with none of the
    three is terminal.  ``version`` is the component automaton's
    :attr:`~ColoredAutomaton.version` the step was resolved against.
    """

    __slots__ = ("receives", "deltas", "send", "version")

    def __init__(
        self,
        receives: Dict[str, Transition],
        deltas: Tuple[DeltaTransition, ...],
        send: Optional[Transition],
        version: int,
    ) -> None:
        self.receives = receives
        self.deltas = deltas
        self.send = send
        self.version = version


class MergedAutomaton:
    """A {k1..kn}-coloured automaton built from component coloured automata."""

    def __init__(
        self,
        name: str,
        automata: Sequence[ColoredAutomaton],
        translation: Optional[TranslationLogic] = None,
        initial_automaton: Optional[str] = None,
    ) -> None:
        if not automata:
            raise MergeError("a merged automaton needs at least one component automaton")
        self.name = name
        self._automata: Dict[str, ColoredAutomaton] = {}
        for automaton in automata:
            if automaton.name in self._automata:
                raise MergeError(f"duplicate automaton name '{automaton.name}'")
            self._automata[automaton.name] = automaton
        self._deltas: List[DeltaTransition] = []
        #: Transition plans per ``(automaton, state)``, resolved by
        #: :meth:`lower` (or on first use) and shared by every engine
        #: executing this automaton.  Valid only while the model is
        #: read-only: ``add_delta`` drops them, and a component automaton
        #: that changed is noticed by its version.
        self._steps: Dict[Tuple[str, str], Step] = {}
        self.translation = translation if translation is not None else TranslationLogic()
        #: Name of the automaton whose initial state is the merged q0
        #: (the client-facing protocol).
        self._initial_automaton = initial_automaton or automata[0].name
        if self._initial_automaton not in self._automata:
            raise MergeError(
                f"initial automaton '{self._initial_automaton}' is not a component"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_delta(
        self,
        source: str,
        target: str,
        actions: Sequence[LambdaAction] = (),
    ) -> DeltaTransition:
        """Add a δ-transition between ``"Automaton.state"`` references."""
        source_automaton, source_state = self._split(source)
        target_automaton, target_state = self._split(target)
        if source_automaton == target_automaton:
            raise MergeError(
                "delta-transitions connect states of *different* automata; "
                f"got {source} -> {target}"
            )
        self._require_state(source_automaton, source_state)
        self._require_state(target_automaton, target_state)
        delta = DeltaTransition(
            source_automaton, source_state, target_automaton, target_state, tuple(actions)
        )
        self._deltas.append(delta)
        self._steps.clear()
        return delta

    def _split(self, reference: str) -> Tuple[str, str]:
        if "." not in reference:
            raise MergeError(
                f"state reference {reference!r} must be 'Automaton.state'"
            )
        automaton, _, state = reference.partition(".")
        return automaton, state

    def _require_state(self, automaton_name: str, state_name: str) -> None:
        automaton = self.automaton(automaton_name)
        if not automaton.has_state(state_name):
            raise MergeError(
                f"automaton '{automaton_name}' has no state '{state_name}'"
            )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def automaton(self, name: str) -> ColoredAutomaton:
        try:
            return self._automata[name]
        except KeyError:
            raise MergeError(f"merged automaton has no component '{name}'") from None

    @property
    def automata(self) -> Dict[str, ColoredAutomaton]:
        return dict(self._automata)

    @property
    def automaton_names(self) -> List[str]:
        return list(self._automata)

    @property
    def deltas(self) -> List[DeltaTransition]:
        return list(self._deltas)

    @property
    def initial_automaton(self) -> ColoredAutomaton:
        return self._automata[self._initial_automaton]

    @property
    def initial_state(self) -> Tuple[str, str]:
        """The merged q0 as an ``(automaton, state)`` pair."""
        automaton = self.initial_automaton
        return automaton.name, automaton.initial_state

    def state(self, automaton_name: str, state_name: str) -> State:
        return self.automaton(automaton_name).state(state_name)

    def colors(self) -> Set[NetworkColor]:
        """The colour set {k1..kn} of the merged automaton."""
        colors: Set[NetworkColor] = set()
        for automaton in self._automata.values():
            colors.update(automaton.colors())
        return colors

    def deltas_from(self, automaton_name: str, state_name: str) -> List[DeltaTransition]:
        return [
            delta
            for delta in self._deltas
            if delta.source_automaton == automaton_name and delta.source_state == state_name
        ]

    def lower(self) -> None:
        """Resolve every transition plan now.

        Each state's :class:`Step` and the translation logic's translator per
        target message are built on first use anyway; an engine calls this
        when it is constructed so the work lands in deploy time, not on
        the first datagrams.  Safe to repeat (every worker engine does).
        """
        for automaton_name, automaton in self._automata.items():
            for state_name in automaton.states:
                self.step((automaton_name, state_name))
        self.translation.lower()

    def step(self, current: Tuple[str, str]) -> Step:
        """The transition plan of ``current = (automaton, state)``, cached.

        What the automata engine probes per datagram instead of scanning
        the transition lists: see :class:`Step`.
        """
        step = self._steps.get(current)
        if step is None or step.version != self._automata[current[0]].version:
            step = self._steps[current] = self.scan_step(current)
        return step

    def scan_step(self, current: Tuple[str, str]) -> Step:
        """:meth:`step` resolved afresh from the transition lists.

        The reference :meth:`step` must agree with; nothing is cached.
        """
        automaton_name, state_name = current
        automaton = self.automaton(automaton_name)
        receives: Dict[str, Transition] = {}
        for transition in automaton.transitions_from(state_name, Action.RECEIVE):
            receives.setdefault(transition.message, transition)
        sends = automaton.transitions_from(state_name, Action.SEND)
        return Step(
            receives,
            tuple(self.deltas_from(automaton_name, state_name)),
            sends[0] if sends else None,
            automaton.version,
        )

    def messages(self) -> List[str]:
        seen: List[str] = []
        for automaton in self._automata.values():
            for name in automaton.messages():
                if name not in seen:
                    seen.append(name)
        return seen

    # ------------------------------------------------------------------
    # merge-constraint validation
    # ------------------------------------------------------------------
    @property
    def is_weakly_merged(self) -> bool:
        """Constraint (4): δ-transitions chain the automata along a directed
        path that starts and ends in the initial automaton."""
        if not self._deltas:
            return len(self._automata) == 1
        start = self._initial_automaton
        # Follow delta transitions as edges between automata.
        edges: Dict[str, Set[str]] = {}
        for delta in self._deltas:
            edges.setdefault(delta.source_automaton, set()).add(delta.target_automaton)
        visited: Set[str] = set()
        frontier = [start]
        returns_to_start = False
        while frontier:
            current = frontier.pop()
            for successor in edges.get(current, set()):
                if successor == start:
                    returns_to_start = True
                if successor not in visited:
                    visited.add(successor)
                    frontier.append(successor)
        other_automata = set(self._automata) - {start}
        return returns_to_start and other_automata.issubset(visited)

    @property
    def is_strongly_merged(self) -> bool:
        """Strong merge: every pair of component automata is pairwise mergeable
        (i.e. directly connected by δ-transitions in both directions)."""
        names = list(self._automata)
        for i, left in enumerate(names):
            for right in names[i + 1 :]:
                forward = any(
                    d.source_automaton == left and d.target_automaton == right
                    for d in self._deltas
                )
                backward = any(
                    d.source_automaton == right and d.target_automaton == left
                    for d in self._deltas
                )
                if not (forward and backward):
                    return False
        return bool(names)

    def validate(self, equivalence: Optional[SemanticEquivalence] = None) -> None:
        """Check structural well-formedness and (optionally) merge constraints.

        With an equivalence relation the δ-transitions are checked against
        constraints (2) and (3): the message sent right after entering the
        target automaton must be semantically supported by what the source
        automaton has received so far.
        """
        for automaton in self._automata.values():
            automaton.validate()
        if not self.is_weakly_merged:
            raise NotMergeableError(
                f"merged automaton {self.name} is not weakly merged: delta-transitions "
                "do not chain the component automata back to the initial automaton"
            )
        if equivalence is None:
            equivalence = derive_equivalence(self.translation)
        for delta in self._deltas:
            self._check_delta(delta, equivalence)

    def _check_delta(self, delta: DeltaTransition, equivalence: SemanticEquivalence) -> None:
        target_automaton = self.automaton(delta.target_automaton)
        # The message(s) the target automaton needs to send from the state the
        # delta lands on.
        outgoing = target_automaton.transitions_from(delta.target_state, Action.SEND)
        if not outgoing:
            # Landing on a receive or final state needs no semantic justification.
            return
        received = self._received_before(delta)
        for transition in outgoing:
            if not equivalence.holds_for_names(transition.message, received):
                raise NotMergeableError(
                    f"delta-transition {delta} is not justified: message "
                    f"'{transition.message}' is not semantically equivalent to the "
                    f"received history {received!r}"
                )

    def _received_before(self, delta: DeltaTransition) -> List[str]:
        """Message names received anywhere before crossing ``delta``.

        The paper's constraints use the received history of the source
        automaton (``s0 ?⇒ si``); for chained merges (Fig. 4) messages
        received by *earlier* automata in the chain are also available to
        the translation logic, so they are included.
        """
        received: List[str] = []
        source = self.automaton(delta.source_automaton)
        received.extend(
            source.received_message_names(source.initial_state, delta.source_state)
        )
        for earlier_delta in self._deltas:
            if earlier_delta is delta:
                continue
            earlier = self.automaton(earlier_delta.source_automaton)
            received.extend(
                earlier.received_message_names(
                    earlier.initial_state, earlier_delta.source_state
                )
            )
        # Deduplicate, preserving order.
        seen: List[str] = []
        for name in received:
            if name not in seen:
                seen.append(name)
        return seen

    # ------------------------------------------------------------------
    # execution support
    # ------------------------------------------------------------------
    def reset(self) -> None:
        for automaton in self._automata.values():
            automaton.reset()

    def find_automaton_of_state(self, state_name: str) -> Optional[str]:
        for name, automaton in self._automata.items():
            if automaton.has_state(state_name):
                return name
        return None

    def __repr__(self) -> str:
        return (
            f"MergedAutomaton({self.name!r}, automata={self.automaton_names}, "
            f"deltas={len(self._deltas)})"
        )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def derive_equivalence(
    translation: TranslationLogic,
    mandatory_fields: Optional[Mapping[str, Sequence[str]]] = None,
) -> SemanticEquivalence:
    """Build the ``|=`` relation implied by a translation logic.

    Message equivalences come from the logic's declarations (Fig. 5 lines
    1-3); field correspondences come from its assignments (lines 4-9).
    """
    from .semantics import FieldCorrespondence

    equivalence = SemanticEquivalence(
        message_pairs=translation.equivalences, mandatory_fields=mandatory_fields
    )
    for assignment in translation.assignments:
        equivalence.add_correspondence(
            FieldCorrespondence(
                target_message=assignment.target.message,
                target_field=assignment.target.field,
                source_message=assignment.source.message,
                source_field=assignment.source.field,
            )
        )
    return equivalence


def check_mergeable(
    first: ColoredAutomaton,
    second: ColoredAutomaton,
    equivalence: SemanticEquivalence,
) -> Tuple[bool, List[Tuple[str, str]]]:
    """Decide whether two coloured automata are mergeable (``A1 ⊗ A2``).

    Implements constraints (2) and (3) at the model level: a forward
    δ-transition is possible from a state of ``first`` reached by receive
    transitions whose history semantically supports the first message sent
    from ``second``'s initial state; a backward δ-transition is possible
    from a final (or reply-complete) state of ``second`` to a state of
    ``first`` that still has to send, with the second automaton's received
    history supporting that outgoing message.

    Returns ``(mergeable, delta_candidates)`` where the candidates are
    ``(source "A.state", target "A.state")`` pairs.
    """
    candidates: List[Tuple[str, str]] = []

    # Constraint (2): forward delta from first into second's initial state.
    initial_sends = second.transitions_from(second.initial_state, Action.SEND)
    for state_name in first.states:
        received = first.received_message_names(first.initial_state, state_name)
        if not received:
            continue
        for transition in initial_sends:
            if equivalence.holds_for_names(transition.message, received):
                candidates.append(
                    (f"{first.name}.{state_name}", f"{second.name}.{second.initial_state}")
                )
                break

    forward = bool(candidates)

    # Constraint (3): backward delta from a state of second where the reply
    # has been received, to a state of first that still sends a message.  The
    # outgoing message may also draw on fields the *first* automaton received
    # earlier (e.g. SLP_SrvReply.XID copied from the original SLP_SrvReq), so
    # that history is available to the check too — exactly as the translation
    # logic of Fig. 5 uses it.
    backward = False
    final_states = second.accepting_states or [
        name for name in second.states if not second.transitions_from(name)
    ]
    for final_state in final_states:
        received = second.received_message_names(second.initial_state, final_state)
        if not received:
            continue
        for state_name in first.states:
            available = received + first.received_message_names(
                first.initial_state, state_name
            )
            sends = first.transitions_from(state_name, Action.SEND)
            for transition in sends:
                if equivalence.holds_for_names(transition.message, available):
                    candidates.append(
                        (f"{second.name}.{final_state}", f"{first.name}.{state_name}")
                    )
                    backward = True
                    break

    return forward and backward, candidates
