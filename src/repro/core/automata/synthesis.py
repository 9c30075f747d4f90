"""Automatic synthesis of merged automata (the paper's future-work direction).

Section VII of the paper: *"At present, the merged automata with the
corresponding translation logic is modelled by a developer; however, in
order for it to be a true runtime solution this model should be generated
by the framework itself."*  This module implements the simplest useful
version of that idea for request/response protocols:

Given two coloured automata — the client-facing protocol and the
service-facing protocol — plus the *semantic knowledge* that ontology or
learning techniques would provide (declared message equivalences and field
correspondences, see :class:`~repro.core.automata.semantics.SemanticEquivalence`),
:func:`synthesize_merge`:

1. finds the candidate δ-transition sites with
   :func:`~repro.core.automata.merge.check_mergeable` (constraints 2 and 3
   of the paper),
2. chooses the earliest forward site and the final backward site so the
   resulting chain starts and ends in the client-facing automaton (the
   weak-merge shape of constraint 4), and
3. derives the translation logic directly from the field correspondences.

The result is a ready-to-validate :class:`MergedAutomaton`; the case-study
test shows it coincides with the hand-modelled Fig. 10 bridge.  What it
does *not* attempt is inferring the correspondences themselves — that is
exactly the ontology/learning integration the paper leaves open.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import NotMergeableError
from ..translation.logic import Assignment, MessageFieldRef, TranslationLogic
from .colored import ColoredAutomaton
from .merge import MergedAutomaton, check_mergeable
from .semantics import SemanticEquivalence

__all__ = ["synthesize_merge", "translation_from_equivalence"]


def translation_from_equivalence(equivalence: SemanticEquivalence) -> TranslationLogic:
    """Derive translation logic from an equivalence relation.

    Every declared message pair becomes an equivalence of the logic and
    every field correspondence becomes a plain-copy assignment (translation
    functions, if needed, can be attached afterwards by the model author).
    This is the inverse of :func:`~repro.core.automata.merge.derive_equivalence`.
    """
    translation = TranslationLogic()
    for left, right in equivalence.message_pairs:
        translation.declare_equivalent(left, right)
    for correspondence in equivalence.correspondences:
        translation.add_assignment(
            Assignment(
                target=MessageFieldRef(correspondence.target_message, correspondence.target_field),
                source=MessageFieldRef(correspondence.source_message, correspondence.source_field),
            )
        )
    return translation


def _split(reference: str) -> Tuple[str, str]:
    automaton, _, state = reference.partition(".")
    return automaton, state


def synthesize_merge(
    client_side: ColoredAutomaton,
    service_side: ColoredAutomaton,
    equivalence: SemanticEquivalence,
    name: Optional[str] = None,
    translation: Optional[TranslationLogic] = None,
) -> MergedAutomaton:
    """Generate a merged automaton for a client/service protocol pair.

    ``client_side`` is the automaton facing the legacy client (it starts by
    receiving); ``service_side`` faces the legacy service (it starts by
    sending).  ``equivalence`` supplies the message equivalences and field
    correspondences; ``translation`` overrides the automatically derived
    translation logic when the model author wants to add translation
    functions.

    Raises :class:`NotMergeableError` when the constraints of Section III-C
    cannot be satisfied for this pair.
    """
    mergeable, candidates = check_mergeable(client_side, service_side, equivalence)
    if not mergeable:
        raise NotMergeableError(
            f"automata {client_side.name} and {service_side.name} are not mergeable "
            "under the supplied semantic equivalence"
        )

    forward = [
        (source, target)
        for source, target in candidates
        if _split(source)[0] == client_side.name and _split(target)[0] == service_side.name
    ]
    backward = [
        (source, target)
        for source, target in candidates
        if _split(source)[0] == service_side.name and _split(target)[0] == client_side.name
    ]
    if not forward or not backward:
        raise NotMergeableError(
            f"no delta-transition chain returns to {client_side.name}; "
            "the pair is only one-way mergeable"
        )

    merged = MergedAutomaton(
        name or f"{client_side.name.lower()}-to-{service_side.name.lower()}",
        [client_side, service_side],
        translation if translation is not None else translation_from_equivalence(equivalence),
        initial_automaton=client_side.name,
    )
    # Earliest forward site: the first state (in path order from the initial
    # state) at which the service-side request is already supported.
    forward.sort(key=lambda pair: _path_length(client_side, _split(pair[0])[1]))
    merged.add_delta(*forward[0])
    # Final backward site: return from the service side's accepting state to
    # the client-side state that still has the reply to send.
    backward.sort(key=lambda pair: _path_length(client_side, _split(pair[1])[1]), reverse=True)
    merged.add_delta(*backward[0])
    return merged


def _path_length(automaton: ColoredAutomaton, state_name: str) -> int:
    path = automaton.path(automaton.initial_state, state_name)
    return len(path) if path is not None else 1_000_000
