"""The check a side-by-side test makes that an engine runs the references.

The ``reference_engines`` fixture (``conftest.py``) swaps the reference
implementations in at the factory seams; :func:`runs_references` tells an
engine built under it from one built on the compiled codecs and plans, so
a side-by-side comparison cannot pass by comparing a stack with itself.
"""

from __future__ import annotations

from repro.core.automata.merge import MergedAutomaton
from repro.core.mdl.binary import BinaryMessageComposer, BinaryMessageParser
from repro.core.mdl.text import TextMessageComposer, TextMessageParser
from repro.core.translation.logic import TranslationLogic

_PARSERS = (BinaryMessageParser, TextMessageParser)
_COMPOSERS = (BinaryMessageComposer, TextMessageComposer)


def runs_references(engine) -> bool:
    """Whether ``engine`` runs every reference: the interpreting codecs, no
    discriminator, the transition scan and the assignment interpreter."""
    bindings = [engine.binding(name) for name in engine.merged.automaton_names]
    return (
        all(isinstance(b.parser, _PARSERS) for b in bindings)
        and all(isinstance(b.composer, _COMPOSERS) for b in bindings)
        and not engine._discriminators
        and engine._step.__func__ is MergedAutomaton.scan_step
        and engine.merged.translation.apply.__func__ is TranslationLogic.interpret
    )

