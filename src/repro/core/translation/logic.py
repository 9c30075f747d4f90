"""Translation logic: field assignments between semantically equivalent messages.

Section III-D: once the merged automaton says *when* to translate, the
translation logic says *what* to translate.  Its central operation is the
assignment (equations 5 and 6 of the paper)::

    s1_i.m1.field_a = s2_j.m2.field_b          # same-type copy
    s1_i.m1.field_a = T(s2_j.m2.field_b)       # through a translation function

The left-hand side addresses a field of a message to be sent from a state
of one automaton; the right-hand side addresses a field of a message stored
in the queue of a state of another (or the same) automaton.  ``T`` is a
translation function used when the content is not directly assignable
(different types or encodings).

A :class:`TranslationLogic` bundles the three parts of Fig. 5:

1. the message-kind equivalences (lines 1-3),
2. the assignments (lines 4-9), and
3. the δ-transition specifications (lines 10-12) — those live in
   :class:`~repro.core.automata.merge.MergedAutomaton`, but the XML bridge
   document keeps them together, so the logic records them as opaque
   references for round-tripping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import MessageError, TranslationError
from ..fieldpath import FieldPath
from ..message import AbstractMessage, PrimitiveField, StructuredField
from .functions import TranslationFunctionRegistry, default_translation_registry

__all__ = ["MessageFieldRef", "Assignment", "TranslationLogic"]


def _flat_label(expression: str) -> Optional[str]:
    """``expression`` as one top-level field label, else ``None``.

    ``None`` for the paths a plan cannot reduce to a single index probe —
    dotted paths into structured fields, the paper's XPath style, and
    anything :class:`FieldPath` would refuse — which stay with the
    reference interpreter.
    """
    label = expression.strip()
    if not label or label.startswith("/") or "." in label:
        return None
    return label


#: One lowered assignment of a translation plan: ``(assignment, source
#: message, source label, target label, function name, function, literal
#: arguments)``.  Both labels are ``None`` when either side is not a flat
#: label: that assignment runs through the reference interpreter.
_PlanStep = Tuple[
    "Assignment",
    str,
    Optional[str],
    Optional[str],
    Optional[str],
    Optional[Callable[..., Any]],
    Tuple[str, ...],
]


def _structured_value(assignment: "Assignment", label: str) -> MessageError:
    """The error for ``assignment`` storing structured field ``label`` as a
    primitive value — on either translation stack and at load time alike."""
    return MessageError(
        f"assignment {assignment} would store structured field '{label}' "
        f"as a primitive value"
    )


@dataclass(frozen=True)
class MessageFieldRef:
    """A reference ``state.message.field`` used on either side of an assignment.

    ``state`` may be empty when the reference is resolved purely by message
    name (the engine keeps the latest instance of every message kind, which
    matches the paper's one-instance-per-state queues for the discovery
    case studies).
    """

    message: str
    field: str
    state: str = ""

    def path(self) -> FieldPath:
        """The parsed field path (parsed once per reference, then shared)."""
        return self._path

    @cached_property
    def _path(self) -> FieldPath:
        return FieldPath(self.field)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        prefix = f"{self.state}." if self.state else ""
        return f"{prefix}{self.message}.{self.field}"


@dataclass(frozen=True)
class Assignment:
    """``target = T(source)`` — one field assignment of the translation logic."""

    target: MessageFieldRef
    source: MessageFieldRef
    #: Name of the translation function ``T``; ``None`` means plain copy (eq. 5).
    function: Optional[str] = None
    #: Extra literal arguments passed to the translation function.
    function_arguments: Tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rhs = str(self.source)
        if self.function:
            rhs = f"{self.function}({rhs})"
        return f"{self.target} = {rhs}"


class TranslationLogic:
    """The set of equivalences and assignments for one merged automaton."""

    def __init__(
        self,
        equivalences: Optional[Sequence[Tuple[str, str]]] = None,
        assignments: Optional[Sequence[Assignment]] = None,
        functions: Optional[TranslationFunctionRegistry] = None,
    ) -> None:
        self._equivalences: List[Tuple[str, str]] = list(equivalences or [])
        self._assignments: List[Assignment] = list(assignments or [])
        self.functions = functions if functions is not None else default_translation_registry()
        #: Translation plans per target message, lowered by :meth:`lower` (or
        #: on first use) and shared by everything holding this logic (every
        #: worker engine).
        #: Valid only while the logic is read-only: ``assign`` and
        #: ``add_assignment`` drop them, and so does a ``register`` on the
        #: function registry they resolved their functions from.
        self._plans: Dict[str, List[_PlanStep]] = {}
        self._plans_registry: Optional[TranslationFunctionRegistry] = None
        self._plans_version = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def declare_equivalent(self, left: str, right: str) -> "TranslationLogic":
        """Record ``left |= right`` (Fig. 5 lines 1-3)."""
        self._equivalences.append((left, right))
        return self

    def assign(
        self,
        target: str,
        source: str,
        function: Optional[str] = None,
        *function_arguments: str,
    ) -> "TranslationLogic":
        """Add an assignment using ``"Message.field"`` shorthand strings.

        ``target`` and ``source`` are ``"[state:]Message.field"`` — the
        optional state prefix is separated by a colon, the message and the
        (possibly dotted) field path by the first dot.
        """
        self._assignments.append(
            Assignment(
                self._parse_ref(target),
                self._parse_ref(source),
                function,
                tuple(function_arguments),
            )
        )
        self._plans.clear()
        return self

    def add_assignment(self, assignment: Assignment) -> "TranslationLogic":
        self._assignments.append(assignment)
        self._plans.clear()
        return self

    @staticmethod
    def _parse_ref(text: str) -> MessageFieldRef:
        state = ""
        rest = text.strip()
        if ":" in rest:
            state, _, rest = rest.partition(":")
        if "." not in rest:
            raise TranslationError(
                f"assignment reference {text!r} must be '[state:]Message.field'"
            )
        message, _, field_path = rest.partition(".")
        return MessageFieldRef(message=message, field=field_path, state=state.strip())

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def equivalences(self) -> List[Tuple[str, str]]:
        return list(self._equivalences)

    @property
    def assignments(self) -> List[Assignment]:
        return list(self._assignments)

    def assignments_for(self, target_message: str) -> List[Assignment]:
        """All assignments whose target is a field of ``target_message``."""
        return [a for a in self._assignments if a.target.message == target_message]

    def source_messages_for(self, target_message: str) -> List[str]:
        """Message kinds read by the assignments targeting ``target_message``."""
        seen: List[str] = []
        for assignment in self.assignments_for(target_message):
            if assignment.source.message not in seen:
                seen.append(assignment.source.message)
        return seen

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(
        self,
        target: AbstractMessage,
        instances: Dict[str, AbstractMessage],
        context: Optional[Dict[str, Any]] = None,
        strict: bool = False,
    ) -> AbstractMessage:
        """Fill ``target`` by executing every assignment targeting it.

        ``instances`` maps message names to the latest received/constructed
        instance of that kind (the engine builds it from the state queues).
        ``context`` carries engine-provided values translation functions may
        need (e.g. the bridge's own HTTP endpoint).  With ``strict`` a
        missing source instance or field raises
        :class:`~repro.core.errors.TranslationError`; otherwise the
        assignment is skipped.

        Executes the target's *translation plan*: the assignments lowered
        once (see :meth:`_lower`) into flat label-to-label slot copies with
        their functions already looked up.  :meth:`interpret` is the
        reference this must stay message- and error-identical to.
        """
        target_name = target.name
        functions = self.functions
        for step in self._plan_for(target_name):
            assignment, source_message, source_label, target_label, name, function, arguments = step
            if source_label is None:
                self._execute(assignment, target, instances, context, strict)
                continue
            source_instance = instances.get(source_message)
            if source_instance is None:
                if source_message == target_name:
                    source_instance = target
                elif strict:
                    raise TranslationError(
                        f"no instance of source message '{source_message}' "
                        f"available for assignment {assignment}"
                    )
                else:
                    continue
            found = source_instance.find(source_label)
            if found is None:
                if strict:
                    raise TranslationError(
                        f"source field missing for assignment {assignment}"
                    )
                continue
            value = found if isinstance(found, StructuredField) else found.value
            if name is not None:
                value = functions.call(
                    name, function, value, arguments, context, source_instance, target
                )
            if isinstance(value, StructuredField):
                raise _structured_value(assignment, value.label)
            existing = target.find(target_label)
            if existing is None:
                target.add_field(PrimitiveField(target_label, "String", None, value))
            elif isinstance(existing, StructuredField):
                raise MessageError(
                    f"cannot assign a value to structured field '{target_label}' "
                    f"of message '{target_name}'"
                )
            else:
                existing.value = value
        return target

    def validate(self) -> None:
        """Reject the assignments that can only store a structured field
        as a primitive value, whatever the messages hold.

        Statically that is a self-sourced assignment whose source path is
        a proper prefix of its target path (``M.S.x = M.S``): writing
        ``S.x`` needs ``S`` structured, and a structured ``S`` assigned
        into its own child would make the message contain itself.  A path
        that does not parse is left to fail when the assignment runs.
        """
        for assignment in self._assignments:
            if assignment.source.message != assignment.target.message:
                continue
            try:
                source = assignment.source.path().labels
                target = assignment.target.path().labels
            except MessageError:
                continue
            if len(source) < len(target) and target[: len(source)] == source:
                raise _structured_value(assignment, source[-1])

    def lower(self) -> None:
        """Lower the plan of every target message now.

        Plans are built on first use anyway; an engine calls this when it
        is constructed so the work lands in deploy time, not on the first
        datagram of each kind.
        """
        for assignment in self._assignments:
            self._plan_for(assignment.target.message)

    def _plan_for(self, target_message: str) -> List[_PlanStep]:
        functions = self.functions
        if self._plans_registry is not functions or self._plans_version != functions.version:
            self._plans = {}
            self._plans_registry = functions
            self._plans_version = functions.version
        plan = self._plans.get(target_message)
        if plan is None:
            plan = self._plans[target_message] = self._lower(target_message)
        return plan

    def _lower(self, target_message: str) -> List[_PlanStep]:
        """Lower the assignments targeting ``target_message`` into a plan."""
        plan: List[_PlanStep] = []
        for assignment in self.assignments_for(target_message):
            source_label = _flat_label(assignment.source.field)
            target_label = _flat_label(assignment.target.field)
            if source_label is None or target_label is None:
                source_label = target_label = None
            name = assignment.function or None
            plan.append(
                (
                    assignment,
                    assignment.source.message,
                    source_label,
                    target_label,
                    name,
                    self.functions.lookup(name) if name is not None else None,
                    tuple(assignment.function_arguments),
                )
            )
        return plan

    def interpret(
        self,
        target: AbstractMessage,
        instances: Dict[str, AbstractMessage],
        context: Optional[Dict[str, Any]] = None,
        strict: bool = False,
    ) -> AbstractMessage:
        """:meth:`apply` by the reference interpreter, one assignment at a time.

        Nothing is lowered or cached: every call filters the assignment
        list and resolves each side through :class:`FieldPath`.  The
        engine's escape hatch and the differential tests run this.
        """
        for assignment in self.assignments_for(target.name):
            self._execute(assignment, target, instances, context, strict)
        return target

    def _execute(
        self,
        assignment: Assignment,
        target: AbstractMessage,
        instances: Dict[str, AbstractMessage],
        context: Optional[Dict[str, Any]],
        strict: bool,
    ) -> None:
        source_instance = instances.get(assignment.source.message)
        if source_instance is None:
            if assignment.source.message == target.name:
                source_instance = target
            elif strict:
                raise TranslationError(
                    f"no instance of source message '{assignment.source.message}' "
                    f"available for assignment {assignment}"
                )
            else:
                return
        source_path = assignment.source.path()
        if not source_path.exists(source_instance):
            if strict:
                raise TranslationError(
                    f"source field missing for assignment {assignment}"
                )
            return
        value = source_path.resolve(source_instance)
        if assignment.function:
            value = self.functions.apply(
                assignment.function,
                value,
                arguments=assignment.function_arguments,
                context=context or {},
                source=source_instance,
                target=target,
            )
        if isinstance(value, StructuredField):
            raise _structured_value(assignment, value.label)
        assignment.target.path().assign(target, value)

    def __repr__(self) -> str:
        return (
            f"TranslationLogic(equivalences={len(self._equivalences)}, "
            f"assignments={len(self._assignments)})"
        )
