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

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import MessageError, TranslationError
from ..fieldpath import FieldPath
from ..mdl.compiled import _MAX_LAYOUTS, _Source
from ..message import ABSENT, AbstractMessage, MessageSchema, PrimitiveField, StructuredField
from .functions import (
    BUILTIN_FUNCTIONS,
    TranslationFunctionRegistry,
    default_translation_registry,
    function_failed,
)

__all__ = ["MessageFieldRef", "Assignment", "TranslationLogic"]


def _flat_label(expression: str) -> Optional[str]:
    """``expression`` as one top-level field label, else ``None``.

    ``None`` for the paths a translator cannot reduce to a single slot —
    dotted paths into structured fields, the paper's XPath style, and
    anything :class:`FieldPath` would refuse — which stay with the
    reference interpreter.
    """
    label = expression.strip()
    if not label or label.startswith("/") or "." in label:
        return None
    return label


#: The built-in function objects, compared by identity: a function registered
#: in a built-in's place is not one.
_BUILTINS = frozenset(map(id, BUILTIN_FUNCTIONS.values()))
_CONSTANT = BUILTIN_FUNCTIONS["constant"]


def _reader(
    cache: Dict[MessageSchema, Callable], layout: MessageSchema, labels: Tuple[str, ...]
) -> Callable:
    """A generated translator's slot reader for source schema ``layout``."""
    if len(cache) >= _MAX_LAYOUTS:
        cache.clear()
    read = cache[layout] = layout.reader(labels)
    return read


def _settle(target: AbstractMessage, labels: Tuple[str, ...], values: Tuple[Any, ...]) -> None:
    """Give ``target`` the fields a translator has assigned so far."""
    for label, value in zip(labels, values):
        if value is not ABSENT:
            target.add_field(PrimitiveField(label, "String", None, value))


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
        #: One generated translator per target message, built by
        #: :meth:`lower` (or on first use) and shared by everything holding
        #: this logic (every worker engine).
        #: Valid only while the logic is read-only: ``assign`` and
        #: ``add_assignment`` drop them, and so does a ``register`` on the
        #: function registry they resolved their functions from.
        self._translators: Dict[str, Callable[..., AbstractMessage]] = {}
        self._translators_registry: Optional[TranslationFunctionRegistry] = None
        self._translators_version = -1

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
        self._translators.clear()
        return self

    def add_assignment(self, assignment: Assignment) -> "TranslationLogic":
        self._assignments.append(assignment)
        self._translators.clear()
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

        Runs the target message's translator (see :meth:`_generate`): a
        fresh target is filled in one pass and left in value mode; a target
        that already holds fields, or whose assignments a generated
        translator cannot hold, goes to :meth:`interpret`, the reference
        this must stay message- and error-identical to.
        """
        translator = self._translators.get(target.name)
        functions = self.functions
        if (
            translator is None
            or self._translators_registry is not functions
            or self._translators_version != functions.version
        ):
            translator = self._translator_for(target.name)
        return translator(target, instances, context, strict)

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
        """Generate and compile the translator of every target message now.

        Translators are built on first use anyway; an engine calls this
        when it is constructed so the work lands in deploy time, not on the
        first datagram of each kind.
        """
        for assignment in self._assignments:
            self._translator_for(assignment.target.message)

    def _translator_for(self, target_message: str) -> Callable[..., AbstractMessage]:
        functions = self.functions
        if (
            self._translators_registry is not functions
            or self._translators_version != functions.version
        ):
            self._translators = {}
            self._translators_registry = functions
            self._translators_version = functions.version
        translator = self._translators.get(target_message)
        if translator is None:
            translator = self._translators[target_message] = self._generate(target_message)
        return translator

    def _generate(self, target_message: str) -> Callable[..., AbstractMessage]:
        """The straight-line translator of ``target_message``.

        When every assignment is flat, writes a distinct target label,
        reads another message and calls no function but the built-ins, the
        target's values stay in locals: each source message is looked up
        once and read by slot position (value mode) or label, ``constant``
        is folded, the other functions are called as bound constants, and
        the target is handed its slot tuple at the end (fields, if an
        assignment was skipped).  An error hands the target what was
        assigned before it, as the interpreter leaves it.  Any other target
        — a dotted or XPath path, a self-sourced or user-function
        assignment — is translated by :meth:`interpret` as a whole.
        """
        functions = self.functions
        steps = []
        held: List[str] = []  # the target labels kept in locals, in order
        for assignment in self.assignments_for(target_message):
            source = _flat_label(assignment.source.field)
            label = _flat_label(assignment.target.field)
            function = functions.lookup(assignment.function) if assignment.function else None
            if (
                source is None
                or label is None
                or label in held
                or assignment.source.message == target_message
                or (function is not None and id(function) not in _BUILTINS)
            ):
                return self.interpret
            held.append(label)
            steps.append((assignment, source, function))

        src = _Source(
            "translate(target, instances, context, strict)",
            f"{target_message} translator",
            A=ABSENT,
            SF=StructuredField,
            TranslationError=TranslationError,
            interpret=self.interpret,
            _reader=_reader,
            _settle=_settle,
            _structured_value=_structured_value,
            _failed=function_failed,
        )
        src("fields = target._fields")
        src("if fields is None or fields:")
        src("    return interpret(target, instances, context, strict)")
        if held:
            # Each source message is looked up once and its labels read in
            # one slot-reader call.
            sources: Dict[str, Tuple[str, Dict[str, str]]] = {}
            for assignment, source, _ in steps:
                name, reads = sources.setdefault(
                    assignment.source.message, (f"s{len(sources)}", {})
                )
                reads.setdefault(source, f"{name}_{len(reads)}")
            labels = src.const(tuple(held))
            slots = "".join(f"t{j}, " for j in range(len(held)))
            src(" = ".join(f"t{j}" for j in range(len(held))) + " = A")
            src("try:")
            src.depth += 1
            for message, (name, reads) in sources.items():
                cache = src.const({})
                src(f"{name} = instances.get({message!r})")
                src(f"if {name} is not None:")
                src(f"    x = {name}._values")
                src("    if x is not None:")
                src(f"        layout = {name}._schema")
                src(
                    f"        {', '.join(reads.values())} = ({cache}.get(layout) or "
                    f"_reader({cache}, layout, {src.const(tuple(reads))}))(x)"
                )
                src("    else:")
                for label, var in reads.items():
                    src(f"        {var} = {name}.get({label!r}, A)")
            for j, (assignment, source, function) in enumerate(steps):
                name, reads = sources[assignment.source.message]
                self._emit(src, assignment, function, name, reads[source], f"t{j}")
            src.depth -= 1
            src("except BaseException:")
            src(f"    _settle(target, {labels}, ({slots}))")
            src("    raise")
            schema = MessageSchema(held, ["String"] * len(held))
            src(f"if {' and '.join(f't{j} is not A' for j in range(len(held)))}:")
            src("    target._fields = None")
            src(f"    target._schema = {src.const(schema)}")
            src(f"    target._values = ({slots})")
            src("else:")
            src(f"    _settle(target, {labels}, ({slots}))")
        src("return target")
        return src.compile()

    @staticmethod
    def _emit(
        src: _Source,
        assignment: Assignment,
        function: Optional[Callable[..., Any]],
        source: str,
        value: str,
        slot: str,
    ) -> None:
        """One assignment reading ``value`` (``A``: absent) of the message
        in ``source``: skip it or raise as the interpreter does, else run
        its function and store the result in local ``slot``."""
        no_instance = (
            f"no instance of source message '{assignment.source.message}' "
            f"available for assignment {assignment}"
        )
        no_field = f"source field missing for assignment {assignment}"
        src(f"if {source} is None:")
        src(f"    if strict: raise TranslationError({no_instance!r})")
        src(f"elif {value} is A:")
        src(f"    if strict: raise TranslationError({no_field!r})")
        src("else:")
        src.depth += 1
        name = assignment.function
        arguments = tuple(assignment.function_arguments)
        if name and function is None:
            message = f"unknown translation function '{name}'"
            src(f"raise TranslationError({message!r})")
        elif function is _CONSTANT and not arguments:
            src("raise TranslationError('constant() needs a literal argument')")
        elif function is _CONSTANT and not isinstance(arguments[0], StructuredField):
            src(f"{slot} = {src.const(arguments[0])}")
        else:
            result = value
            if name:
                src("try:")
                src(
                    f"    v = {src.const(function)}({value}, arguments={src.const(arguments)}, "
                    f"context=dict(context) if context else {{}}, source={source}, "
                    "target=target)"
                )
                src("except TranslationError:")
                src("    raise")
                src("except Exception as exc:")
                src(f"    raise _failed({name!r}, {value}, exc) from exc")
                result = "v"
            src(f"if isinstance({result}, SF):")
            src(f"    raise _structured_value({src.const(assignment)}, {result}.label)")
            src(f"{slot} = {result}")
        src.depth -= 1

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
        differential tests run this, and :meth:`apply` runs it for every
        target :meth:`_generate` does not hold in locals.
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
