"""Deploy-time compilation of MDL specifications into fast codecs.

The generic interpreters of :mod:`repro.core.mdl.binary` and
:mod:`repro.core.mdl.text` pay for the MDL's genericity on every datagram:
binary parsing walks a bit-list :class:`~repro.core.typesys.BitBuffer` one
bit at a time, and text parsing re-derives delimiters and type lookups per
field.  This module lowers a specification *once* into:

* a **compiled binary codec** — one straight-line decoder and one encoder
  generated as Python source per spec: the parser reads each fixed run
  with one :mod:`struct` unpack and length-prefixed and self-describing
  fields with byte slices, selects the message by its ``<Rule>`` and
  returns a value-mode message (slot values over a per-(spec, message)
  :class:`~repro.core.message.MessageSchema`); the composer reads a
  value-mode message's slots by position, computes length and
  total-length fields inline and packs each fixed run with one
  :mod:`struct` call (a pre-packed template when the message carries none
  of the run's fields);
* a **compiled text codec** — header delimiters, per-label converters and
  per-message compose plans are precomputed, so parsing is a sequence of
  ``str.find``/``str.split`` calls with no per-field spec walks;
* a **first-bytes discriminator** (:class:`SpecDiscriminator`) — a dict
  probe over the bytes that carry the message ``<Rule>`` (the rule field of
  a binary header, the first delimited token of a text header), used by
  ``AutomataEngine.classify`` to skip trial parses: ``REJECT`` is *sound* (the
  interpreted parser is guaranteed to raise :class:`ParseError` on these
  bytes), ``MATCH`` is a definite candidate whose full parse may still
  fail, and ``UNKNOWN`` falls back to a trial parse.

Compilation is strictly *behaviour-preserving*: a compiled codec produces
byte-identical wire output and value-identical abstract messages to the
interpreted path, and raises the same error classes (:class:`ParseError`
on bad input, :class:`~repro.core.errors.ComposeError` on bad messages).
Specifications the compiler cannot prove equivalent for — sub-byte field
widths, marshaller subclasses it does not know, delimiter-sized binary
fields — silently fall back to the interpreted classes, so
:func:`compile_parser`/:func:`compile_composer` are safe drop-in factories.

Compiled artifacts built against the *default* type/function registries
are cached on the :class:`~repro.core.mdl.spec.MDLSpec` itself
(see :meth:`MDLSpec.invalidate_codecs`).  The cache is what makes the
sharded deploy path cheap: every worker engine shares the same read-only
``mdl_specs`` mapping, so the first ``create_parser`` compiles and every
subsequent worker reuses the artifact — safe *only* because the model is
read-only after deployment (the same invariant that lets workers share the
merged automaton).
"""

from __future__ import annotations

import functools
import struct
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from ..errors import ComposeError, MDLSpecificationError, ParseError
from ..message import AbstractMessage, MessageSchema, PrimitiveField, StructuredField
from ..typesys import (
    BitBuffer,
    BooleanMarshaller,
    BytesMarshaller,
    FQDNMarshaller,
    IntegerMarshaller,
    StringMarshaller,
    TypeRegistry,
    default_registry,
)
from .base import MessageComposer, MessageParser
from .binary import BinaryMessageComposer, BinaryMessageParser
from .functions import FieldFunctionRegistry, _f_length, _f_total_length
from .spec import FieldSpec, MDLKind, MDLSpec, MessageRule, MessageSpec, SizeKind
from .text import TextMessageComposer, TextMessageParser

__all__ = [
    "Codec",
    "PROBE_REJECT",
    "PROBE_MATCH",
    "PROBE_UNKNOWN",
    "SpecDiscriminator",
    "CompiledBinaryParser",
    "CompiledBinaryComposer",
    "CompiledTextParser",
    "CompiledTextComposer",
    "compile_parser",
    "compile_composer",
    "discriminator_for",
    "compiled_artifacts",
]

_ENCODING = "utf-8"

#: Discriminator verdicts.  ``REJECT`` is sound: the interpreted parser is
#: guaranteed to raise :class:`ParseError` on these bytes.  ``MATCH`` is a
#: definite candidate (its parse may still fail on later fields) and
#: ``UNKNOWN`` means the discriminator cannot tell — trial-parse.
PROBE_REJECT = 0
PROBE_MATCH = 1
PROBE_UNKNOWN = 2


@runtime_checkable
class Codec(Protocol):
    """The parser/composer surface the engine binds per protocol.

    Both the interpreted interpreters and the compiled classes below
    satisfy this protocol; the engine layer depends only on it.
    """

    spec: MDLSpec

    def parse(self, data: bytes) -> AbstractMessage: ...

    def compose(self, message: AbstractMessage) -> bytes: ...


# ----------------------------------------------------------------------
# text: message selection plans
# ----------------------------------------------------------------------
class _MessagePlan:
    """Per-message artifacts of the text parse plan."""

    __slots__ = ("name", "mandatory", "body_label")

    def __init__(self, name: str, mandatory: List[str]) -> None:
        self.name = name
        self.mandatory = mandatory
        self.body_label: Optional[str] = None


class _Selector:
    """Compiled ``select_message``: a dict probe where the rules allow it.

    Mirrors :meth:`MDLSpec.select_message` exactly — ruled messages in
    declaration order first, then the first rule-less message, else a
    :class:`MDLSpecificationError` with the interpreted wording (wrapped
    into :class:`ParseError` by the caller, as the interpreted path does).
    """

    __slots__ = ("protocol", "_ruled", "_by_value", "_rule_field", "_fallback")

    def __init__(self, spec: MDLSpec, plans: Dict[str, _MessagePlan]) -> None:
        self.protocol = spec.protocol
        self._ruled: List[Tuple[str, str, _MessagePlan]] = []
        self._fallback: Optional[_MessagePlan] = None
        for message in spec.messages:
            plan = plans[message.name]
            if message.rule is not None:
                self._ruled.append((message.rule.field_label, message.rule.value, plan))
            elif self._fallback is None:
                self._fallback = plan
        rule_fields = {label for label, _, _ in self._ruled}
        if len(rule_fields) == 1:
            self._rule_field = next(iter(rule_fields))
            self._by_value: Optional[Dict[str, _MessagePlan]] = {}
            for _, value, plan in self._ruled:
                self._by_value.setdefault(value, plan)
        else:
            self._rule_field = None
            self._by_value = None

    def select(self, values: Dict[str, Any]) -> _MessagePlan:
        if self._by_value is not None:
            observed = values.get(self._rule_field)
            if observed is not None:
                plan = self._by_value.get(str(observed))
                if plan is not None:
                    return plan
        else:
            for field_label, value, plan in self._ruled:
                observed = values.get(field_label)
                if observed is not None and str(observed) == value:
                    return plan
        if self._fallback is not None:
            return self._fallback
        raise MDLSpecificationError(
            f"no message spec of MDL {self.protocol} matches header {values!r}"
        )


def _type_names(spec: MDLSpec) -> Dict[str, str]:
    """Precomputed ``spec.type_of`` for every declared label."""
    return {label: decl.type_name for label, decl in spec.types.items()}


# ----------------------------------------------------------------------
# binary compilation: one generated decoder and one encoder per spec
# ----------------------------------------------------------------------
#: The marshallers the binary compiler lowers, by kind.
_BINARY_KINDS = {
    IntegerMarshaller: "int",
    BooleanMarshaller: "bool",
    StringMarshaller: "str",
    BytesMarshaller: "bytes",
    FQDNMarshaller: "fqdn",
}
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
#: Byte widths struct can carry as native unsigned pieces, most significant
#: first (a 24-bit field is one ``B`` and one ``H``).
_PIECES = {1: (1,), 2: (2,), 3: (1, 2), 4: (4,), 5: (1, 4), 6: (2, 4), 7: (1, 2, 4), 8: (8,)}


class _NotCompilable(Exception):
    """Internal: the spec cannot be lowered exactly; use the interpreter."""


class _BinaryField:
    """One binary field, lowered once for both generated codecs.

    ``width`` is the byte width the parser reads at a fixed size (declared
    bits, or an Integer's default width for a remainder/self-describing
    size); ``reference`` names the length field of a field-referenced
    size; a String/Bytes field with neither is the remainder and an FQDN
    describes its own length.  ``wire_width`` is the fixed width the
    composer writes (an Integer always writes a fixed width) or ``None``
    when the composer measures the value.
    """

    __slots__ = (
        "label", "kind", "marshaller", "width", "wire_width", "reference",
        "length_bits", "encoding",
    )

    def __init__(self, spec: MDLSpec, types: TypeRegistry, field_spec: FieldSpec) -> None:
        label = field_spec.label
        if "." in label:
            # A dotted label addresses a structured sub-field in the message
            # API; flat generated code would change its semantics.
            raise _NotCompilable
        self.label = label
        try:
            marshaller = types.get(spec.type_of(label))
        except Exception:
            raise _NotCompilable from None
        kind = _BINARY_KINDS.get(type(marshaller))
        size = field_spec.size
        fixed = size.kind is SizeKind.FIXED_BITS
        if (
            kind is None
            # Delimiters are a text-MDL notion: the interpreter raises.
            or size.kind is SizeKind.DELIMITER
            or (fixed and (size.bits % 8 or kind == "fqdn"))
            or (kind == "int" and not fixed and marshaller.default_bits % 8)
            # A Boolean's default width is one bit; an FQDN sizes itself.
            or (kind == "bool" and not fixed)
            or (kind == "fqdn" and size.kind is SizeKind.FIELD_REFERENCE)
        ):
            raise _NotCompilable
        self.kind = kind
        self.marshaller = marshaller
        self.reference = size.reference if size.kind is SizeKind.FIELD_REFERENCE else None
        self.length_bits = size.bits if fixed else None
        if fixed:
            self.wire_width: Optional[int] = size.bits // 8
        elif kind == "int":
            self.wire_width = marshaller.default_bits // 8
        else:
            self.wire_width = None
        self.width = None if self.reference is not None else self.wire_width
        self.encoding = getattr(marshaller, "encoding", _ENCODING)


class _Source:
    """One generated function: its source and the namespace it runs in."""

    def __init__(self, signature: str, title: str, **names: Any) -> None:
        self.signature = signature
        self.title = title
        self.lines: List[str] = []
        self.names: Dict[str, Any] = dict(names)
        self.depth = 1

    def __call__(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def const(self, value: Any) -> str:
        name = f"K{len(self.names)}"
        self.names[name] = value
        return name

    def compile(self) -> Callable:
        body = "\n".join(self.lines)
        exec(_code(f"def {self.signature}:\n{body}\n", self.title), self.names)
        return self.names[self.signature.partition("(")[0]]


@functools.lru_cache(maxsize=256)
def _code(source: str, title: str) -> Any:
    """Compiled code per generated source: equal specs (every legacy client
    builds its own) share one ``compile``."""
    return compile(source, f"<compiled {title}>", "exec")


class _Generated:
    """A codec method compiled from the instance's ``_source`` on first
    access, then stored on the instance, where it shadows this descriptor.

    Generating the source at construction decides compilability (and so
    the interpreter fallback) at deploy; ``compile`` itself waits for the
    first datagram, keeping it off deploy time.  Once stored, the method is
    a plain instance attribute: one call per parse/compose, rebindable by
    tracing shims like any other.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: Any, owner: Optional[type] = None) -> Any:
        if instance is None:
            return self
        function = instance.__dict__[self.name] = instance._source.compile()
        return function


def _decode_underrun(label: str, protocol: str, need_bits: int, have_bits: int) -> ParseError:
    return ParseError(
        f"cannot decode field '{label}' of {protocol}: "
        f"buffer underrun: need {need_bits} bits, have {have_bits}"
    )


def _field_error(label: str, protocol: str, exc: Exception) -> ParseError:
    return ParseError(f"cannot decode field '{label}' of {protocol}: {exc}")


def _run_underrun(run: Tuple, protocol: str, size: int, pos: int) -> ParseError:
    """The underrun of a fixed run, charged to its first field that does not
    fit, as the field-at-a-time interpreter charges it: an Integer/Boolean
    is one ``read_uint`` of its width, a String/Bytes field is read a byte
    at a time and fails needing 8 bits with none left."""
    for label, width, uint_read in run:
        if pos + width > size:
            if uint_read:
                return _decode_underrun(label, protocol, width * 8, (size - pos) * 8)
            return _decode_underrun(label, protocol, 8, 0)
        pos += width
    raise AssertionError("the run fits")  # pragma: no cover


def _ref_length(value: Any, label: str, reference: str, uint_read: bool, protocol: str) -> int:
    """A non-Integer length field's value as a byte count (cold path)."""
    try:
        nbytes = int(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(
            f"length field '{reference}' holds non-numeric value {value!r}"
        ) from exc
    if nbytes < 0:
        # ``read_uint`` rejects negative widths; ``read_bytes`` reads nothing.
        if uint_read:
            raise _field_error(label, protocol, "cannot read a negative number of bits")
        nbytes = 0
    return nbytes


def _no_message(protocol: str, values: Dict[str, Any]) -> ParseError:
    return ParseError(
        f"failed to parse {protocol} message: "
        f"no message spec of MDL {protocol} matches header {values!r}"
    )


def _unpack_codes(field: _BinaryField) -> str:
    pieces = _PIECES.get(field.width) if field.kind in ("int", "bool") else None
    if pieces is None:
        return f"{field.width}s"
    return "".join(_STRUCT_CODES[piece] for piece in pieces)


def _emit_decode(
    src: _Source, fields: List[_BinaryField], local: Dict[str, str], seen: Dict[str, str]
) -> None:
    """Straight-line decoding of ``fields`` into their local variables.

    ``seen`` maps each label decoded so far on this path to its kind; a
    length reference must name one of them.
    """
    run: List[_BinaryField] = []

    def var(label: str) -> str:
        return local.setdefault(label, f"v{len(local)}")

    def assign(field: _BinaryField, expression: str) -> None:
        if field.kind == "str":
            decoded = f"{expression}.rstrip(b'\\x00').decode({field.encoding!r})"
            src("try:")
            src(f"    {var(field.label)} = {decoded}")
            src("except Exception as exc:")
            src(f"    raise _field_error({field.label!r}, P, exc) from exc")
        else:
            src(f"{var(field.label)} = {expression}")
        seen[field.label] = field.kind

    def flush() -> None:
        if not run:
            return
        size = sum(field.width for field in run)
        layout = tuple((f.label, f.width, f.kind in ("int", "bool")) for f in run)
        unpack = struct.Struct(">" + "".join(_unpack_codes(f) for f in run)).unpack_from
        temps: List[str] = []
        values: List[str] = []
        for field in run:
            pieces = _PIECES.get(field.width) if field.kind in ("int", "bool") else None
            names = [f"t{len(temps) + i}" for i in range(len(pieces or (1,)))]
            temps.extend(names)
            if pieces is None:
                value = names[0]
                if field.kind in ("int", "bool"):
                    value = f"int.from_bytes({value}, 'big')"
            else:
                shifts = [8 * sum(pieces[i + 1:]) for i in range(len(pieces))]
                value = " | ".join(
                    f"({name} << {shift})" if shift else name
                    for name, shift in zip(names, shifts)
                )
            values.append(f"({value}) != 0" if field.kind == "bool" else value)
        src(f"e = p + {size}")
        src(f"if e > n: raise _run_underrun({src.const(layout)}, P, n, p)")
        if len(run) == 1 and run[0].kind == "int" and size <= 2:
            # One narrow length field: indexing is cheaper than a struct call.
            values = ["data[p]" if size == 1 else "(data[p] << 8) | data[p + 1]"]
        else:
            src(f"{', '.join(temps)}, = {src.const(unpack)}(data, p)")
        for field, value in zip(run, values):
            assign(field, value)
        src("p = e")
        run.clear()

    for field in fields:
        if field.width is not None:
            run.append(field)
            continue
        flush()
        label = field.label
        if field.kind == "fqdn":
            src("parts = []")
            src("while True:")
            src(f"    if p >= n: raise _decode_underrun({label!r}, P, 8, 0)")
            src("    k = data[p]")
            src("    p += 1")
            src("    if not k: break")
            src("    e = p + k")
            src(f"    if e > n: raise _decode_underrun({label!r}, P, 8, 0)")
            src("    try:")
            src("        parts.append(data[p:e].decode('utf-8'))")
            src("    except Exception as exc:")
            src(f"        raise _field_error({label!r}, P, exc) from exc")
            src("    p = e")
            assign(field, "'.'.join(parts)")
        elif field.reference is not None:
            reference = field.reference
            if reference not in seen:
                raise _NotCompilable
            uint_read = field.kind == "int"
            length = local[reference]
            if seen[reference] not in ("int", "bool"):
                length = f"_ref_length({length}, {label!r}, {reference!r}, {uint_read}, P)"
            src(f"e = p + {length}")
            need = "(e - p) * 8, (n - p) * 8" if uint_read else "8, 0"
            src(f"if e > n: raise _decode_underrun({label!r}, P, {need})")
            assign(field, "int.from_bytes(data[p:e], 'big')" if uint_read else "data[p:e]")
            src("p = e")
        else:
            assign(field, "data[p:]")
            src("p = n")
    flush()


def _rule_test(rule: MessageRule, kinds: Dict[str, str], local: Dict[str, str]) -> Optional[str]:
    """The generated test of ``rule`` against the decoded header, or ``None``
    when ``str(observed) == rule.value`` can never hold."""
    kind = kinds.get(rule.field_label)
    if kind is None:
        return None  # Not a header field: the interpreter observes ``None``.
    observed = local[rule.field_label]
    if kind == "int":
        try:
            value = int(rule.value)
        except ValueError:
            return None
        return f"{observed} == {value!r}" if str(value) == rule.value else None
    if kind in ("str", "fqdn"):
        return f"{observed} == {rule.value!r}"
    return f"str({observed}) == {rule.value!r}"


def _binary_decoder(spec: MDLSpec, types: TypeRegistry) -> _Source:
    """Generate the spec's parser: the header, then one straight-line branch
    per message, each building a value-mode message over the (spec,
    message) schema fixed here."""
    if spec.header is None:
        raise _NotCompilable
    header = [_BinaryField(spec, types, f) for f in spec.header.fields]
    src = _Source(
        "decode(data)",
        f"{spec.protocol} parser",
        P=spec.protocol,
        AM=AbstractMessage,
        new=object.__new__,
        ParseError=ParseError,
        _decode_underrun=_decode_underrun,
        _field_error=_field_error,
        _run_underrun=_run_underrun,
        _ref_length=_ref_length,
        _no_message=_no_message,
    )
    local: Dict[str, str] = {}
    kinds: Dict[str, str] = {}
    src("try:")
    src.depth = 2
    src("n = len(data)")
    src("p = 0")
    _emit_decode(src, header, local, kinds)
    header_labels = list(dict.fromkeys(f.label for f in header))

    def branch(message: MessageSpec) -> None:
        fields = [_BinaryField(spec, types, f) for f in message.fields]
        _emit_decode(src, fields, local, dict(kinds))
        labels = list(dict.fromkeys(header_labels + [f.label for f in fields]))
        schema = MessageSchema(labels, [spec.type_of(label) for label in labels])
        src(
            f"m = new(AM); m.name = {message.name!r}; m.protocol = P; "
            f"m._mandatory = {src.const(tuple(message.mandatory_fields))}; "
            f"m._schema = {src.const(schema)}"
        )
        src(f"m._values = ({''.join(f'{local[label]}, ' for label in labels)})")
        src("return m")

    fallback = None
    for message in spec.messages:
        if message.rule is None:
            fallback = fallback or message
            continue
        test = _rule_test(message.rule, kinds, local)
        if test is None:
            continue
        src(f"if {test}:")
        src.depth += 1
        branch(message)
        src.depth -= 1
    if fallback is not None:
        branch(fallback)
    else:
        observed = ", ".join(f"{label!r}: {local[label]}" for label in header_labels)
        src(f"raise _no_message(P, {{{observed}}})")
    src.depth = 1
    src("except ParseError:")
    src("    raise")
    src("except Exception as exc:")
    src("    raise ParseError(f'failed to parse {P} message: {exc}') from exc")
    return src


class CompiledBinaryParser(MessageParser):
    """Straight-line parser generated from a binary MDL specification."""

    parse = _Generated()

    def __init__(
        self,
        spec: MDLSpec,
        types: Optional[TypeRegistry] = None,
        functions: Optional[FieldFunctionRegistry] = None,
    ) -> None:
        super().__init__(spec, types, functions)
        self._source = _binary_decoder(spec, self.types)


# ----------------------------------------------------------------------
def _text(value: Any) -> str:
    return "" if value is None else str(value)


def _bytes(value: Any) -> bytes:
    return b"" if value is None else bytes(value)


def _present(field: Any) -> Any:
    # As ``AbstractMessage.get``: a structured field is its own value.
    return field if isinstance(field, StructuredField) else field.value


@functools.lru_cache(maxsize=256)
def _fqdn_wire(text: str) -> Tuple[Optional[bytes], int]:
    """``(wire bytes, byte length)`` of a DNS name, memoised (a bridge sees
    few names); the bytes are ``None`` when a label is too long, which only
    the write may report."""
    name = text.strip(".")
    if not name:
        return b"\x00", 1
    out = bytearray()
    valid = True
    for label in name.split("."):
        data = label.encode("utf-8")
        valid = valid and len(data) <= 63
        out.append(len(data) & 0xFF)
        out += data
    out.append(0)
    return (bytes(out) if valid else None), len(out)


def _fixed(data: bytes, width: int) -> bytes:
    if len(data) > width:
        raise ValueError("field overflow")
    return data


def _reference_write(fields: Tuple, values: Tuple, message_name: str) -> bytes:
    """The interpreter's write pass over final values: the cold path of a
    generated encoder, so every write error keeps its class and text."""
    buffer = BitBuffer()
    for (label, marshaller, length_bits), value in zip(fields, values):
        try:
            marshaller.marshal(value, buffer, length_bits)
        except Exception as exc:
            raise ComposeError(
                f"cannot encode field '{label}' of message '{message_name}': {exc}"
            ) from exc
    return buffer.to_bytes()


#: The field functions a generated encoder computes inline; a spec using
#: any other (or a re-registered one) falls back to the interpreter.
_INLINE_FUNCTIONS = {"f-length": _f_length, "f-total-length": _f_total_length}


def _encoded(i: int, field: _BinaryField) -> str:
    """The generated expression for field ``i``'s bytes, as its marshaller
    writes them (before any fixed-width padding)."""
    if field.kind == "str":
        return f"(v{i} if v{i}.__class__ is str else _text(v{i})).encode({field.encoding!r})"
    if field.kind == "bytes":
        return f"(v{i} if v{i}.__class__ is bytes else _bytes(v{i}))"
    return f"_fqdn_wire(v{i} if v{i}.__class__ is str else _text(v{i}))[0]"


def _emit_encode(
    src: _Source,
    spec: MDLSpec,
    types: TypeRegistry,
    functions: FieldFunctionRegistry,
    message: MessageSpec,
    slots: Optional[Dict[str, int]],
) -> None:
    """One message's encoder: resolve, measure, fill length and function
    fields, then pack each fixed run once and join.

    ``slots`` is the schema layout of a value-mode message — each field
    is then one slot read, and whether it is absent is known here — or
    ``None`` to resolve field objects through the label index."""
    fields = [_BinaryField(spec, types, f) for f in spec.header.fields + message.fields]
    labels = [field.label for field in fields]
    if len(set(labels)) != len(labels):
        raise _NotCompilable  # A repeated label shares one value slot.
    position = {label: i for i, label in enumerate(labels)}
    rule = message.rule
    defaults: List[Any] = []
    for i, field in enumerate(fields):
        if rule is not None and rule.field_label == field.label:
            try:
                default = field.marshaller.from_text(rule.value)
            except Exception:
                raise _NotCompilable from None
        else:
            default = {"int": 0, "bool": False, "bytes": b""}.get(field.kind, "")
        defaults.append(default)
        if slots is None:
            src(f"f{i} = get({field.label!r})")
            src(
                f"v{i} = {src.const(default)} if f{i} is None "
                f"else (f{i}.value if f{i}.__class__ is PF else _present(f{i}))"
            )
        elif field.label in slots:
            src(f"v{i} = values[{slots[field.label]}]")
        else:
            src(f"v{i} = {src.const(default)}")
    # Measure: the interpreter's lengths, raising what it raises, in order.
    for i, field in enumerate(fields):
        if field.wire_width is not None:
            continue
        if field.kind == "fqdn":
            src(f"m{i}, k{i} = _fqdn_wire(v{i} if v{i}.__class__ is str else _text(v{i}))")
        else:
            src(f"m{i} = {_encoded(i, field)}")
            src(f"k{i} = len(m{i})")

    def nbytes(label: str) -> str:
        field = fields[position[label]]
        return str(field.wire_width) if field.wire_width is not None else f"k{position[label]}"

    fixed_bytes = sum(field.wire_width or 0 for field in fields)
    measured = [f"k{i}" for i, field in enumerate(fields) if field.wire_width is None]
    total = " + ".join([str(fixed_bytes)] + measured)
    sync: List[Tuple[str, str]] = []
    for field in fields:
        if field.reference is not None and spec.function_of(field.reference) is None:
            if any(reference == field.reference for reference, _ in sync):
                raise _NotCompilable  # A shared length prefix: the interpreter raises.
            sync.append((field.reference, field.label))
    targets = {reference for reference, _ in sync}
    declared = [(field.label, spec.function_of(field.label)) for field in fields]
    declared = [(label, function) for label, function in declared if function is not None]
    for _, function in declared:
        name, arguments = function.name, function.arguments
        if name not in _INLINE_FUNCTIONS or functions.lookup(name) is not _INLINE_FUNCTIONS[name]:
            raise _NotCompilable
        if name == "f-length" and (
            not arguments or (arguments[0] not in position and arguments[0] in targets)
        ):
            raise _NotCompilable
    computed = {label for label, _ in declared} | (targets & set(position))
    for label, function in declared:
        if function.name == "f-total-length":
            value = total
        else:
            argument = function.arguments[0]
            value = nbytes(argument) if argument in position else "0"
        src(f"v{position[label]} = {value}")
    for reference, label in sync:
        if reference in position:
            src(f"v{position[reference]} = {nbytes(label)}")

    # Write: one struct pack per fixed run (a pre-packed template when the
    # message carries none of its fields), the measured bytes in between.
    parts: List[str] = []
    run: List[int] = []
    prepare: List[str] = []

    def flush() -> None:
        if not run:
            return
        codes, args = ">", []
        for i in run:
            field = fields[i]
            width = field.wire_width
            if field.kind in ("str", "bytes"):
                codes += f"{width}s"
                args.append(f"_fixed({_encoded(i, field)}, {width})")
                continue
            pieces = _PIECES.get(width)
            if field.kind == "bool":
                value = f"(1 if v{i} else 0)"
            elif pieces is not None and len(pieces) == 1:
                # ``int(value)`` is the interpreter's conversion; a value it
                # rejects raises here and takes the reference write.
                value = f"(v{i} if v{i}.__class__ is int else int(v{i}))"
            else:
                prepare.append(f"i{i} = v{i} if v{i}.__class__ is int else int(v{i})")
                value = f"i{i}"
            if pieces is None:
                codes += f"{width}s"
                args.append(f"{value}.to_bytes({width}, 'big')")
            else:
                codes += "".join(_STRUCT_CODES[piece] for piece in pieces)
                for k, piece in enumerate(pieces):
                    shift = 8 * sum(pieces[k + 1:])
                    term = f"({value} >> {shift})" if shift else value
                    args.append(term if k == 0 else f"({term} & {(1 << 8 * piece) - 1})")
        packed = f"{src.const(struct.Struct(codes).pack)}({', '.join(args)})"
        if not computed.intersection(labels[i] for i in run):
            meta = tuple(
                (fields[i].label, fields[i].marshaller, fields[i].length_bits) for i in run
            )
            try:
                template = _reference_write(meta, tuple(defaults[i] for i in run), message.name)
            except ComposeError:
                template = None
            if template is not None and slots is None:
                absent = " and ".join(f"f{i} is None" for i in run)
                packed = f"({src.const(template)} if {absent} else {packed})"
            elif template is not None and not any(labels[i] in slots for i in run):
                packed = src.const(template)
        parts.append(packed)
        run.clear()

    for i, field in enumerate(fields):
        if field.wire_width is not None:
            run.append(i)
            continue
        flush()
        parts.append(f"m{i}" if labels[i] not in computed else _encoded(i, field))
    flush()
    joined = parts[0] if len(parts) == 1 else f"b''.join(({', '.join(parts)},))"
    src("try:")
    for line in prepare:
        src(f"    {line}")
    src(f"    return {joined}")
    src("except Exception:")
    src("    pass")
    meta = tuple((field.label, field.marshaller, field.length_bits) for field in fields)
    values = ", ".join(f"v{i}" for i in range(len(fields)))
    src(f"return _reference_write({src.const(meta)}, ({values},), name)")


#: Per-schema artefacts (value-mode encoders, slot readers) one codec or
#: translator keeps before it starts over.
_MAX_LAYOUTS = 64


def _binary_encoder(
    spec: MDLSpec,
    types: TypeRegistry,
    functions: FieldFunctionRegistry,
    schema: Optional[MessageSchema] = None,
) -> _Source:
    """Generate the spec's composer: one straight-line branch per message.

    The composer proper takes a message.  A value-mode message goes to
    the encoder generated for its schema (``encode(name, values)``, slot
    reads by position), made by this function on the schema's first
    compose and kept per schema.
    """
    if spec.header is None:
        raise _NotCompilable
    src = _Source(
        "encode(message)" if schema is None else "encode(name, values)",
        f"{spec.protocol} composer",
        P=spec.protocol,
        PF=PrimitiveField,
        ComposeError=ComposeError,
        _present=_present,
        _text=_text,
        _bytes=_bytes,
        _fqdn_wire=_fqdn_wire,
        _fixed=_fixed,
        _reference_write=_reference_write,
    )
    if schema is None:
        layouts: Dict[MessageSchema, Callable] = {}

        def encoder_for(layout: MessageSchema) -> Callable:
            if len(layouts) >= _MAX_LAYOUTS:
                layouts.clear()
            encoder = _binary_encoder(spec, types, functions, layout).compile()
            layouts[layout] = encoder
            return encoder

        src.names.update(E=layouts, _encoder_for=encoder_for)
        src("values = message._values")
        src("if values is not None:")
        src("    layout = message._schema")
        src("    encode = E.get(layout) or _encoder_for(layout)")
        src("    return encode(message.name, values)")
        src("name = message.name")
        src("get = message.field_index().get")
    for message in spec.messages:
        src(f"if name == {message.name!r}:")
        src.depth += 1
        _emit_encode(
            src, spec, types, functions, message, None if schema is None else schema.slots
        )
        src.depth -= 1
    src("raise ComposeError(f\"MDL for {P} has no message '{name}'\")")
    return src


class CompiledBinaryComposer(MessageComposer):
    """Straight-line composer generated from a binary MDL specification.

    Runs the interpreted pipeline — resolve, measure, field functions,
    length synchronisation, totals, write — with every per-field decision
    made at compile time: the built-in ``f-length`` and ``f-total-length``
    computed inline, each fixed run packed by one ``struct`` call, and the
    interpreter's own write pass as the cold path for a value the fast
    path cannot pack, so every error keeps its class and text.  A spec
    using any other field function is composed by the interpreter.
    """

    compose = _Generated()

    def __init__(
        self,
        spec: MDLSpec,
        types: Optional[TypeRegistry] = None,
        functions: Optional[FieldFunctionRegistry] = None,
    ) -> None:
        super().__init__(spec, types, functions)
        self._source = _binary_encoder(spec, self.types, self.functions)


# ----------------------------------------------------------------------
# text compilation
# ----------------------------------------------------------------------
def _build_message(
    name: str,
    mandatory: List[str],
    protocol: str,
    ordered: List[Tuple[str, Any]],
    type_names: Dict[str, str],
) -> AbstractMessage:
    """Build the parsed message, fields and label index, in one pass.

    The local index gives ``AbstractMessage.set``'s create-or-overwrite
    semantics without a call per field, and the message is then built
    around it (:meth:`AbstractMessage.adopt`), so nothing downstream
    rebuilds it.  Spec labels are dot-free by compile gate, but text
    directive labels come off the wire — the first dotted label switches
    to ``set`` for the remainder, preserving its structured-path handling.
    """
    fields: List[PrimitiveField] = []
    index: Dict[str, PrimitiveField] = {}
    append = fields.append
    get_type = type_names.get
    message: Optional[AbstractMessage] = None
    for label, value in ordered:
        if message is None:
            existing = index.get(label)
            if existing is not None:
                existing.value = value
                existing.type_name = get_type(label, "String")
                continue
            if "." not in label:
                existing = PrimitiveField(label, get_type(label, "String"), None, value)
                index[label] = existing
                append(existing)
                continue
            message = AbstractMessage.adopt(name, fields, index, mandatory, protocol)
        message.set(label, value, type_name=get_type(label, "String"))
    if message is None:
        message = AbstractMessage.adopt(name, fields, index, mandatory, protocol)
    return message


def _make_converter(from_text: Callable[[str], Any]) -> Callable[[str], Any]:
    def convert(token: str) -> Any:
        try:
            return from_text(token)
        except Exception:
            return token

    return convert


class _TextPlan:
    """Shared precomputation for the compiled text parser and composer."""

    __slots__ = (
        "protocol",
        "header_tokens",
        "header_parts",
        "header_body_label",
        "directive",
        "converters",
        "default_converter",
        "renderers",
        "default_renderer",
        "selector",
        "type_names",
        "message_plans",
        "parseable",
    )

    def __init__(self, spec: MDLSpec, types: TypeRegistry) -> None:
        if spec.header is None:
            raise _NotCompilable
        # Dotted labels address structured sub-fields in the message API;
        # the flat fast paths below would change semantics for them.
        for field_spec in spec.header.fields:
            if "." in field_spec.label:
                raise _NotCompilable
        for message_spec in spec.messages:
            for field_spec in message_spec.fields:
                if "." in field_spec.label:
                    raise _NotCompilable
        self.protocol = spec.protocol
        self.type_names = _type_names(spec)
        # Converters/renderers for every declared label, plus the defaults
        # applied to undeclared labels (``type_of`` falls back to String).
        self.converters: Dict[str, Optional[Callable[[str], Any]]] = {}
        self.renderers: Dict[str, Callable[[Any], str]] = {}
        self.default_converter = self._converter_for(types, "String")
        self.default_renderer = self._renderer_for(types, "String")
        for label, type_name in self.type_names.items():
            self.converters[label] = self._converter_for(types, type_name)
            self.renderers[label] = self._renderer_for(types, type_name)

        self.header_tokens: List[Tuple[str, str, Optional[Callable[[str], Any]]]] = []
        self.header_parts: List[Tuple[str, str]] = []
        self.header_body_label: Optional[str] = None
        self.parseable = True
        for field_spec in spec.header.fields:
            if field_spec.size.kind is SizeKind.REMAINDER:
                self.header_body_label = field_spec.label
                continue
            delimiter = "".join(
                chr(code) for code in field_spec.size.delimiter_codes
            )
            self.header_parts.append((field_spec.label, delimiter))
            if field_spec.size.kind is not SizeKind.DELIMITER:
                # The interpreted parser raises on such headers; composing
                # still works — keep the composer, fall back for parsing.
                self.parseable = False
                continue
            self.header_tokens.append(
                (
                    field_spec.label,
                    delimiter,
                    self.converters.get(field_spec.label, self.default_converter),
                )
            )

        directive = spec.header.fields_directive
        self.directive = (
            (directive.outer_delimiter, directive.inner_separator)
            if directive is not None
            else None
        )

        plans: Dict[str, _MessagePlan] = {}
        self.message_plans: Dict[str, Tuple] = {}
        for message in spec.messages:
            plan = _MessagePlan(message.name, message.mandatory_fields)
            plan.body_label = next(
                (
                    f.label
                    for f in message.fields
                    if f.size.kind is SizeKind.REMAINDER
                ),
                None,
            )
            plans[message.name] = plan
            declared = [
                f.label for f in message.fields if f.size.kind is not SizeKind.REMAINDER
            ]
            rule = message.rule
            self.message_plans[message.name] = (
                rule.field_label if rule is not None else None,
                rule.value if rule is not None else None,
                declared,
                frozenset(declared),
                plan.body_label,
            )
        self.selector = _Selector(spec, plans)

    @staticmethod
    def _converter_for(
        types: TypeRegistry, type_name: str
    ) -> Optional[Callable[[str], Any]]:
        """``None`` means "keep the raw token" (the identity fast path)."""
        if not types.has(type_name):
            return None
        marshaller = types.get(type_name)
        if type(marshaller) is StringMarshaller:
            return None  # StringMarshaller.from_text is the identity.
        return _make_converter(marshaller.from_text)

    @staticmethod
    def _renderer_for(types: TypeRegistry, type_name: str) -> Callable[[Any], str]:
        if types.has(type_name):
            return types.get(type_name).to_text
        return lambda value: "" if value is None else str(value)


class CompiledTextParser(MessageParser):
    """Slice/split parser compiled from a text MDL specification."""

    def __init__(
        self,
        spec: MDLSpec,
        types: Optional[TypeRegistry] = None,
        functions: Optional[FieldFunctionRegistry] = None,
        _plan: Optional[_TextPlan] = None,
    ) -> None:
        super().__init__(spec, types, functions)
        plan = _plan if _plan is not None else _TextPlan(spec, self.types)
        if not plan.parseable:
            raise _NotCompilable
        self._plan = plan

    def parse(self, data: bytes) -> AbstractMessage:
        plan = self._plan
        try:
            text = data.decode(_ENCODING)
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{plan.protocol} message is not valid {_ENCODING} text"
            ) from exc

        position = 0
        values: Dict[str, Any] = {}
        ordered: List[Tuple[str, Any]] = []
        find = text.find
        for label, delimiter, convert in plan.header_tokens:
            index = find(delimiter, position)
            if index < 0:
                raise ParseError(
                    f"delimiter {delimiter!r} for field '{label}' not found in "
                    f"{plan.protocol} message"
                )
            token = text[position:index]
            position = index + len(delimiter)
            value = convert(token) if convert is not None else token
            values[label] = value
            ordered.append((label, value))

        if plan.directive is not None:
            outer, separator = plan.directive
            lines = text[position:].split(outer)
            consumed_lines = 0
            converters_get = plan.converters.get
            default_converter = plan.default_converter
            for line in lines:
                consumed_lines += 1
                if line == "":
                    break
                if separator not in line:
                    continue
                label, _, raw_value = line.partition(separator)
                label = label.strip()
                token = raw_value.strip()
                convert = converters_get(label, default_converter)
                value = convert(token) if convert is not None else token
                values[label] = value
                ordered.append((label, value))
            body_text = outer.join(lines[consumed_lines:])
        else:
            body_text = text[position:]

        try:
            message_plan = plan.selector.select(values)
        except Exception as exc:
            raise ParseError(str(exc)) from exc

        body_label = plan.header_body_label
        if body_label is None:
            body_label = message_plan.body_label
        if body_label is not None:
            values[body_label] = body_text
            ordered.append((body_label, body_text))

        return _build_message(
            message_plan.name,
            message_plan.mandatory,
            plan.protocol,
            ordered,
            plan.type_names,
        )


class CompiledTextComposer(MessageComposer):
    """String-join composer compiled from a text MDL specification."""

    def __init__(
        self,
        spec: MDLSpec,
        types: Optional[TypeRegistry] = None,
        functions: Optional[FieldFunctionRegistry] = None,
        _plan: Optional[_TextPlan] = None,
    ) -> None:
        super().__init__(spec, types, functions)
        self._plan = _plan if _plan is not None else _TextPlan(spec, self.types)

    def compose(self, message: AbstractMessage) -> bytes:
        plan = self._plan
        entry = plan.message_plans.get(message.name)
        if entry is None:
            raise ComposeError(
                f"MDL for {plan.protocol} has no message '{message.name}'"
            )
        rule_field, rule_value, declared, declared_set, body_label = entry
        renderers_get = plan.renderers.get
        default_renderer = plan.default_renderer

        parts: List[str] = []
        consumed_labels: set = set()
        present_get = message.field_index().get
        for label, delimiter in plan.header_parts:
            present = present_get(label)
            if present is None:
                value = rule_value if label == rule_field else ""
            else:
                value = present if isinstance(present, StructuredField) else present.value
            parts.append(renderers_get(label, default_renderer)(value))
            parts.append(delimiter)
            consumed_labels.add(label)

        body_value = ""
        if plan.header_body_label is not None:
            body_label = plan.header_body_label
        if body_label is not None:
            consumed_labels.add(body_label)
            present = present_get(body_label)
            if present is None:
                value = ""
            else:
                value = present if isinstance(present, StructuredField) else present.value
            body_value = renderers_get(body_label, default_renderer)(value)

        if plan.directive is not None:
            outer, separator = plan.directive
            emitted: set = set()
            # A dotted top-level label is invisible to ``message.has``
            # (it reads as a structured path), so the interpreted
            # composer skips such extras — match that.
            extra = [
                field.label
                for field in message.fields
                if isinstance(field, PrimitiveField)
                and field.label not in consumed_labels
                and field.label not in declared_set
                and "." not in field.label
            ]
            for label in declared + extra:
                if label in emitted or label in consumed_labels:
                    continue
                present = present_get(label)
                if present is None:
                    continue
                value = present if isinstance(present, StructuredField) else present.value
                parts.append(
                    f"{label}{separator} "
                    f"{renderers_get(label, default_renderer)(value)}{outer}"
                )
                emitted.add(label)
            parts.append(outer)

        if body_value:
            parts.append(body_value)
        return "".join(parts).encode(_ENCODING)


# ----------------------------------------------------------------------
# first-bytes discriminator
# ----------------------------------------------------------------------
class SpecDiscriminator:
    """A sound first-bytes probe for one protocol specification.

    :meth:`probe` inspects only the bytes that carry the spec's message
    ``<Rule>`` value and answers in O(1):

    * :data:`PROBE_MATCH` — the rule bytes name a known message; the full
      parse is worth attempting (it may still fail on later fields);
    * :data:`PROBE_REJECT` — **sound**: the interpreted parser is
      guaranteed to raise :class:`ParseError` on these bytes (the message
      is too short for the rule field, or the rule value matches no
      message and the spec has no rule-less fallback).

    Build one with :func:`discriminator_for`; specs whose rules the
    compiler cannot prove sound (a rule field behind variable-length
    fields, a rule-less fallback message, non-integer binary rule values)
    get no discriminator and classify falls back to trial parsing.
    """

    __slots__ = ("probe",)

    def __init__(self, probe: Callable[[bytes], int]) -> None:
        self.probe = probe


def _binary_discriminator(spec: MDLSpec, types: TypeRegistry) -> Optional[SpecDiscriminator]:
    if spec.header is None or not spec.messages:
        return None
    rules = [message.rule for message in spec.messages]
    if any(rule is None for rule in rules):
        return None  # A rule-less fallback accepts anything: never reject.
    rule_fields = {rule.field_label for rule in rules}
    if len(rule_fields) != 1:
        return None
    rule_field = next(iter(rule_fields))
    offset = 0
    width = None
    for field_spec in spec.header.fields:
        size = field_spec.size
        if size.kind is not SizeKind.FIXED_BITS or size.bits % 8 != 0:
            return None
        if field_spec.label == rule_field:
            try:
                marshaller = types.get(spec.type_of(rule_field))
            except Exception:
                return None
            if type(marshaller) is not IntegerMarshaller:
                return None
            width = size.bits // 8
            break
        offset += size.bits // 8
    if width is None:
        return None  # The rule field is not a header field.
    value_set = set()
    for rule in rules:
        try:
            value = int(rule.value)
        except ValueError:
            return None
        if str(value) != rule.value:
            return None  # ``str(decoded) == rule.value`` would never hold.
        value_set.add(value)
    end = offset + width

    def probe(data: bytes) -> int:
        if len(data) < end:
            return PROBE_REJECT
        return (
            PROBE_MATCH
            if int.from_bytes(data[offset:end], "big") in value_set
            else PROBE_REJECT
        )

    return SpecDiscriminator(probe)


def _text_discriminator(spec: MDLSpec, types: TypeRegistry) -> Optional[SpecDiscriminator]:
    if spec.header is None or not spec.header.fields or not spec.messages:
        return None
    first = spec.header.fields[0]
    if first.size.kind is not SizeKind.DELIMITER:
        return None
    if types.has(spec.type_of(first.label)):
        if type(types.get(spec.type_of(first.label))) is not StringMarshaller:
            return None  # A converting type breaks token == rule equality.
    delimiter = "".join(chr(code) for code in first.size.delimiter_codes)
    rules = [message.rule for message in spec.messages]
    if any(rule is None for rule in rules):
        return None
    prefixes: Dict[int, set] = {}
    for rule in rules:
        if rule.field_label != first.label or delimiter in rule.value:
            return None
        prefix = (rule.value + delimiter).encode(_ENCODING)
        prefixes.setdefault(len(prefix), set()).add(prefix)
    tables = sorted(prefixes.items())

    def probe(data: bytes) -> int:
        for length, table in tables:
            if data[:length] in table:
                return PROBE_MATCH
        return PROBE_REJECT

    return SpecDiscriminator(probe)


def _build_discriminator(spec: MDLSpec, types: TypeRegistry) -> Optional[SpecDiscriminator]:
    if spec.kind is MDLKind.BINARY:
        return _binary_discriminator(spec, types)
    if spec.kind is MDLKind.TEXT:
        return _text_discriminator(spec, types)
    return None


# ----------------------------------------------------------------------
# compilation entry points and the per-spec cache
# ----------------------------------------------------------------------
class CompiledArtifacts:
    """Everything compiled for one spec under the default registries."""

    __slots__ = ("parser", "composer", "discriminator")

    def __init__(
        self,
        parser: MessageParser,
        composer: MessageComposer,
        discriminator: Optional[SpecDiscriminator],
    ) -> None:
        self.parser = parser
        self.composer = composer
        self.discriminator = discriminator


def _build_parser(
    spec: MDLSpec, types: Optional[TypeRegistry], functions: Optional[FieldFunctionRegistry]
) -> MessageParser:
    try:
        if spec.kind is MDLKind.BINARY:
            return CompiledBinaryParser(spec, types, functions)
        if spec.kind is MDLKind.TEXT:
            return CompiledTextParser(spec, types, functions)
    except _NotCompilable:
        pass
    if spec.kind is MDLKind.BINARY:
        return BinaryMessageParser(spec, types, functions)
    if spec.kind is MDLKind.TEXT:
        return TextMessageParser(spec, types, functions)
    raise MDLSpecificationError(f"unknown MDL dialect: {spec.kind!r}")


def _build_composer(
    spec: MDLSpec, types: Optional[TypeRegistry], functions: Optional[FieldFunctionRegistry]
) -> MessageComposer:
    try:
        if spec.kind is MDLKind.BINARY:
            return CompiledBinaryComposer(spec, types, functions)
        if spec.kind is MDLKind.TEXT:
            return CompiledTextComposer(spec, types, functions)
    except _NotCompilable:
        pass
    if spec.kind is MDLKind.BINARY:
        return BinaryMessageComposer(spec, types, functions)
    if spec.kind is MDLKind.TEXT:
        return TextMessageComposer(spec, types, functions)
    raise MDLSpecificationError(f"unknown MDL dialect: {spec.kind!r}")


def compiled_artifacts(spec: MDLSpec) -> CompiledArtifacts:
    """The compiled codec pair + discriminator for ``spec``, cached on it.

    Built against the default type and function registries and cached on
    the specification object (see :meth:`MDLSpec.invalidate_codecs`): all
    engines sharing a read-only spec — every worker of a sharded runtime —
    share one compiled artifact.  The parser and composer are stateless,
    so sharing instances is safe.
    """
    cache = getattr(spec, "_codec_cache", None)
    if cache is not None:
        return cache
    artifacts = CompiledArtifacts(
        _build_parser(spec, None, None),
        _build_composer(spec, None, None),
        _build_discriminator(spec, default_registry()),
    )
    spec._codec_cache = artifacts
    return artifacts


def compile_parser(
    spec: MDLSpec,
    types: Optional[TypeRegistry] = None,
    functions: Optional[FieldFunctionRegistry] = None,
) -> MessageParser:
    """A compiled parser for ``spec`` (interpreted fallback when needed).

    With default registries the shared per-spec cache is used; explicit
    registries compile fresh so plug-in marshallers are honoured.
    """
    if types is None and functions is None:
        return compiled_artifacts(spec).parser
    return _build_parser(spec, types, functions)


def compile_composer(
    spec: MDLSpec,
    types: Optional[TypeRegistry] = None,
    functions: Optional[FieldFunctionRegistry] = None,
) -> MessageComposer:
    """A compiled composer for ``spec`` (interpreted fallback when needed)."""
    if types is None and functions is None:
        return compiled_artifacts(spec).composer
    return _build_composer(spec, types, functions)


def discriminator_for(spec: MDLSpec) -> Optional[SpecDiscriminator]:
    """The spec's first-bytes discriminator, or ``None`` when unsound."""
    return compiled_artifacts(spec).discriminator
