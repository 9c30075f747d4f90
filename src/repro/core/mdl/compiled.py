"""Deploy-time compilation of MDL specifications into fast codecs.

The generic interpreters of :mod:`repro.core.mdl.binary` and
:mod:`repro.core.mdl.text` pay for the MDL's genericity on every datagram:
binary parsing walks a bit-list :class:`~repro.core.typesys.BitBuffer` one
bit at a time, and text parsing re-derives delimiters and type lookups per
field.  This module lowers a specification *once* into:

* a **compiled binary codec** — contiguous fixed byte-aligned fields become
  one :mod:`struct` unpack per run, length-prefixed and self-describing
  fields become direct byte-slice decoders, and composing writes into a
  ``bytearray`` instead of a bit list;
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

from ..errors import ComposeError, MarshallingError, MDLSpecificationError, ParseError
from ..message import AbstractMessage, PrimitiveField, StructuredField
from ..typesys import (
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
from .functions import FieldFunctionContext, FieldFunctionRegistry
from .spec import FieldSpec, MDLKind, MDLSpec, SizeKind
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
# shared: message selection plans
# ----------------------------------------------------------------------
class _MessagePlan:
    """Per-message artifacts shared by the binary and text parse plans."""

    __slots__ = ("name", "mandatory", "ops", "body_label")

    def __init__(self, name: str, mandatory: List[str]) -> None:
        self.name = name
        self.mandatory = mandatory
        self.ops: List[Callable] = []
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
# binary parse compilation
# ----------------------------------------------------------------------
_STRUCT_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def _decode_underrun(label: str, protocol: str, need_bits: int, have_bits: int) -> ParseError:
    return ParseError(
        f"cannot decode field '{label}' of {protocol}: "
        f"buffer underrun: need {need_bits} bits, have {have_bits}"
    )


#: One field of a struct run: label, byte width, value post-processor
#: (``None`` when the struct element is already final), and whether the
#: interpreter reads it as one ``read_uint`` (Integer/Boolean — the
#: underrun error names the full width) or byte-at-a-time
#: (String/Bytes — ``read_bytes`` always fails needing 8 bits with 0 left
#: on byte-aligned input).
_RunField = Tuple[str, int, Optional[Callable[[Any], Any]], bool]


def _underrun_for(entry: _RunField, protocol: str, data: bytes, cursor: int) -> ParseError:
    label, width, _, uint_read = entry
    if uint_read:
        return _decode_underrun(label, protocol, width * 8, (len(data) - cursor) * 8)
    return _decode_underrun(label, protocol, 8, 0)


def _make_run_op(fields: List[_RunField], protocol: str) -> Callable:
    """One ``struct`` unpack for a contiguous run of fixed byte-aligned fields."""
    fmt = ">"
    plan: List[Tuple[str, Optional[Callable[[Any], Any]]]] = []
    for label, width, post, _ in fields:
        # ``read_uint``-style fields of native widths come straight out of
        # struct as integers; everything else is an ``Ns`` byte slice with
        # the field's own post-processor (Boolean keeps ``bool`` via post).
        if post is _int_from_bytes and width * 8 in _STRUCT_CODES:
            fmt += _STRUCT_CODES[width * 8]
            plan.append((label, None))
        elif post is _bool_from_bytes and width * 8 in _STRUCT_CODES:
            fmt += _STRUCT_CODES[width * 8]
            plan.append((label, bool))
        else:
            fmt += f"{width}s"
            plan.append((label, post))
    packer = struct.Struct(fmt)
    size = packer.size
    unpack_from = packer.unpack_from

    def op(data: bytes, pos: int, values: Dict[str, Any], ordered: List) -> int:
        if pos + size > len(data):
            # Attribute the underrun to the first field that does not fit,
            # as the field-at-a-time interpreter would.
            cursor = pos
            for entry in fields:
                if cursor + entry[1] > len(data):
                    raise _underrun_for(entry, protocol, data, cursor)
                cursor += entry[1]
            raise _underrun_for(fields[0], protocol, data, pos)
        chunks = unpack_from(data, pos)
        for (label, post), chunk in zip(plan, chunks):
            if post is not None:
                try:
                    chunk = post(chunk)
                except Exception as exc:
                    raise ParseError(
                        f"cannot decode field '{label}' of {protocol}: {exc}"
                    ) from exc
            values[label] = chunk
            ordered.append((label, chunk))
        return pos + size

    return op


def _make_ref_op(
    label: str,
    reference: str,
    post: Optional[Callable[[Any], Any]],
    uint_read: bool,
    protocol: str,
) -> Callable:
    """Decode a field whose byte length is the value of an earlier field."""

    def op(data: bytes, pos: int, values: Dict[str, Any], ordered: List) -> int:
        reference_value = values.get(reference)
        if reference_value is None:
            raise ParseError(
                f"field '{label}' needs length field '{reference}' "
                "which has not been parsed yet"
            )
        try:
            nbytes = int(reference_value)
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"length field '{reference}' holds non-numeric value "
                f"{reference_value!r}"
            ) from exc
        if nbytes < 0:
            # ``read_uint`` rejects negative widths; ``read_bytes`` treats
            # them as an empty read — mirror both interpreter behaviours.
            if uint_read:
                raise ParseError(
                    f"cannot decode field '{label}' of {protocol}: "
                    "cannot read a negative number of bits"
                )
            nbytes = 0
        end = pos + nbytes
        if end > len(data):
            if uint_read:
                raise _decode_underrun(
                    label, protocol, nbytes * 8, (len(data) - pos) * 8
                )
            raise _decode_underrun(label, protocol, 8, 0)
        chunk = data[pos:end]
        if post is not None:
            try:
                chunk = post(chunk)
            except Exception as exc:
                raise ParseError(
                    f"cannot decode field '{label}' of {protocol}: {exc}"
                ) from exc
        values[label] = chunk
        ordered.append((label, chunk))
        return end

    return op


def _make_rest_op(
    label: str, post: Optional[Callable[[Any], Any]], protocol: str
) -> Callable:
    """Decode a remainder-sized String/Bytes field (all bytes left)."""

    def op(data: bytes, pos: int, values: Dict[str, Any], ordered: List) -> int:
        chunk = data[pos:]
        if post is not None:
            try:
                chunk = post(chunk)
            except Exception as exc:
                raise ParseError(
                    f"cannot decode field '{label}' of {protocol}: {exc}"
                ) from exc
        values[label] = chunk
        ordered.append((label, chunk))
        return len(data)

    return op


def _make_fqdn_op(label: str, protocol: str) -> Callable:
    """Decode a DNS-label-encoded name (self-describing length)."""

    def op(data: bytes, pos: int, values: Dict[str, Any], ordered: List) -> int:
        size = len(data)
        labels: List[str] = []
        while True:
            if pos >= size:
                raise _decode_underrun(label, protocol, 8, 0)
            length = data[pos]
            pos += 1
            if length == 0:
                break
            if pos + length > size:
                # ``read_bytes`` fails on the first missing byte: on
                # byte-aligned input the interpreter always reports needing
                # 8 bits with 0 left.
                raise _decode_underrun(label, protocol, 8, 0)
            try:
                labels.append(data[pos : pos + length].decode(_ENCODING))
            except Exception as exc:
                raise ParseError(
                    f"cannot decode field '{label}' of {protocol}: {exc}"
                ) from exc
            pos += length
        value = ".".join(labels)
        values[label] = value
        ordered.append((label, value))
        return pos

    return op


def _int_from_bytes(chunk: bytes) -> int:
    return int.from_bytes(chunk, "big")


def _bool_from_bytes(chunk: bytes) -> bool:
    return bool(int.from_bytes(chunk, "big"))


def _make_str_post(encoding: str) -> Callable[[bytes], str]:
    def post(chunk: bytes) -> str:
        return chunk.rstrip(b"\x00").decode(encoding)

    return post


def _compile_binary_ops(
    spec: MDLSpec,
    types: TypeRegistry,
    fields: List[FieldSpec],
    seen: List[str],
    ops: List[Callable],
) -> bool:
    """Lower one field list to ops (appending to ``ops``/``seen``).

    Returns ``False`` when any field cannot be compiled exactly, in which
    case the caller abandons compilation for the whole spec.
    """
    protocol = spec.protocol
    run: List[_RunField] = []

    def flush() -> None:
        if run:
            ops.append(_make_run_op(list(run), protocol))
            run.clear()

    for field_spec in fields:
        label = field_spec.label
        if "." in label:
            # A dotted label addresses a structured sub-field in
            # ``AbstractMessage.set``; the fast flat-field build below
            # would change semantics, so leave such specs interpreted.
            return False
        size = field_spec.size
        try:
            marshaller = types.get(spec.type_of(label))
        except Exception:
            return False
        kind = type(marshaller)
        if kind is IntegerMarshaller:
            post: Optional[Callable[[Any], Any]] = _int_from_bytes
            default_bits: Optional[int] = marshaller.default_bits
            uint_read = True
        elif kind is StringMarshaller:
            post = _make_str_post(marshaller.encoding)
            default_bits = None
            uint_read = False
        elif kind is BytesMarshaller:
            post = None
            default_bits = None
            uint_read = False
        elif kind is BooleanMarshaller:
            post = _bool_from_bytes
            default_bits = 1
            uint_read = True
        elif kind is FQDNMarshaller:
            post = None
            default_bits = None
            uint_read = False
        else:
            return False

        if kind is FQDNMarshaller:
            # The FQDN wire form carries its own length; the interpreted
            # marshaller ignores ``length_bits`` entirely, so only sizes
            # that the interpreter resolves to ``None`` are equivalent.
            if size.kind not in (SizeKind.SELF_DESCRIBING, SizeKind.REMAINDER):
                return False
            flush()
            ops.append(_make_fqdn_op(label, protocol))
        elif size.kind is SizeKind.FIXED_BITS:
            if size.bits % 8 != 0:
                return False
            run.append((label, size.bits // 8, post, uint_read))
        elif size.kind is SizeKind.FIELD_REFERENCE:
            if size.reference not in seen:
                return False
            flush()
            ops.append(_make_ref_op(label, size.reference, post, uint_read, protocol))
        elif size.kind in (SizeKind.REMAINDER, SizeKind.SELF_DESCRIBING):
            # The interpreter hands the marshaller ``length_bits=None``:
            # Integer/Boolean then read their default width, String/Bytes
            # read the remainder.
            if default_bits is not None:
                if default_bits % 8 != 0:
                    return False
                run.append((label, default_bits // 8, post, uint_read))
            else:
                flush()
                ops.append(_make_rest_op(label, post, protocol))
        else:
            # Delimiter sizes are a text-MDL notion; the interpreter raises
            # on every parse — keep that behaviour via the fallback.
            return False
        seen.append(label)
    flush()
    return True


class _BinaryParsePlan:
    __slots__ = ("protocol", "header_ops", "selector", "type_names")

    def __init__(self, spec: MDLSpec, types: TypeRegistry) -> None:
        self.protocol = spec.protocol
        self.type_names = _type_names(spec)
        self.header_ops: List[Callable] = []
        plans: Dict[str, _MessagePlan] = {}
        if spec.header is None:
            raise _NotCompilable
        seen: List[str] = []
        if not _compile_binary_ops(spec, types, spec.header.fields, seen, self.header_ops):
            raise _NotCompilable
        for message in spec.messages:
            plan = _MessagePlan(message.name, message.mandatory_fields)
            if not _compile_binary_ops(
                spec, types, message.fields, list(seen), plan.ops
            ):
                raise _NotCompilable
            plans[message.name] = plan
        self.selector = _Selector(spec, plans)


class _NotCompilable(Exception):
    """Internal: the spec cannot be lowered exactly; use the interpreter."""


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


class CompiledBinaryParser(MessageParser):
    """Byte-slice/struct parser compiled from a binary MDL specification."""

    def __init__(
        self,
        spec: MDLSpec,
        types: Optional[TypeRegistry] = None,
        functions: Optional[FieldFunctionRegistry] = None,
        _plan: Optional[_BinaryParsePlan] = None,
    ) -> None:
        super().__init__(spec, types, functions)
        self._plan = _plan if _plan is not None else _BinaryParsePlan(spec, self.types)

    def parse(self, data: bytes) -> AbstractMessage:
        plan = self._plan
        values: Dict[str, Any] = {}
        ordered: List[Tuple[str, Any]] = []
        try:
            pos = 0
            for op in plan.header_ops:
                pos = op(data, pos, values, ordered)
            message_plan = plan.selector.select(values)
            for op in message_plan.ops:
                pos = op(data, pos, values, ordered)
        except ParseError:
            raise
        except Exception as exc:
            raise ParseError(f"failed to parse {plan.protocol} message: {exc}") from exc
        return _build_message(
            message_plan.name,
            message_plan.mandatory,
            plan.protocol,
            ordered,
            plan.type_names,
        )


# ----------------------------------------------------------------------
# binary compose compilation
# ----------------------------------------------------------------------
_NO_RULE = object()


def _make_int_writer(nbytes: int) -> Callable[[Any, bytearray], None]:
    nbits = nbytes * 8

    def write(value: Any, out: bytearray) -> None:
        if value is None:
            value = 0
        try:
            ivalue = int(value)
        except (TypeError, ValueError) as exc:
            raise MarshallingError(f"cannot marshal {value!r} as Integer") from exc
        if ivalue < 0:
            raise MarshallingError(f"cannot write negative value {ivalue} as unsigned")
        if nbits < ivalue.bit_length():
            raise MarshallingError(f"value {ivalue} does not fit in {nbits} bits")
        out += ivalue.to_bytes(nbytes, "big")

    return write


def _make_bool_writer(nbytes: int) -> Callable[[Any, bytearray], None]:
    def write(value: Any, out: bytearray) -> None:
        out += (1 if value else 0).to_bytes(nbytes, "big")

    return write


def _make_str_writer(
    encoding: str, nbytes: Optional[int]
) -> Callable[[Any, bytearray], None]:
    def write(value: Any, out: bytearray) -> None:
        text = "" if value is None else str(value)
        data = text.encode(encoding)
        if nbytes is not None:
            if len(data) > nbytes:
                raise MarshallingError(
                    f"string {text!r} is {len(data)} bytes; field allows {nbytes}"
                )
            data = data.ljust(nbytes, b"\x00")
        out += data

    return write


def _make_bytes_writer(nbytes: Optional[int]) -> Callable[[Any, bytearray], None]:
    def write(value: Any, out: bytearray) -> None:
        data = bytes(value) if value is not None else b""
        if nbytes is not None:
            if len(data) > nbytes:
                raise MarshallingError(
                    f"byte field is {len(data)} bytes; field allows {nbytes}"
                )
            data = data.ljust(nbytes, b"\x00")
        out += data

    return write


def _fqdn_writer(value: Any, out: bytearray) -> None:
    name = ("" if value is None else str(value)).strip(".")
    if name:
        for label in name.split("."):
            data = label.encode(_ENCODING)
            if len(data) > 63:
                raise MarshallingError(f"DNS label too long: {label!r}")
            out.append(len(data))
            out += data
    out.append(0)


class _ComposeField:
    """Everything the compiled composer needs about one field."""

    __slots__ = ("label", "fixed_bits", "measure", "default", "rule_value", "write")

    def __init__(
        self,
        label: str,
        fixed_bits: Optional[int],
        measure: Callable[[Any], int],
        default: Any,
        rule_value: Any,
        write: Callable[[Any, bytearray], None],
    ) -> None:
        self.label = label
        self.fixed_bits = fixed_bits
        self.measure = measure
        self.default = default
        self.rule_value = rule_value
        self.write = write


class _BinaryComposePlan:
    __slots__ = ("protocol", "message_plans")

    def __init__(self, spec: MDLSpec, types: TypeRegistry) -> None:
        self.protocol = spec.protocol
        if spec.header is None:
            raise _NotCompilable
        self.message_plans: Dict[str, Tuple] = {}
        for message in spec.messages:
            all_fields = list(spec.header.fields) + list(message.fields)
            compiled: List[_ComposeField] = []
            functions: List[Tuple[str, str, tuple, bool]] = []
            sync: List[Tuple[str, str]] = []
            for field_spec in all_fields:
                compiled.append(self._compile_field(spec, types, message, field_spec))
                function = spec.function_of(field_spec.label)
                if function is not None:
                    functions.append(
                        (
                            field_spec.label,
                            function.name,
                            function.arguments,
                            function.name == "f-total-length",
                        )
                    )
                if (
                    field_spec.size.kind is SizeKind.FIELD_REFERENCE
                    and spec.function_of(field_spec.size.reference) is None
                ):
                    sync.append((field_spec.label, field_spec.size.reference))
            self.message_plans[message.name] = (compiled, functions, sync)

    @staticmethod
    def _compile_field(spec, types, message, field_spec) -> _ComposeField:
        label = field_spec.label
        if "." in label:
            # ``message.has``/``get`` treat a dotted label as a structured
            # path; the flat prefetch in ``compose`` would not.
            raise _NotCompilable
        size = field_spec.size
        try:
            marshaller = types.get(spec.type_of(label))
        except Exception:
            raise _NotCompilable from None
        kind = type(marshaller)
        fixed_bits = size.bits if size.kind is SizeKind.FIXED_BITS else None
        nbytes = None
        if fixed_bits is not None:
            if fixed_bits % 8 != 0 and kind is not FQDNMarshaller:
                raise _NotCompilable
            nbytes = fixed_bits // 8
        if kind is IntegerMarshaller:
            width = nbytes if nbytes is not None else marshaller.default_bits // 8
            if nbytes is None and marshaller.default_bits % 8 != 0:
                raise _NotCompilable
            write = _make_int_writer(width)
            default: Any = 0
        elif kind is StringMarshaller:
            write = _make_str_writer(marshaller.encoding, nbytes)
            default = ""
        elif kind is BytesMarshaller:
            write = _make_bytes_writer(nbytes)
            default = b""
        elif kind is BooleanMarshaller:
            if nbytes is None:
                # The default Boolean width is one bit: not byte-aligned.
                raise _NotCompilable
            write = _make_bool_writer(nbytes)
            default = False
        elif kind is FQDNMarshaller:
            # FQDN marshalling ignores the declared width (self-describing).
            write = _fqdn_writer
            default = ""
        else:
            raise _NotCompilable
        rule = message.rule
        if rule is not None and rule.field_label == label:
            try:
                rule_value: Any = marshaller.from_text(rule.value)
            except Exception:
                raise _NotCompilable from None
        else:
            rule_value = _NO_RULE
        return _ComposeField(
            label, fixed_bits, marshaller.wire_length_bits, default, rule_value, write
        )


class CompiledBinaryComposer(MessageComposer):
    """Bytearray composer compiled from a binary MDL specification.

    Runs the exact interpreted pipeline — resolve, measure, field
    functions, length-field synchronisation, two-pass totals, write — with
    every per-field decision (marshaller dispatch, rule constants, fixed
    widths) precomputed at compile time and byte-level writes instead of
    the bit-list buffer.
    """

    def __init__(
        self,
        spec: MDLSpec,
        types: Optional[TypeRegistry] = None,
        functions: Optional[FieldFunctionRegistry] = None,
        _plan: Optional[_BinaryComposePlan] = None,
    ) -> None:
        super().__init__(spec, types, functions)
        self._plan = _plan if _plan is not None else _BinaryComposePlan(spec, self.types)

    def compose(self, message: AbstractMessage) -> bytes:
        plan = self._plan
        entry = plan.message_plans.get(message.name)
        if entry is None:
            raise ComposeError(
                f"MDL for {plan.protocol} has no message '{message.name}'"
            )
        fields, function_list, sync = entry

        values: Dict[str, Any] = {}
        lengths: Dict[str, int] = {}
        present_get = message.field_index().get
        total_bits = 0
        for field in fields:
            label = field.label
            present = present_get(label)
            if present is not None:
                # As ``AbstractMessage.get``: a structured field is its own value.
                value = present if isinstance(present, StructuredField) else present.value
            elif field.rule_value is not _NO_RULE:
                value = field.rule_value
            else:
                value = field.default
            values[label] = value
            bits = field.fixed_bits
            if bits is None:
                bits = field.measure(value)
            lengths[label] = bits
            total_bits += bits

        # Functions and synchronisation rewrite values, never lengths, so
        # the total accumulated above is the interpreted pipeline's total.
        self._apply_functions(function_list, values, lengths, None)
        self._synchronise(sync, values, lengths)
        self._apply_functions(function_list, values, lengths, total_bits)

        out = bytearray()
        for field in fields:
            try:
                field.write(values[field.label], out)
            except ComposeError:
                raise
            except Exception as exc:
                raise ComposeError(
                    f"cannot encode field '{field.label}' of message "
                    f"'{message.name}': {exc}"
                ) from exc
        return bytes(out)

    def _apply_functions(self, function_list, values, lengths, total_bits) -> None:
        if not function_list:
            return
        context = FieldFunctionContext(values, lengths, total_bits)
        evaluate = self.functions.evaluate
        for label, name, arguments, is_total in function_list:
            if is_total and total_bits is None:
                continue
            values[label] = evaluate(name, context, arguments)

    @staticmethod
    def _synchronise(sync, values, lengths) -> None:
        written: Dict[str, str] = {}
        for label, reference in sync:
            bits = lengths[label]
            if bits % 8 != 0:
                raise ComposeError(
                    f"field '{label}' marshals to {bits} bits, which is "
                    f"not byte-aligned; its length field '{reference}' counts bytes"
                )
            if reference in written:
                raise ComposeError(
                    f"length field '{reference}' is referenced by both "
                    f"'{written[reference]}' and '{label}'; a shared "
                    "length prefix is ambiguous"
                )
            written[reference] = label
            values[reference] = bits // 8


# ----------------------------------------------------------------------
# text compilation
# ----------------------------------------------------------------------
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
