"""Abstract messages: the protocol-independent message representation.

Section III-A of the paper defines an *abstract message* as a set of fields,
either primitive or structured:

* a **primitive field** has a *label* naming the field, a *type* describing
  the data content, a *length* in bits, and the *value* itself;
* a **structured field** groups several primitive (or structured) fields
  under one label — e.g. a ``URL`` field made of protocol, address, port and
  resource location.

Abstract messages are the interface between the Starlink framework and the
underlying network messages: generic parsers produce them from received
bytes, translation logic reads and writes their fields, and generic
composers serialise them back to bytes.

The paper notes ``msg.field`` as the operation selecting a field from a
message; here that is :meth:`AbstractMessage.get` /
:meth:`AbstractMessage.__getitem__`, and dotted paths (``URL.port``) reach
into structured fields (see :mod:`repro.core.fieldpath` for the richer
XPath-equivalent used by XML translation logic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import FieldNotFoundError, MessageError

__all__ = [
    "PrimitiveField",
    "StructuredField",
    "Field",
    "AbstractMessage",
    "MessageSchema",
    "ABSENT",
]


@dataclass(slots=True)
class PrimitiveField:
    """A single labelled value carried by an abstract message.

    Parameters
    ----------
    label:
        The name of the field (e.g. ``"XID"`` or ``"ServiceType"``).
    type_name:
        The name of the field type as declared in the MDL ``<Types>``
        section (e.g. ``"Integer"``, ``"String"``, ``"FQDN"``).
    length_bits:
        The length of the field on the wire, in bits.  ``None`` means the
        length is variable or determined by another field / delimiter.
    value:
        The decoded content of the field.  Its Python type is whatever the
        marshaller for ``type_name`` produces (``int`` for ``Integer``,
        ``str`` for ``String``...).
    """

    label: str
    type_name: str = "String"
    length_bits: Optional[int] = None
    value: Any = None

    @property
    def is_primitive(self) -> bool:
        return True

    @property
    def is_structured(self) -> bool:
        return False

    def copy(self) -> "PrimitiveField":
        """Return an independent copy of this field."""
        return PrimitiveField(self.label, self.type_name, self.length_bits, self.value)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.label}={self.value!r}:{self.type_name}"


@dataclass
class StructuredField:
    """A field composed of several sub-fields.

    The paper's example is a ``URL`` field composed of the primitive fields
    ``protocol``, ``address``, ``port`` and ``resource``.
    """

    label: str
    fields: List["Field"] = field(default_factory=list)

    @property
    def is_primitive(self) -> bool:
        return False

    @property
    def is_structured(self) -> bool:
        return True

    def add(self, child: "Field") -> "StructuredField":
        """Append ``child`` and return ``self`` (for fluent construction)."""
        self.fields.append(child)
        return self

    def find(self, label: str) -> Optional["Field"]:
        """The first direct child named ``label``, or ``None``."""
        for child in self.fields:
            if child.label == label:
                return child
        return None

    def get(self, label: str) -> "Field":
        """Return the direct child field named ``label``."""
        child = self.find(label)
        if child is None:
            raise FieldNotFoundError(label, self.label)
        return child

    def has(self, label: str) -> bool:
        return self.find(label) is not None

    def labels(self) -> List[str]:
        return [child.label for child in self.fields]

    def copy(self) -> "StructuredField":
        return StructuredField(self.label, [child.copy() for child in self.fields])

    def __iter__(self) -> Iterator["Field"]:
        return iter(self.fields)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(str(child) for child in self.fields)
        return f"{self.label}{{{inner}}}"


Field = Union[PrimitiveField, StructuredField]


#: What a value-mode read answers for a label its schema does not lay out.
ABSENT = object()


class MessageSchema:
    """The slot layout of value-mode messages: one label and one type name
    per slot.

    Fixed when a compiled binary parser or a generated translator is built,
    and shared by every message it produces: such a message carries only
    its slot values, and a field ``label`` of type ``type_name`` with no
    length stands for each slot.  Labels are distinct and dot-free.
    """

    __slots__ = ("labels", "types", "slots")

    def __init__(self, labels: Sequence[str], types: Sequence[str]) -> None:
        self.labels = tuple(labels)
        self.types = tuple(types)
        #: Label -> slot position.
        self.slots = {label: i for i, label in enumerate(self.labels)}
        if len(self.slots) != len(self.labels) or len(self.types) != len(self.labels):
            raise MessageError(f"malformed message schema {self.labels!r}")

    def reader(self, labels: Sequence[str]) -> Callable[[Tuple[Any, ...]], Any]:
        """A callable from a slot tuple to the values of ``labels``: the
        value alone for one label, else a tuple; :data:`ABSENT` for a label
        this schema does not lay out."""
        positions = [self.slots.get(label) for label in labels]
        if None not in positions:
            return itemgetter(*positions)

        def read(values: Tuple[Any, ...]) -> Any:
            got = tuple(ABSENT if p is None else values[p] for p in positions)
            return got if len(got) > 1 else got[0]

        return read


class AbstractMessage:
    """A protocol-independent representation of one network message.

    An abstract message has a *name* — the message type label used by
    automata transitions (e.g. ``"SLP_SrvReq"`` or ``"SSDP_M-Search"``) — an
    ordered collection of fields, and a set of *mandatory field* labels used
    by the semantic-equivalence operator of Section III-C
    (``Mfields(n)`` in the paper).

    The class behaves like a mapping from field labels to values for the
    common case of primitive top-level fields, while still exposing the full
    field objects for structured access.

    A message holds one of two representations at a time.  *Value mode*
    (what compiled binary parsers and generated translators build) is a
    :class:`MessageSchema` plus a tuple of slot values: ``get``, ``has``,
    ``labels``, ``values`` and ``copy`` answer from the slots.  The first
    access that needs field objects — :attr:`fields`, ``find``, ``field``,
    :meth:`field_index`, or an edit through ``set`` / ``add_field`` —
    builds them, once, and the message stays in *field mode*.

    In field mode, top-level lookups go through a *first-match label
    index* kept beside the ordered field list, so ``has``/``get``/``set``
    are one dict probe instead of a scan.  The index follows
    :meth:`add_field`, :meth:`set` and plain appends to :attr:`fields`
    (picked up lazily by length), and with duplicate labels it resolves to
    the earliest field, exactly as the scan did.  Other in-place edits of
    :attr:`fields` — replacing, reordering or relabelling a field — are
    outside the contract.
    """

    #: Value mode: the slot layout and the slot values (else ``None``).
    _schema: Optional[MessageSchema] = None
    _values: Optional[Tuple[Any, ...]] = None
    #: Field mode: the field list (``None`` in value mode).
    _fields: Optional[List[Field]] = None

    def __init__(
        self,
        name: str,
        fields: Optional[Sequence[Field]] = None,
        mandatory: Optional[Sequence[str]] = None,
        protocol: str = "",
    ) -> None:
        self.name = name
        #: Name of the protocol this message belongs to (informational).
        self.protocol = protocol
        self._fields = list(fields) if fields else []
        #: A list, or a tuple a compiled parser shares among its messages
        #: (:meth:`mark_mandatory` copies before it edits).
        self._mandatory: Sequence[str] = list(mandatory) if mandatory else []
        #: First-match label -> field over ``_fields[:_indexed]``.
        self._index: Dict[str, Field] = {}
        self._indexed = 0

    @classmethod
    def adopt(
        cls,
        name: str,
        fields: List[Field],
        index: Dict[str, Field],
        mandatory: Optional[Sequence[str]] = None,
        protocol: str = "",
    ) -> "AbstractMessage":
        """A message built *around* ``fields`` and their label index, no copies.

        For builders that computed both in one pass (the compiled text
        parsers): ``index`` must map every label in ``fields`` to its
        first field, and the caller gives up both objects.
        """
        message = cls.__new__(cls)
        message.name = name
        message.protocol = protocol
        message._fields = fields
        message._mandatory = list(mandatory) if mandatory else []
        message._index = index
        message._indexed = len(fields)
        return message

    def _materialise(self) -> List[Field]:
        """Leave value mode for good: one field object per slot."""
        schema = self._schema
        fields: List[Field] = []
        append = fields.append
        new = object.__new__
        for label, type_name, value in zip(schema.labels, schema.types, self._values):
            f = new(PrimitiveField)
            f.label = label
            f.type_name = type_name
            f.length_bits = None
            f.value = value
            append(f)
        self._fields = fields
        self._index = dict(zip(schema.labels, fields))
        self._indexed = len(fields)
        self._schema = self._values = None
        return fields

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_field(self, f: Field) -> "AbstractMessage":
        """Append a field object and return ``self``."""
        fields = self._fields
        if fields is None:
            fields = self._materialise()
        if self._indexed == len(fields):
            self._index.setdefault(f.label, f)
            self._indexed += 1
        fields.append(f)
        return self

    def set(
        self,
        label: str,
        value: Any,
        type_name: str = "String",
        length_bits: Optional[int] = None,
    ) -> "AbstractMessage":
        """Set (create or overwrite) a top-level primitive field.

        Dotted labels (``"URL.port"``) address a primitive field inside a
        structured field, creating the structured parent if necessary.
        """
        if "." in label:
            parent_label, _, child_label = label.partition(".")
            parent = self._find(parent_label)
            if parent is None:
                parent = StructuredField(parent_label)
                self.add_field(parent)
            if not isinstance(parent, StructuredField):
                raise MessageError(
                    f"field '{parent_label}' of message '{self.name}' is primitive; "
                    f"cannot set sub-field '{child_label}'"
                )
            child = parent.find(child_label)
            if child is not None:
                if isinstance(child, StructuredField):
                    raise MessageError(
                        f"field '{label}' of message '{self.name}' is structured; "
                        "cannot assign a primitive value to it"
                    )
                child.value = value
                child.type_name = type_name
                if length_bits is not None:
                    child.length_bits = length_bits
            else:
                parent.add(PrimitiveField(child_label, type_name, length_bits, value))
            return self

        existing = self._find(label)
        if existing is None:
            self.add_field(PrimitiveField(label, type_name, length_bits, value))
        elif isinstance(existing, PrimitiveField):
            existing.value = value
            existing.type_name = type_name
            if length_bits is not None:
                existing.length_bits = length_bits
        else:
            raise MessageError(
                f"field '{label}' of message '{self.name}' is structured; "
                "cannot assign a primitive value to it"
            )
        return self

    def mark_mandatory(self, *labels: str) -> "AbstractMessage":
        """Declare ``labels`` as mandatory fields (``Mfields`` in the paper)."""
        mandatory = list(self._mandatory)
        for label in labels:
            if label not in mandatory:
                mandatory.append(label)
        self._mandatory = mandatory
        return self

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def fields(self) -> List[Field]:
        """The ordered list of top-level field objects."""
        fields = self._fields
        return fields if fields is not None else self._materialise()

    @property
    def mandatory_fields(self) -> List[str]:
        """Labels of mandatory fields; defaults to all labels if none declared."""
        if self._mandatory:
            return list(self._mandatory)
        return self.labels()

    def labels(self) -> List[str]:
        if self._fields is None:
            return list(self._schema.labels)
        return [f.label for f in self._fields]

    def field_index(self) -> Dict[str, Field]:
        """First-match label -> field mapping of the top-level fields.

        The message's own live index, brought up to date with
        :attr:`fields`: callers probe it, they never write to it.
        """
        fields = self._fields
        if fields is None:
            self._materialise()
            return self._index
        indexed = self._indexed
        if indexed != len(fields):
            if indexed > len(fields):
                # Fields were removed behind the index's back: start over.
                self._index.clear()
                indexed = 0
            setdefault = self._index.setdefault
            for f in fields[indexed:]:
                setdefault(f.label, f)
            self._indexed = len(fields)
        return self._index

    def _find(self, label: str) -> Optional[Field]:
        # The in-sync probe is inlined: this runs per field per datagram.
        fields = self._fields
        if fields is None or self._indexed != len(fields):
            return self.field_index().get(label)
        return self._index.get(label)

    def find(self, path: str) -> Optional[Field]:
        """The field addressed by ``path`` (dotted labels), or ``None``."""
        if "." not in path:
            # ``_find`` inlined: the interpreter and correlation probe per datagram.
            fields = self._fields
            if fields is None or self._indexed != len(fields):
                return self.field_index().get(path)
            return self._index.get(path)
        parts = path.split(".")
        current = self._find(parts[0])
        for part in parts[1:]:
            if not isinstance(current, StructuredField):
                return None
            current = current.find(part)
        return current

    def field(self, path: str) -> Field:
        """Return the field object addressed by ``path`` (dotted labels)."""
        found = self.find(path)
        if found is None:
            raise FieldNotFoundError(path, self.name)
        return found

    def has(self, path: str) -> bool:
        """Return ``True`` when ``path`` resolves to a field of this message."""
        if self._fields is None:
            # Value-mode labels are dot-free: a dotted path never resolves.
            return path in self._schema.slots
        return self.find(path) is not None

    def get(self, path: str, default: Any = None) -> Any:
        """Return the *value* of a primitive field, or ``default`` if absent."""
        if self._fields is None:
            slot = self._schema.slots.get(path)
            return default if slot is None else self._values[slot]
        f = self.find(path)
        if f is None:
            return default
        if isinstance(f, StructuredField):
            return f
        return f.value

    def __getitem__(self, path: str) -> Any:
        value = self.get(path, ABSENT)
        if value is ABSENT:
            raise FieldNotFoundError(path, self.name)
        return value

    def __setitem__(self, path: str, value: Any) -> None:
        self.set(path, value)

    def __contains__(self, path: str) -> bool:
        return self.has(path)

    def values(self) -> Dict[str, Any]:
        """Return a flat mapping of dotted field paths to primitive values."""
        if self._fields is None:
            return dict(zip(self._schema.labels, self._values))
        out: Dict[str, Any] = {}

        def walk(prefix: str, fields: Sequence[Field]) -> None:
            for f in fields:
                path = f"{prefix}{f.label}"
                if isinstance(f, PrimitiveField):
                    out[path] = f.value
                else:
                    walk(path + ".", f.fields)

        walk("", self._fields)
        return out

    # ------------------------------------------------------------------
    # comparison / copying
    # ------------------------------------------------------------------
    def copy(self) -> "AbstractMessage":
        """Return a deep, independent copy of this message."""
        if self._fields is None:
            clone = AbstractMessage.__new__(AbstractMessage)
            clone.name = self.name
            clone.protocol = self.protocol
            clone._mandatory = list(self._mandatory)
            clone._schema = self._schema
            clone._values = self._values
            return clone
        return AbstractMessage(
            self.name,
            [f.copy() for f in self._fields],
            list(self._mandatory),
            self.protocol,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractMessage):
            return NotImplemented
        return (
            self.name == other.name
            and self.values() == other.values()
            and self.labels() == other.labels()
        )

    def __hash__(self) -> int:  # messages are mutable; identity hash only
        return id(self)

    def __repr__(self) -> str:
        return f"AbstractMessage({self.name!r}, fields={self.values()!r})"

    # ------------------------------------------------------------------
    # conversion helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        name: str,
        values: Mapping[str, Any],
        mandatory: Optional[Sequence[str]] = None,
        protocol: str = "",
    ) -> "AbstractMessage":
        """Build a message from a flat (possibly dotted-path) mapping."""
        msg = cls(name, mandatory=mandatory, protocol=protocol)
        for label, value in values.items():
            type_name = "Integer" if isinstance(value, int) and not isinstance(value, bool) else "String"
            msg.set(label, value, type_name=type_name)
        return msg

    def to_dict(self) -> Dict[str, Any]:
        """Inverse of :meth:`from_dict` (loses type/length metadata)."""
        return self.values()
