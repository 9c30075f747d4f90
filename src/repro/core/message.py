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
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Union

from .errors import FieldNotFoundError, MessageError

__all__ = [
    "PrimitiveField",
    "StructuredField",
    "Field",
    "AbstractMessage",
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

    Top-level lookups go through a *first-match label index* kept beside
    the ordered field list, so ``has``/``get``/``set`` are one dict probe
    instead of a scan.  The index follows :meth:`add_field`, :meth:`set`
    and plain appends to :attr:`fields` (picked up lazily by length), and
    with duplicate labels it resolves to the earliest field, exactly as the
    scan did.  Other in-place edits of :attr:`fields` — replacing,
    reordering or relabelling a field — are outside the contract.
    """

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
        self._fields: List[Field] = list(fields) if fields else []
        self._mandatory: List[str] = list(mandatory) if mandatory else []
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

        For builders that computed both in one pass (the compiled
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

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def add_field(self, f: Field) -> "AbstractMessage":
        """Append a field object and return ``self``."""
        fields = self._fields
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
        for label in labels:
            if label not in self._mandatory:
                self._mandatory.append(label)
        return self

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def fields(self) -> List[Field]:
        """The ordered list of top-level field objects."""
        return self._fields

    @property
    def mandatory_fields(self) -> List[str]:
        """Labels of mandatory fields; defaults to all labels if none declared."""
        if self._mandatory:
            return list(self._mandatory)
        return self.labels()

    def labels(self) -> List[str]:
        return [f.label for f in self._fields]

    def field_index(self) -> Dict[str, Field]:
        """First-match label -> field mapping of the top-level fields.

        The message's own live index, brought up to date with
        :attr:`fields`: callers probe it, they never write to it.
        """
        fields = self._fields
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
        if self._indexed != len(self._fields):
            return self.field_index().get(label)
        return self._index.get(label)

    def find(self, path: str) -> Optional[Field]:
        """The field addressed by ``path`` (dotted labels), or ``None``."""
        if "." not in path:
            # ``_find`` inlined: translation and correlation probe per datagram.
            if self._indexed != len(self._fields):
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
        return self.find(path) is not None

    def get(self, path: str, default: Any = None) -> Any:
        """Return the *value* of a primitive field, or ``default`` if absent."""
        f = self.find(path)
        if f is None:
            return default
        if isinstance(f, StructuredField):
            return f
        return f.value

    def __getitem__(self, path: str) -> Any:
        f = self.field(path)
        if isinstance(f, StructuredField):
            return f
        return f.value

    def __setitem__(self, path: str, value: Any) -> None:
        self.set(path, value)

    def __contains__(self, path: str) -> bool:
        return self.has(path)

    def values(self) -> Dict[str, Any]:
        """Return a flat mapping of dotted field paths to primitive values."""
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
        clone = AbstractMessage(
            self.name,
            [f.copy() for f in self._fields],
            list(self._mandatory),
            self.protocol,
        )
        return clone

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
