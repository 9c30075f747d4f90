"""Field path expressions over abstract messages.

The Java prototype described in Section IV of the paper stores abstract
messages as objects conforming to an XML schema and uses **XPath**
expressions (Fig. 8) to read and write field values from translation logic,
e.g.::

    /field/primitiveField[label='ST']/value

This module provides the equivalent facility for our Python abstract
messages.  Two syntaxes are accepted and normalised to the same internal
form:

* the paper's XPath style shown above (only the subset that addresses
  fields by label is supported — which is all the paper uses), and
* a concise dotted style, e.g. ``ST`` or ``URL.port``.

A :class:`FieldPath` can *resolve* (read) a value from a message and
*assign* (write) a value into a message, creating the primitive field if it
does not exist yet — the behaviour the translation engine needs when it
fills in the fields of an outgoing message.
"""

from __future__ import annotations

import re
from typing import Any, List

from .errors import MessageError
from .message import AbstractMessage, PrimitiveField, StructuredField

__all__ = ["FieldPath", "parse_xpath", "to_xpath"]


_XPATH_STEP = re.compile(
    r"(?:primitiveField|structuredField|field)\[label='(?P<label>[^']*)'\]"
)


def parse_xpath(expression: str) -> List[str]:
    """Extract the sequence of field labels from an XPath-style expression.

    Only the label-addressing subset used by the paper is supported: steps
    of the form ``primitiveField[label='X']`` or ``structuredField[label='X']``.
    A trailing ``/value`` step is accepted and ignored (it is implicit).
    """
    labels = [m.group("label") for m in _XPATH_STEP.finditer(expression)]
    if not labels:
        raise MessageError(f"unsupported XPath expression: {expression!r}")
    return labels


def to_xpath(labels: List[str]) -> str:
    """Render a label sequence back into the paper's XPath style."""
    steps = "/".join(f"primitiveField[label='{label}']" for label in labels)
    return f"/field/{steps}/value"


class FieldPath:
    """A resolved path addressing one field of an abstract message."""

    def __init__(self, expression: str) -> None:
        expression = expression.strip()
        self.expression = expression
        if expression.startswith("/"):
            self.labels = parse_xpath(expression)
        else:
            if not expression:
                raise MessageError("empty field path")
            self.labels = expression.split(".")

    # ------------------------------------------------------------------
    @property
    def dotted(self) -> str:
        """The dotted form of the path (``URL.port``)."""
        return ".".join(self.labels)

    @property
    def xpath(self) -> str:
        """The XPath form of the path, as in Fig. 8 of the paper."""
        return to_xpath(self.labels)

    # ------------------------------------------------------------------
    def resolve(self, message: AbstractMessage) -> Any:
        """Return the value of the addressed field in ``message``."""
        return message[self.dotted]

    def exists(self, message: AbstractMessage) -> bool:
        return message.has(self.dotted)

    def assign(
        self,
        message: AbstractMessage,
        value: Any,
        type_name: str = "String",
    ) -> None:
        """Write ``value`` into ``message`` at this path.

        Structured intermediate fields are created as needed; an existing
        primitive field keeps its declared type unless the field is new.
        """
        dotted = self.dotted
        field = message.find(dotted)
        if field is not None:
            if isinstance(field, StructuredField):
                raise MessageError(
                    f"cannot assign a value to structured field '{dotted}' "
                    f"of message '{message.name}'"
                )
            field.value = value
            return
        # Build missing intermediate structured fields, then the leaf.
        if len(self.labels) == 1:
            message.set(dotted, value, type_name=type_name)
            return
        parent: Any = message
        for label in self.labels[:-1]:
            if isinstance(parent, AbstractMessage):
                existing = parent._find(label)  # noqa: SLF001 - internal by design
                if existing is None:
                    existing = StructuredField(label)
                    parent.add_field(existing)
            else:
                existing = parent.find(label)
                if existing is None:
                    existing = StructuredField(label)
                    parent.add(existing)
            if isinstance(existing, PrimitiveField):
                raise MessageError(
                    f"field '{label}' of message '{message.name}' is primitive; "
                    f"cannot descend into it for path '{dotted}'"
                )
            parent = existing
        parent.add(PrimitiveField(self.labels[-1], type_name, None, value))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldPath):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self) -> int:
        return hash(tuple(self.labels))

    def __repr__(self) -> str:
        return f"FieldPath({self.dotted!r})"
