"""Common interface of MDL-driven message parsers and composers.

The Starlink architecture (Fig. 6) places a *message parser* and a *message
composer* between the network engine (which deals in raw byte arrays) and
the automata engine (which deals in abstract messages).  Both are generic
interpreters specialised at runtime by loading an MDL specification; this
module defines their shared interface and the factory that picks the right
interpreter for an MDL dialect.
"""

from __future__ import annotations

from typing import Optional

from ..errors import MDLSpecificationError
from ..message import AbstractMessage
from ..typesys import TypeRegistry, default_registry
from .functions import FieldFunctionRegistry, default_function_registry
from .spec import MDLKind, MDLSpec

__all__ = ["MessageParser", "MessageComposer", "create_parser", "create_composer"]


class MessageParser:
    """Reads concrete network messages into abstract messages."""

    def __init__(
        self,
        spec: MDLSpec,
        types: Optional[TypeRegistry] = None,
        functions: Optional[FieldFunctionRegistry] = None,
    ) -> None:
        self.spec = spec
        self.types = types if types is not None else default_registry()
        self.functions = functions if functions is not None else default_function_registry()

    def parse(self, data: bytes) -> AbstractMessage:
        """Parse ``data`` into an abstract message.

        Raises :class:`~repro.core.errors.ParseError` when the bytes do not
        match the specification.
        """
        raise NotImplementedError

    def accepts(self, data: bytes) -> bool:
        """Return ``True`` when ``data`` parses successfully under this MDL."""
        from ..errors import MDLError

        try:
            self.parse(data)
            return True
        except MDLError:
            return False


class MessageComposer:
    """Writes abstract messages back into concrete network messages."""

    def __init__(
        self,
        spec: MDLSpec,
        types: Optional[TypeRegistry] = None,
        functions: Optional[FieldFunctionRegistry] = None,
    ) -> None:
        self.spec = spec
        self.types = types if types is not None else default_registry()
        self.functions = functions if functions is not None else default_function_registry()

    def compose(self, message: AbstractMessage) -> bytes:
        """Serialise ``message`` into the protocol's wire format.

        Raises :class:`~repro.core.errors.ComposeError` when the message
        cannot be expressed under the loaded MDL.
        """
        raise NotImplementedError


def create_parser(
    spec: MDLSpec,
    types: Optional[TypeRegistry] = None,
    functions: Optional[FieldFunctionRegistry] = None,
    interpreted: bool = False,
) -> MessageParser:
    """Instantiate a parser for the MDL dialect.

    By default this returns a compiled codec (see
    :mod:`repro.core.mdl.compiled`), behaviourally identical to the
    interpreter but operating on bytes instead of a bit list; specs the
    compiler cannot prove equivalent for fall back automatically.  Pass
    ``interpreted=True`` to force the original interpreting parser — the
    reference the differential tests compare against.
    """
    if not interpreted:
        from .compiled import compile_parser

        return compile_parser(spec, types, functions)
    from .binary import BinaryMessageParser
    from .text import TextMessageParser

    if spec.kind is MDLKind.BINARY:
        return BinaryMessageParser(spec, types, functions)
    if spec.kind is MDLKind.TEXT:
        return TextMessageParser(spec, types, functions)
    raise MDLSpecificationError(f"unknown MDL dialect: {spec.kind!r}")


def create_composer(
    spec: MDLSpec,
    types: Optional[TypeRegistry] = None,
    functions: Optional[FieldFunctionRegistry] = None,
    interpreted: bool = False,
) -> MessageComposer:
    """Instantiate a composer for the MDL dialect.

    Compiled by default with automatic interpreter fallback; pass
    ``interpreted=True`` to force the original interpreting composer.
    """
    if not interpreted:
        from .compiled import compile_composer

        return compile_composer(spec, types, functions)
    from .binary import BinaryMessageComposer
    from .text import TextMessageComposer

    if spec.kind is MDLKind.BINARY:
        return BinaryMessageComposer(spec, types, functions)
    if spec.kind is MDLKind.TEXT:
        return TextMessageComposer(spec, types, functions)
    raise MDLSpecificationError(f"unknown MDL dialect: {spec.kind!r}")
