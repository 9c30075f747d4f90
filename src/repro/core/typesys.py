"""Type system and pluggable (un)marshallers for MDL field types.

Section IV-A of the paper: *"To underpin the reading and writing of data
from messages, Starlink employs pluggable marshallers and unmarshallers for
each of the types. [...] This mechanism allows the language to be
dynamically extended to incorporate complex types (with no need to
re-implement a compiler)."*

A :class:`Marshaller` converts between a Python value and its wire
representation; the binary MDL interpreter drives marshallers through a
:class:`BitBuffer` so that field lengths expressed in *bits* (``<XID>16</XID>``,
``<MessageLength>24</MessageLength>``) work even when they are not multiples
of eight.

The registry ships the types used by the paper's case studies — ``Integer``,
``String``, ``Bytes``, ``Boolean`` and ``FQDN`` (fully-qualified domain
names in DNS label encoding, used by the Bonjour/mDNS MDL) — and accepts
plug-ins for new types at runtime, exactly as the paper's FQDN example
describes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from .errors import MarshallingError, TypeSystemError

__all__ = [
    "BitBuffer",
    "Marshaller",
    "IntegerMarshaller",
    "StringMarshaller",
    "BytesMarshaller",
    "BooleanMarshaller",
    "FQDNMarshaller",
    "TypeRegistry",
    "default_registry",
]


class BitBuffer:
    """A read/write buffer addressed in bits.

    Binary MDL field lengths are expressed in bits; most are byte-aligned
    (8, 16, 24 bits) but the buffer supports arbitrary widths so that
    protocols with sub-byte flags can be described too.
    """

    def __init__(self, data: bytes = b"") -> None:
        self._bits: list[int] = []
        for byte in data:
            for shift in range(7, -1, -1):
                self._bits.append((byte >> shift) & 1)
        self._pos = 0

    # -- reading -------------------------------------------------------
    @property
    def position(self) -> int:
        """Current read position, in bits."""
        return self._pos

    @property
    def remaining_bits(self) -> int:
        return len(self._bits) - self._pos

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._bits)

    def seek(self, bit_position: int) -> None:
        if bit_position < 0 or bit_position > len(self._bits):
            raise MarshallingError(f"seek position {bit_position} out of range")
        self._pos = bit_position

    def read_uint(self, nbits: int) -> int:
        """Read ``nbits`` as an unsigned big-endian integer."""
        if nbits < 0:
            raise MarshallingError("cannot read a negative number of bits")
        if self._pos + nbits > len(self._bits):
            raise MarshallingError(
                f"buffer underrun: need {nbits} bits, have {self.remaining_bits}"
            )
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self._bits[self._pos]
            self._pos += 1
        return value

    def read_bytes(self, nbytes: int) -> bytes:
        return bytes(self.read_uint(8) for _ in range(nbytes))

    def read_rest(self) -> bytes:
        """Read all remaining (byte-aligned) content."""
        nbytes = self.remaining_bits // 8
        return self.read_bytes(nbytes)

    # -- writing -------------------------------------------------------
    def write_uint(self, value: int, nbits: int) -> None:
        """Append ``value`` as an unsigned big-endian integer of ``nbits``."""
        if value < 0:
            raise MarshallingError(f"cannot write negative value {value} as unsigned")
        if nbits < 0:
            raise MarshallingError("cannot write a negative number of bits")
        if nbits < value.bit_length():
            raise MarshallingError(
                f"value {value} does not fit in {nbits} bits"
            )
        for shift in range(nbits - 1, -1, -1):
            self._bits.append((value >> shift) & 1)

    def write_bytes(self, data: bytes) -> None:
        for byte in data:
            self.write_uint(byte, 8)

    def to_bytes(self) -> bytes:
        """Return the buffer content, zero-padded to a whole byte."""
        bits = list(self._bits)
        while len(bits) % 8:
            bits.append(0)
        out = bytearray()
        for i in range(0, len(bits), 8):
            byte = 0
            for bit in bits[i : i + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)

    def __len__(self) -> int:
        """Total buffer length in bits."""
        return len(self._bits)


class Marshaller:
    """Converts values of one MDL type to and from the wire.

    Sub-classes implement :meth:`marshal` (value -> BitBuffer) and
    :meth:`unmarshal` (BitBuffer -> value).  ``length_bits`` is ``None``
    when the field length is unknown in advance (delimited text fields or
    self-describing encodings such as DNS names).
    """

    #: Name under which the marshaller registers by default.
    type_name: str = "Opaque"
    #: Python type produced by :meth:`unmarshal` (informational).
    python_type: type = bytes

    def marshal(self, value: Any, buffer: BitBuffer, length_bits: Optional[int]) -> None:
        raise NotImplementedError

    def unmarshal(self, buffer: BitBuffer, length_bits: Optional[int]) -> Any:
        raise NotImplementedError

    # -- text protocols --------------------------------------------------
    def to_text(self, value: Any) -> str:
        """Render ``value`` for a text protocol (default: ``str``)."""
        return "" if value is None else str(value)

    def from_text(self, text: str) -> Any:
        """Parse ``text`` from a text protocol (default: identity)."""
        return text

    def wire_length_bits(self, value: Any) -> int:
        """Length in bits that ``value`` occupies once marshalled."""
        probe = BitBuffer()
        self.marshal(value, probe, None)
        return len(probe)


class IntegerMarshaller(Marshaller):
    """Unsigned big-endian integers of a fixed bit width."""

    type_name = "Integer"
    python_type = int

    def __init__(self, default_bits: int = 32) -> None:
        self.default_bits = default_bits

    def marshal(self, value: Any, buffer: BitBuffer, length_bits: Optional[int]) -> None:
        if value is None:
            value = 0
        try:
            ivalue = int(value)
        except (TypeError, ValueError) as exc:
            raise MarshallingError(f"cannot marshal {value!r} as Integer") from exc
        buffer.write_uint(ivalue, length_bits if length_bits is not None else self.default_bits)

    def unmarshal(self, buffer: BitBuffer, length_bits: Optional[int]) -> int:
        return buffer.read_uint(length_bits if length_bits is not None else self.default_bits)

    def from_text(self, text: str) -> int:
        try:
            return int(text.strip())
        except ValueError as exc:
            raise MarshallingError(f"cannot parse {text!r} as Integer") from exc

    def wire_length_bits(self, value: Any) -> int:
        return self.default_bits


class StringMarshaller(Marshaller):
    """Character strings encoded with a configurable codec (default UTF-8)."""

    type_name = "String"
    python_type = str

    def __init__(self, encoding: str = "utf-8") -> None:
        self.encoding = encoding

    def marshal(self, value: Any, buffer: BitBuffer, length_bits: Optional[int]) -> None:
        text = "" if value is None else str(value)
        data = text.encode(self.encoding)
        if length_bits is not None:
            expected = length_bits // 8
            if len(data) > expected:
                raise MarshallingError(
                    f"string {text!r} is {len(data)} bytes; field allows {expected}"
                )
            data = data.ljust(expected, b"\x00")
        buffer.write_bytes(data)

    def unmarshal(self, buffer: BitBuffer, length_bits: Optional[int]) -> str:
        if length_bits is None:
            data = buffer.read_rest()
        else:
            data = buffer.read_bytes(length_bits // 8)
        return data.rstrip(b"\x00").decode(self.encoding)

    def wire_length_bits(self, value: Any) -> int:
        text = "" if value is None else str(value)
        return len(text.encode(self.encoding)) * 8


class BytesMarshaller(Marshaller):
    """Raw byte strings."""

    type_name = "Bytes"
    python_type = bytes

    def marshal(self, value: Any, buffer: BitBuffer, length_bits: Optional[int]) -> None:
        data = bytes(value) if value is not None else b""
        if length_bits is not None:
            expected = length_bits // 8
            if len(data) > expected:
                raise MarshallingError(
                    f"byte field is {len(data)} bytes; field allows {expected}"
                )
            data = data.ljust(expected, b"\x00")
        buffer.write_bytes(data)

    def unmarshal(self, buffer: BitBuffer, length_bits: Optional[int]) -> bytes:
        if length_bits is None:
            return buffer.read_rest()
        return buffer.read_bytes(length_bits // 8)

    def from_text(self, text: str) -> bytes:
        return text.encode("utf-8")

    def to_text(self, value: Any) -> str:
        if isinstance(value, bytes):
            return value.decode("utf-8", errors="replace")
        return super().to_text(value)

    def wire_length_bits(self, value: Any) -> int:
        return len(bytes(value) if value is not None else b"") * 8


class BooleanMarshaller(Marshaller):
    """Single-bit (by default) boolean flags."""

    type_name = "Boolean"
    python_type = bool

    def marshal(self, value: Any, buffer: BitBuffer, length_bits: Optional[int]) -> None:
        buffer.write_uint(1 if value else 0, length_bits if length_bits is not None else 1)

    def unmarshal(self, buffer: BitBuffer, length_bits: Optional[int]) -> bool:
        return bool(buffer.read_uint(length_bits if length_bits is not None else 1))

    def from_text(self, text: str) -> bool:
        return text.strip().lower() in {"1", "true", "yes", "on"}

    def wire_length_bits(self, value: Any) -> int:
        return 1


class FQDNMarshaller(Marshaller):
    """Fully qualified domain names in DNS label encoding.

    This is the paper's example of a pluggable complex type: a sequence of
    length-prefixed labels terminated by a zero-length label, decoded to a
    dotted Python string (``"_testservice._tcp.local"``).
    """

    type_name = "FQDN"
    python_type = str

    def marshal(self, value: Any, buffer: BitBuffer, length_bits: Optional[int]) -> None:
        name = "" if value is None else str(value)
        name = name.strip(".")
        if name:
            for label in name.split("."):
                data = label.encode("utf-8")
                if len(data) > 63:
                    raise MarshallingError(f"DNS label too long: {label!r}")
                buffer.write_uint(len(data), 8)
                buffer.write_bytes(data)
        buffer.write_uint(0, 8)

    def unmarshal(self, buffer: BitBuffer, length_bits: Optional[int]) -> str:
        labels = []
        while True:
            length = buffer.read_uint(8)
            if length == 0:
                break
            labels.append(buffer.read_bytes(length).decode("utf-8"))
        return ".".join(labels)

    def wire_length_bits(self, value: Any) -> int:
        name = ("" if value is None else str(value)).strip(".")
        if not name:
            return 8
        total = 1  # terminating zero label
        for label in name.split("."):
            total += 1 + len(label.encode("utf-8"))
        return total * 8


class TypeRegistry:
    """Registry of marshallers keyed by MDL type name.

    The registry is the runtime-extensibility point of the MDL design: new
    protocol-specific types can be plugged in without touching the generic
    parser or composer.
    """

    def __init__(self) -> None:
        self._marshallers: Dict[str, Marshaller] = {}

    def register(self, type_name: str, marshaller: Marshaller) -> None:
        """Register ``marshaller`` under ``type_name`` (overwrites silently)."""
        self._marshallers[type_name] = marshaller

    def register_default_types(self) -> "TypeRegistry":
        self.register("Integer", IntegerMarshaller())
        self.register("String", StringMarshaller())
        self.register("Bytes", BytesMarshaller())
        self.register("Boolean", BooleanMarshaller())
        self.register("FQDN", FQDNMarshaller())
        return self

    def get(self, type_name: str) -> Marshaller:
        try:
            return self._marshallers[type_name]
        except KeyError:
            raise TypeSystemError(f"no marshaller registered for type '{type_name}'") from None

    def has(self, type_name: str) -> bool:
        return type_name in self._marshallers

    def type_names(self) -> list[str]:
        return sorted(self._marshallers)

    def copy(self) -> "TypeRegistry":
        clone = TypeRegistry()
        clone._marshallers = dict(self._marshallers)
        return clone


def default_registry() -> TypeRegistry:
    """Return a fresh registry with the built-in types registered."""
    return TypeRegistry().register_default_types()
