"""Field functions evaluated by MDL composers.

The ``[f-method()]`` construct of the paper attaches a function to a type
declaration; the marshaller executes the named function when *writing* the
field.  The canonical example is ``URLLength`` declared as
``Integer[f-length(URLEntry)]``: when composing, the framework measures the
marshalled length of ``URLEntry`` and writes that number into
``URLLength``.

Functions are looked up in a :class:`FieldFunctionRegistry`; new functions
can be plugged in at runtime alongside new marshallers.  The built-ins are:

``f-length(field)``
    byte length of the referenced field's marshalled value;
``f-total-length()``
    total byte length of the composed message (header plus body);
``f-count(field)``
    number of comma-separated entries in the referenced field's value;
``f-constant(value)``
    the literal value given as argument.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from ..errors import MDLSpecificationError

__all__ = ["FieldFunctionContext", "FieldFunctionRegistry", "default_function_registry"]


class FieldFunctionContext:
    """Everything a field function may need while composing one message.

    Attributes
    ----------
    field_values:
        Mapping of field label to the (resolved) Python value of that field.
    field_lengths_bits:
        Mapping of field label to the marshalled length, in bits, of that
        field's value.
    total_length_bits:
        The total length of the composed message in bits, or ``None`` while
        it is not yet known (functions depending on it are evaluated in a
        second pass).
    """

    def __init__(
        self,
        field_values: Mapping[str, Any],
        field_lengths_bits: Mapping[str, int],
        total_length_bits: int | None = None,
    ) -> None:
        self.field_values = dict(field_values)
        self.field_lengths_bits = dict(field_lengths_bits)
        self.total_length_bits = total_length_bits


FieldFunction = Callable[[FieldFunctionContext, tuple], Any]


def _f_length(context: FieldFunctionContext, arguments: tuple) -> int:
    if not arguments:
        raise MDLSpecificationError("f-length requires a field argument")
    label = arguments[0]
    bits = context.field_lengths_bits.get(label)
    if bits is None:
        value = context.field_values.get(label)
        if value is None:
            return 0
        if isinstance(value, bytes):
            return len(value)
        return len(str(value).encode("utf-8"))
    return bits // 8


def _f_total_length(context: FieldFunctionContext, arguments: tuple) -> int:
    if context.total_length_bits is None:
        # Evaluated again in the second composing pass once the total is known.
        return 0
    return context.total_length_bits // 8


def _f_count(context: FieldFunctionContext, arguments: tuple) -> int:
    if not arguments:
        raise MDLSpecificationError("f-count requires a field argument")
    value = context.field_values.get(arguments[0])
    if value is None or value == "":
        return 0
    if isinstance(value, (list, tuple)):
        return len(value)
    return len([part for part in str(value).split(",") if part != ""])


def _f_constant(context: FieldFunctionContext, arguments: tuple) -> Any:
    if not arguments:
        raise MDLSpecificationError("f-constant requires a literal argument")
    literal = arguments[0]
    return int(literal) if literal.isdigit() else literal


class FieldFunctionRegistry:
    """Runtime-extensible registry of field functions."""

    def __init__(self) -> None:
        self._functions: Dict[str, FieldFunction] = {}

    def register(self, name: str, function: FieldFunction) -> None:
        self._functions[name] = function

    def register_defaults(self) -> "FieldFunctionRegistry":
        self.register("f-length", _f_length)
        self.register("f-total-length", _f_total_length)
        self.register("f-count", _f_count)
        self.register("f-constant", _f_constant)
        return self

    def has(self, name: str) -> bool:
        return name in self._functions

    def lookup(self, name: str) -> FieldFunction | None:
        """The function registered under ``name``, or ``None``."""
        return self._functions.get(name)

    def evaluate(self, name: str, context: FieldFunctionContext, arguments: tuple) -> Any:
        try:
            function = self._functions[name]
        except KeyError:
            raise MDLSpecificationError(f"unknown field function '{name}'") from None
        return function(context, arguments)

    def names(self) -> list[str]:
        return sorted(self._functions)


def default_function_registry() -> FieldFunctionRegistry:
    """Return a fresh registry containing the built-in field functions."""
    return FieldFunctionRegistry().register_defaults()
