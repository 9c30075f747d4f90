"""Deterministic mutation differential: compiled binary codecs against the
interpreters, on every truncation and single-byte corruption of real
messages.

The samples are one message of every SLP and mDNS message kind, one of a
spec with fixed-width strings and odd integer widths, and the benchmark's
reference replies (what the bridge answers an SLP lookup with in cases 1
and 2).  For each sample, every truncation prefix and every
offset overwritten with ``0x00``, ``0xFF`` and a length one byte too long
for what follows must parse to the interpreted parser's message, or raise
the same :class:`ParseError` class with the same text.  Compose errors are
held to the same parity for the values the generated encoders pack
natively: negative and overflowing integers, overflowing fixed-width
strings and bytes, and over-long DNS labels.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.errors import StarlinkError
from repro.core.mdl.base import create_composer, create_parser
from repro.core.mdl.compiled import CompiledBinaryComposer, CompiledBinaryParser
from repro.core.mdl.spec import (
    FieldSpec,
    HeaderSpec,
    MDLKind,
    MDLSpec,
    MessageRule,
    MessageSpec,
    SizeSpec,
)
from repro.core.message import AbstractMessage
from repro.protocols.mdns.mdl import DNS_QUESTION, DNS_RESPONSE, mdns_mdl
from repro.protocols.slp.mdl import SLP_SRVREPLY, SLP_SRVREQ, slp_mdl

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _message(name, **values):
    return AbstractMessage.from_dict(name, values)


_SAMPLES = [
    (slp_mdl, _message(SLP_SRVREQ, XID=4660, LangTag="en", SRVType="service:printer",
                       PRStringTable="10.0.0.9", PredString="(x=1)", SPIString="")),
    (slp_mdl, _message(SLP_SRVREPLY, XID=77, LangTag="en", URLCount=1, Lifetime=60,
                       URLEntry="service:printer://10.0.0.1:631")),
    (mdns_mdl, _message(DNS_QUESTION, ID=77, QDCount=1, QType=16, QClass=1,
                        DomainName="_printer._tcp.local")),
    (mdns_mdl, _message(DNS_RESPONSE, ID=77, ANCount=1, AType=16, AClass=1, TTL=120,
                        AnswerName="_printer._tcp.local",
                        RDATA="service:printer://10.0.0.1:631")),
]


def _bench_replies():
    sys.path.insert(0, str(BENCH))
    try:
        from reference import templates
    finally:
        sys.path.remove(str(BENCH))
    return [templates(case, seed=11)[1].fill(0x1234) for case in (1, 2)]


def _mutants(wire: bytes):
    for end in range(len(wire)):
        yield wire[:end]
    for offset in range(len(wire)):
        too_long = min(0xFF, len(wire) - offset)
        for value in (0x00, 0xFF, too_long):
            yield wire[:offset] + bytes([value]) + wire[offset + 1:]


_ABSENT = object()


def _fields_view(message):
    return [(f.label, f.type_name, f.length_bits, f.value) for f in message.fields]


def _find_view(message):
    found = [message.find(label) for label in message.labels()]
    return [(f.label, f.type_name, f.length_bits, f.value) for f in found]


def _get_view(message):
    values = [(label, message.get(label, _ABSENT)) for label in message.labels()]
    return values, message.get("NoSuchField", _ABSENT) is _ABSENT, message.has("XID.x")


def _slot_view(message):
    """The values as a compiled parser hands them over, without fields."""
    schema = message._schema
    if schema is None:  # the interpreter's field mode
        return [(f.label, f.type_name, f.value) for f in message.fields]
    return list(zip(schema.labels, schema.types, message._values))


#: Every way a reader sees a parsed message: each view reads a fresh parse,
#: so none of them sees a message another view switched to fields.
_VIEWS = (_fields_view, _find_view, _get_view, _slot_view)


def _outcome(parser, data, view=_fields_view):
    try:
        message = parser.parse(data)
    except StarlinkError as exc:
        return type(exc), str(exc)
    return (
        message.name,
        view(message),
        message.mandatory_fields,
        message.protocol,
    )


def _wires():
    for builder, message in _SAMPLES + [(_fixed_width_mdl, _FIXED)]:
        yield builder, create_composer(builder(), interpreted=True).compose(message)
    for reply in _bench_replies():
        yield slp_mdl, reply


def test_every_mutation_parses_or_fails_identically():
    """Through every view — fields, ``find``, ``get`` and the slot read."""
    checked = 0
    for builder, wire in _wires():
        compiled = create_parser(builder())
        interpreted = create_parser(builder(), interpreted=True)
        assert isinstance(compiled, CompiledBinaryParser)
        assert compiled.parse(wire)._schema is not None  # value mode on arrival
        for data in [wire, *_mutants(wire)]:
            for view in _VIEWS:
                expected = _outcome(interpreted, data, view)
                assert _outcome(compiled, data, view) == expected, (view.__name__, data.hex())
            checked += 1
    assert checked > 1000


# ----------------------------------------------------------------------
# compose error parity
# ----------------------------------------------------------------------
def _fixed_width_mdl() -> MDLSpec:
    """A binary MDL with fixed-width String/Bytes fields and odd int widths."""
    spec = MDLSpec(protocol="FIXED", kind=MDLKind.BINARY)
    for label, declaration in (("Kind", "Integer"), ("Wide", "Integer"), ("Odd", "Integer"),
                               ("Name", "String"), ("Blob", "Bytes"), ("Flag", "Boolean")):
        spec.add_type(label, declaration)
    spec.header = HeaderSpec(
        protocol="FIXED",
        fields=[FieldSpec("Kind", SizeSpec.fixed(8)), FieldSpec("Wide", SizeSpec.fixed(72))],
    )
    spec.add_message(
        MessageSpec(
            name="Fixed",
            rule=MessageRule("Kind", "3"),
            fields=[
                FieldSpec("Odd", SizeSpec.fixed(24)),
                FieldSpec("Name", SizeSpec.fixed(32)),
                FieldSpec("Blob", SizeSpec.fixed(16)),
                FieldSpec("Flag", SizeSpec.fixed(8)),
            ],
        )
    )
    return spec


_FIXED = _message("Fixed", Wide=7, Odd=70000, Name="ab", Blob=b"x", Flag=True)

_COMPOSE_CASES = [
    (slp_mdl, SLP_SRVREQ, {"XID": -1}),
    (slp_mdl, SLP_SRVREQ, {"XID": 1 << 16}),
    (slp_mdl, SLP_SRVREQ, {"Version": 256}),
    (slp_mdl, SLP_SRVREPLY, {"Lifetime": "soon"}),
    (slp_mdl, SLP_SRVREPLY, {"URLEntry": "x" * 70000}),
    (mdns_mdl, DNS_QUESTION, {"ID": -5, "DomainName": "a" * 64 + ".local"}),
    (mdns_mdl, DNS_QUESTION, {"DomainName": "a" * 64 + ".local"}),
    (mdns_mdl, DNS_RESPONSE, {"TTL": 1 << 32, "AnswerName": "b" * 80}),
    (_fixed_width_mdl, "Fixed", {"Name": "toolong"}),
    (_fixed_width_mdl, "Fixed", {"Name": "ünï"}),
    (_fixed_width_mdl, "Fixed", {"Blob": b"abc"}),
    (_fixed_width_mdl, "Fixed", {"Odd": 1 << 24}),
    (_fixed_width_mdl, "Fixed", {"Odd": -1, "Name": "toolong"}),
    (_fixed_width_mdl, "Fixed", {"Wide": 1 << 72}),
    (_fixed_width_mdl, "Fixed", {"Wide": 12.5, "Odd": "7", "Flag": "yes", "Name": None}),
    (_fixed_width_mdl, "Missing", {}),
]


@pytest.mark.parametrize("builder, name, values", _COMPOSE_CASES)
def test_compose_errors_and_output_identical(builder, name, values):
    compiled = create_composer(builder())
    interpreted = create_composer(builder(), interpreted=True)
    assert isinstance(compiled, CompiledBinaryComposer)
    outcomes = []
    for composer in (compiled, interpreted):
        message = AbstractMessage(name)
        for label, value in values.items():
            message.set(label, value)
        try:
            outcomes.append(composer.compose(message))
        except StarlinkError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_valid_messages_never_take_the_reference_write(monkeypatch):
    """The interpreter's write pass is the encoders' cold path, for values
    the fast path cannot pack; a message that composes must not need it."""
    from repro.core.mdl import compiled

    calls = []
    reference_write = compiled._reference_write
    monkeypatch.setattr(
        compiled, "_reference_write", lambda *args: calls.append(args) or reference_write(*args)
    )
    # Translation functions hand Integer fields decimal strings.
    translated = _message(DNS_QUESTION, ID=7, QDCount="1", QType="16", QClass="1",
                          DomainName="_test._tcp.local")
    for builder, message in _SAMPLES + [(_fixed_width_mdl, _FIXED), (mdns_mdl, translated)]:
        composer = create_composer(builder())
        calls.clear()  # Building a template runs it once, at construction.
        wire = composer.compose(message)
        assert not calls, message.name
        assert wire == create_composer(builder(), interpreted=True).compose(message)
