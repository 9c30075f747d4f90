"""Differential tests: deploy-time transition plans against their references.

The plans claim strict behaviour preservation one layer above the compiled
codecs, so — as in ``test_mdl_compiled.py`` — every test here is a
two-stack comparison rather than a golden value:

* the generated translator ``TranslationLogic.apply`` runs must leave the
  same message (labels, order, types, values) or raise the same error
  (class *and* text, same partial message) as the assignment-at-a-time
  ``TranslationLogic.interpret``, over all six bridges' logics and over
  generated ones with dotted/XPath paths, structured targets and failing
  functions;
* the merged automaton's cached ``step`` must equal ``scan_step``;
* the message label index must answer like a linear first-match scan under
  ``add_field``/``set``/direct ``.fields`` edits and duplicate labels;
* an engine on the plans and one with the references swapped in at the
  factory seams (the ``reference_engines`` fixture), side by side, must
  put the same bytes on the wire and end with the same counters, on the
  simulated and the asyncio substrates at 1 and 4 workers.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")

from repro.bridges import BRIDGE_BUILDERS
from repro.core.automata.colored import Action
from repro.core.errors import FieldNotFoundError, MessageError, StarlinkError, TranslationError
from repro.core.mdl.base import create_composer, create_parser
from repro.core.message import AbstractMessage, PrimitiveField, StructuredField
from repro.core.translation.functions import default_translation_registry
from repro.core.translation.logic import Assignment, MessageFieldRef, TranslationLogic
from repro.evaluation import workloads
from repro.network.addressing import Endpoint, Transport
from repro.network.sockets import loopback_available
from repro.protocols.http.mdl import http_mdl
from repro.protocols.mdns.mdl import mdns_mdl
from repro.protocols.slp.mdl import slp_mdl
from repro.protocols.ssdp.mdl import ssdp_mdl
from reference_utils import runs_references
from ring_utils import counted

CASES = sorted(BRIDGE_BUILDERS)
_CONTEXT = {
    "bridge_endpoints": {"HTTP": ("bridge.local", 8080), "SLP": ("bridge.local", 427)},
    "bridge_host": "bridge.local",
}


# ----------------------------------------------------------------------
# helpers: message shape, both translation stacks
# ----------------------------------------------------------------------
def _shape(field):
    if isinstance(field, StructuredField):
        return (field.label, "struct", tuple(_shape(child) for child in field.fields))
    return (field.label, field.type_name, field.length_bits, field.value)


def _message_shape(message: AbstractMessage):
    return (message.name, tuple(_shape(field) for field in message.fields))


def _outcome(run, target: AbstractMessage, instances, context, strict):
    """What one translation stack did: the error (if any) and the message."""
    copies = {name: instance.copy() for name, instance in instances.items()}
    error = None
    try:
        run(target, copies, context=context, strict=strict)
    except StarlinkError as exc:
        error = (type(exc).__name__, str(exc))
    return error, _message_shape(target), {n: _message_shape(m) for n, m in copies.items()}


def _assert_stacks_agree(logic, target_name, instances, context, strict, prefill=()):
    outcomes = []
    for run in (logic.apply, logic.interpret):
        target = AbstractMessage(target_name, [field.copy() for field in prefill])
        outcomes.append(_outcome(run, target, instances, context, strict))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


_values = st.one_of(
    st.integers(min_value=0, max_value=70000),
    st.text(alphabet="abcxyz:/._-0123456789 ", max_size=24),
    st.sampled_from(
        [
            "service:test",
            "urn:schemas-upnp-org:service:test:1",
            "_test._tcp.local",
            "http://10.0.0.7:9000/service",
            "<root><URLBase>http://10.0.0.7:9000/d.xml</URLBase></root>",
            "",
            None,
        ]
    ),
)


@st.composite
def _instances_for(draw, logic: TranslationLogic, target_name: str):
    """Source instances for one target: any message or field may be missing."""
    wanted = {}
    for assignment in logic.assignments_for(target_name):
        wanted.setdefault(assignment.source.message, []).append(assignment.source.field)
    instances = {}
    for message_name, fields in wanted.items():
        if not draw(st.booleans()) and draw(st.booleans()):
            continue  # a quarter of the time the source message is absent
        message = AbstractMessage(message_name)
        for label in dict.fromkeys(fields):
            if draw(st.integers(0, 5)) == 0:
                continue
            message.set(label, draw(_values))
        instances[message_name] = message
    return instances


# ----------------------------------------------------------------------
# translation plan == reference interpreter: the six bridges' logics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", CASES)
@settings(max_examples=40)
@given(data=st.data())
def test_bridge_logic_plan_matches_interpreter(case, data):
    logic = BRIDGE_BUILDERS[case]().merged.translation
    targets = list(dict.fromkeys(a.target.message for a in logic.assignments))
    target_name = data.draw(st.sampled_from(targets))
    instances = data.draw(_instances_for(logic, target_name))
    strict = data.draw(st.booleans())
    context = data.draw(st.sampled_from([_CONTEXT, None, {}]))
    _assert_stacks_agree(logic, target_name, instances, context, strict)


@pytest.mark.parametrize("case", CASES)
def test_bridge_logic_full_instances_translate_identically(case):
    """The happy path, deterministically: every source field present."""
    logic = BRIDGE_BUILDERS[case]().merged.translation
    for target_name in dict.fromkeys(a.target.message for a in logic.assignments):
        instances = {}
        for assignment in logic.assignments_for(target_name):
            message = instances.setdefault(
                assignment.source.message, AbstractMessage(assignment.source.message)
            )
            message.set(assignment.source.field, "http://10.0.0.7:9000/service")
        error, shape, _ = _assert_stacks_agree(
            logic, target_name, instances, _CONTEXT, strict=True
        )
        assert error is None
        assert len(shape[1]) == len(
            {a.target.field for a in logic.assignments_for(target_name)}
        )


# ----------------------------------------------------------------------
# translation plan == reference interpreter: generated logics
# ----------------------------------------------------------------------
_MESSAGES = ["M0", "M1"]
_FLAT_PATHS = ["a", "b", "c", " a ", "S"]
_PATHS = _FLAT_PATHS + [
    "S.x",
    "S.y",
    "a.x",
    "/field/primitiveField[label='a']/value",
    "/field/structuredField[label='S']/primitiveField[label='x']/value",
    "/nonsense",
    "",
    ".",
]
_FUNCTIONS = [
    (None, ()),
    ("", ()),
    ("identity", ()),
    ("to_int", ()),
    ("to_str", ()),
    ("constant", ("k",)),
    ("constant", ()),
    ("prefix", ("p-",)),
    ("bridge_http_location", ("HTTP", "/d.xml")),
    ("bridge_http_location", ("nowhere",)),
    ("no_such_function", ()),
    ("boom", ()),
    ("scribble", ()),
]


def _boom(value, **_):
    raise ValueError(f"boom on {value!r}")


def _scribble(value, **kwargs):
    # A function that mutates what it was handed must not leak into the
    # next assignment on either stack (each call gets its own context).
    seen = kwargs["context"].get("seen", 0)
    kwargs["context"]["seen"] = seen + 1
    return f"{value}:{seen}"


def _registry():
    registry = default_translation_registry()
    registry.register("boom", _boom)
    registry.register("scribble", _scribble)
    return registry


#: Flat labels (what the plan lowers) twice as likely as everything else.
_paths = st.one_of(st.sampled_from(_FLAT_PATHS), st.sampled_from(_PATHS))


@st.composite
def _generated_logic(draw):
    logic = TranslationLogic(functions=_registry())
    for _ in range(draw(st.integers(1, 6))):
        function, arguments = draw(st.sampled_from(_FUNCTIONS))
        logic.add_assignment(
            Assignment(
                MessageFieldRef(draw(st.sampled_from(_MESSAGES)), draw(_paths)),
                MessageFieldRef(draw(st.sampled_from(_MESSAGES)), draw(_paths)),
                function,
                arguments,
            )
        )
    return logic


@st.composite
def _generated_message(draw, name: str):
    message = AbstractMessage(name)
    for label in ("a", "b", "c"):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            continue
        message.add_field(PrimitiveField(label, "String", None, draw(_values)))
        if kind == 3:  # a duplicate label: first match must win on both stacks
            message.add_field(PrimitiveField(label, "Integer", 16, draw(_values)))
    if draw(st.booleans()):
        structured = StructuredField("S")
        for child in ("x", "y"):
            if draw(st.booleans()):
                structured.add(PrimitiveField(child, "String", None, draw(_values)))
        message.add_field(structured)
    return message


class _Replay:
    """Stands in for ``st.data()`` in an ``@example``: hands out the given
    draws in order, whatever strategy is asked for."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def draw(self, strategy, label=None):
        return self._draws.pop(0)


#: ``M0.S.x = M0.S`` with no source instances: the source is the target's
#: own structured ``S``, which once became the value of its child ``x`` (a
#: message containing itself: comparing its shape recursed forever).
_SELF_CONTAINING = Assignment(
    MessageFieldRef("M0", "/field/structuredField[label='S']/primitiveField[label='x']/value"),
    MessageFieldRef("M0", "S"),
)


def _self_containing_example():
    logic = TranslationLogic(functions=_registry())
    logic.add_assignment(_SELF_CONTAINING)
    prefill = AbstractMessage("M0", [StructuredField("S", [PrimitiveField("x", value="v")])])
    # logic, target, no M0 / M1 instances, a prefill, non-strict
    return _Replay(logic, "M0", False, False, True, prefill, False)


@settings(max_examples=300)
@given(data=st.data())
@example(data=_self_containing_example())
def test_generated_logic_plan_matches_interpreter(data):
    logic = data.draw(_generated_logic())
    target_name = data.draw(st.sampled_from(_MESSAGES))
    instances = {
        name: data.draw(_generated_message(name))
        for name in _MESSAGES
        if data.draw(st.booleans())
    }
    prefill = data.draw(_generated_message(target_name)).fields if data.draw(st.booleans()) else ()
    strict = data.draw(st.booleans())
    _assert_stacks_agree(logic, target_name, instances, dict(_CONTEXT), strict, prefill)


# ----------------------------------------------------------------------
# the error contract, spelled out
# ----------------------------------------------------------------------
def _logic(*assignments) -> TranslationLogic:
    logic = TranslationLogic()
    for target, source, *rest in assignments:
        logic.assign(target, source, *rest)
    return logic


def test_strict_missing_source_message_same_error():
    logic = _logic(("Out.a", "In.a"))
    error, _, _ = _assert_stacks_agree(logic, "Out", {}, None, strict=True)
    assert error == (
        "TranslationError",
        "no instance of source message 'In' available for assignment Out.a = In.a",
    )
    assert _assert_stacks_agree(logic, "Out", {}, None, strict=False)[0] is None


def test_strict_missing_source_field_same_error():
    logic = _logic(("Out.a", "In.a", "to_int"))
    instances = {"In": AbstractMessage("In")}
    error, _, _ = _assert_stacks_agree(logic, "Out", instances, None, strict=True)
    assert error == (
        "TranslationError",
        "source field missing for assignment Out.a = to_int(In.a)",
    )
    assert _assert_stacks_agree(logic, "Out", instances, None, strict=False)[0] is None


def test_structured_target_same_message_error():
    logic = _logic(("Out.S", "In.a"))
    instances = {"In": AbstractMessage.from_dict("In", {"a": 1})}
    error, _, _ = _assert_stacks_agree(
        logic, "Out", instances, None, strict=False, prefill=[StructuredField("S")]
    )
    assert error == (
        "MessageError",
        "cannot assign a value to structured field 'S' of message 'Out'",
    )


def test_structured_source_for_a_primitive_slot_same_error():
    """A structured value never becomes a primitive's value: both stacks
    raise the same error, and a statically self-containing assignment is
    refused before anything runs."""
    prefill = [StructuredField("S", [PrimitiveField("x", value="v")])]
    logic = TranslationLogic()
    logic.add_assignment(_SELF_CONTAINING)
    error, _, _ = _assert_stacks_agree(logic, "M0", {}, None, strict=False, prefill=prefill)
    expected = (
        "MessageError",
        f"assignment {_SELF_CONTAINING} would store structured field 'S' as a primitive value",
    )
    assert error == expected
    with pytest.raises(MessageError) as caught:
        logic.validate()
    assert str(caught.value) == expected[1]
    # Flat labels (the plan's slot copies) are held to the same rule.
    flat = _logic(("Out.a", "In.S"))
    instances = {"In": AbstractMessage("In", [StructuredField("S")])}
    error, _, _ = _assert_stacks_agree(flat, "Out", instances, None, strict=False)
    assert error == (
        "MessageError",
        "assignment Out.a = In.S would store structured field 'S' as a primitive value",
    )
    flat.validate()  # another message: not decidable statically


def test_bridge_validate_rejects_a_self_containing_assignment():
    bridge = BRIDGE_BUILDERS[2]()
    bridge.validate()
    target = bridge.merged.translation.assignments[0].target.message
    bridge.merged.translation.assign(f"{target}.S.x", f"{target}.S")
    with pytest.raises(MessageError, match="would store structured field 'S'"):
        bridge.validate()


def test_unknown_and_failing_functions_same_error():
    instances = {"In": AbstractMessage.from_dict("In", {"a": "x"})}
    error, _, _ = _assert_stacks_agree(
        _logic(("Out.a", "In.a", "no_such_function")), "Out", instances, None, False
    )
    assert error == ("TranslationError", "unknown translation function 'no_such_function'")
    error, _, _ = _assert_stacks_agree(
        _logic(("Out.a", "In.a", "to_int")), "Out", instances, None, False
    )
    assert error == ("TranslationError", "cannot convert 'x' to an integer")


def test_self_sourced_assignment_reads_the_target():
    logic = _logic(("Out.a", "In.a"), ("Out.b", "Out.a", "prefix", "copy-"))
    instances = {"In": AbstractMessage.from_dict("In", {"a": "v"})}
    error, shape, _ = _assert_stacks_agree(logic, "Out", instances, None, strict=True)
    assert error is None
    assert [field[0] for field in shape[1]] == ["a", "b"]
    assert shape[1][1][3] == "copy-v"


@pytest.mark.parametrize(
    "odd, label",
    [
        (("Out.URL.port", "In.S.x"), "URL"),
        (("Out./field/primitiveField[label='c']/value", "In.a"), "c"),
        (("Out.c", "Out.a", "prefix", "copy-"), "c"),
        (("Out.c", "In.a", "shout"), "c"),
    ],
    ids=["dotted", "xpath", "self-sourced", "user-function"],
)
def test_a_target_the_translator_cannot_hold_is_interpreted(odd, label):
    """One assignment the generated translator cannot keep in locals — a
    dotted or XPath path, a self-sourced or a user-function one — hands
    the whole target to ``interpret``, and the result (message, or error
    text in strict mode) is still the interpreter's."""
    functions = default_translation_registry()
    functions.register("shout", lambda value, **_: str(value).upper())
    logic = TranslationLogic(functions=functions)
    for target, source, *rest in [("Out.a", "In.a"), odd, ("Out.b", "In.a")]:
        logic.assign(target, source, *rest)
    assert logic._translator_for("Out") == logic.interpret
    source = AbstractMessage.from_dict("In", {"a": "v", "S.x": 8080})
    error, shape, _ = _assert_stacks_agree(logic, "Out", {"In": source}, None, True)
    assert error is None
    assert [field[0] for field in shape[1]] == ["a", label, "b"]
    error, _, _ = _assert_stacks_agree(logic, "Out", {}, None, True)
    assert error == (
        "TranslationError",
        "no instance of source message 'In' available for assignment Out.a = In.a",
    )


# ----------------------------------------------------------------------
# plan cache: shared, and dropped by every mutator
# ----------------------------------------------------------------------
def _apply(logic, instances):
    return logic.apply(AbstractMessage("Out"), instances).values()


def test_plan_is_lowered_once_and_reused():
    logic = _logic(("Out.a", "In.a"), ("Out.b", "In.a"))
    generated = []
    generate = logic._generate
    logic._generate = lambda name: generated.append(name) or generate(name)
    instances = {"In": AbstractMessage.from_dict("In", {"a": 1})}
    logic.lower()
    logic.lower()
    assert generated == ["Out"]
    translator = logic._translators["Out"]
    assert _apply(logic, instances) == _apply(logic, instances) == {"a": 1, "b": 1}
    assert generated == ["Out"] and logic._translators["Out"] is translator


def test_assign_and_add_assignment_invalidate_the_plan():
    logic = _logic(("Out.a", "In.a"))
    instances = {"In": AbstractMessage.from_dict("In", {"a": 1, "b": 2})}
    assert _apply(logic, instances) == {"a": 1}
    logic.assign("Out.b", "In.b")
    assert _apply(logic, instances) == {"a": 1, "b": 2}
    logic.add_assignment(Assignment(MessageFieldRef("Out", "c"), MessageFieldRef("In", "a")))
    assert _apply(logic, instances) == {"a": 1, "b": 2, "c": 1}


def test_registry_register_invalidates_the_plan():
    logic = _logic(("Out.a", "In.a", "shout"))
    instances = {"In": AbstractMessage.from_dict("In", {"a": "v"})}
    with pytest.raises(TranslationError, match="unknown translation function 'shout'"):
        _apply(logic, instances)
    logic.functions.register("shout", lambda value, **_: str(value).upper())
    assert _apply(logic, instances) == {"a": "V"}
    logic.functions.register("shout", lambda value, **_: str(value) + "!")
    assert _apply(logic, instances) == {"a": "v!"}
    # Swapping the whole registry is noticed too.
    logic.functions = default_translation_registry()
    with pytest.raises(TranslationError, match="unknown translation function 'shout'"):
        _apply(logic, instances)


def test_a_re_registered_constant_is_called_not_folded():
    logic = _logic(("Out.a", "In.a", "constant", "k"), ("Out.b", "In.a", "constant", "k"))
    instances = {"In": AbstractMessage.from_dict("In", {"a": "v"})}
    assert _apply(logic, instances) == {"a": "k", "b": "k"}
    calls = []

    def constant(value, **kwargs):
        calls.append(value)
        return f"{kwargs['arguments'][0]}!"

    logic.functions.register("constant", constant)
    assert _apply(logic, instances) == {"a": "k!", "b": "k!"}
    assert calls == ["v", "v"]
    _assert_stacks_agree(logic, "Out", instances, None, strict=True)


def test_a_function_mutating_its_context_does_not_leak_into_the_next_call():
    logic = _logic(("Out.a", "In.a", "scribble"), ("Out.b", "In.a", "scribble"))
    logic.functions.register("scribble", _scribble)
    instances = {"In": AbstractMessage.from_dict("In", {"a": "v"})}
    context = {"seen": 5}
    target = logic.apply(AbstractMessage("Out"), instances, context=context)
    assert target.values() == {"a": "v:5", "b": "v:5"}
    assert context == {"seen": 5}
    _assert_stacks_agree(logic, "Out", instances, {"seen": 5}, strict=True)


def test_value_mode_sources_are_read_by_slot_and_an_unlaid_label_is_absent():
    request = AbstractMessage.from_dict("SLP_SrvReq", {"XID": 7, "SRVType": "service:test"})
    parsed = create_parser(slp_mdl()).parse(create_composer(slp_mdl()).compose(request))
    assert parsed._schema is not None and not parsed.has("Nope")
    logic = _logic(
        ("Out.a", "SLP_SrvReq.XID"),
        ("Out.b", "SLP_SrvReq.Nope"),
        ("Out.c", "SLP_SrvReq.SRVType", "prefix", "p-"),
    )
    error, shape, _ = _assert_stacks_agree(logic, "Out", {"SLP_SrvReq": parsed}, None, False)
    assert error is None and [field[3] for field in shape[1]] == [7, "p-service:test"]
    error, shape, _ = _assert_stacks_agree(logic, "Out", {"SLP_SrvReq": parsed}, None, True)
    assert error == (
        "TranslationError",
        "source field missing for assignment Out.b = SLP_SrvReq.Nope",
    )
    assert [field[0] for field in shape[1]] == ["a"]


@pytest.mark.parametrize("case", [2, 6])
def test_a_value_mode_message_edited_through_fields_composes_as_interpreted(case):
    """Parsed and translated messages arrive in value mode; an edit through
    ``fields`` switches them to fields, and the compiled composer must then
    write the edit exactly as the interpreted one does."""
    bridge = BRIDGE_BUILDERS[case]()
    logic = bridge.merged.translation
    spec = mdns_mdl() if case == 2 else slp_mdl()
    composers = (create_composer(spec), create_composer(spec, interpreted=True))
    parser = create_parser(spec)
    source_spec = slp_mdl() if case == 2 else mdns_mdl()
    request = AbstractMessage.from_dict(
        source_spec.messages[0].name,
        {"XID": 77, "ID": 77, "SRVType": "service:test", "DomainName": "_test._tcp.local",
         "LangTag": "en", "QType": 16, "QClass": 1},
    )
    wire = create_composer(source_spec).compose(request)
    instances = {request.name: create_parser(source_spec).parse(wire)}
    target = logic.apply(AbstractMessage(spec.messages[0].name), instances, _CONTEXT)
    messages = [target, parser.parse(composers[1].compose(target))]
    for message in messages:
        assert message._schema is not None
        untouched = [composer.compose(message.copy()) for composer in composers]
        assert untouched[0] == untouched[1]
        edited = message.copy()
        first = edited.fields[0]
        first.value = first.value + 1 if isinstance(first.value, int) else f"{first.value}x"
        assert edited._schema is None and edited.get(first.label) == first.value
        wires = [composer.compose(edited) for composer in composers]
        assert wires[0] == wires[1] != untouched[0]


def test_field_ref_parses_its_path_once():
    ref = MessageFieldRef("M", "URL.port")
    assert ref.path() is ref.path()
    assert ref.path().labels == ["URL", "port"]
    assert ref == MessageFieldRef("M", "URL.port") and hash(ref) == hash(
        MessageFieldRef("M", "URL.port")
    )
    with pytest.raises(MessageError):
        MessageFieldRef("M", "").path()


# ----------------------------------------------------------------------
# the message label index
# ----------------------------------------------------------------------
def _scan(message: AbstractMessage, label: str):
    for field in message.fields:
        if field.label == label:
            return field
    return None


def test_index_resolves_duplicates_to_the_first_field():
    message = AbstractMessage(
        "m", [PrimitiveField("a", value=1), PrimitiveField("b", value=2), PrimitiveField("a", value=3)]
    )
    assert message.get("a") == 1
    message.set("a", 9)
    assert [field.value for field in message.fields] == [9, 2, 3]
    message.add_field(PrimitiveField("b", value=4))
    assert message["b"] == 2


def test_index_follows_direct_fields_edits():
    message = AbstractMessage.from_dict("m", {"a": 1})
    assert message.has("a") and not message.has("z")
    message.fields.append(PrimitiveField("z", value=26))
    assert message.get("z") == 26
    message.fields.append(PrimitiveField("a", value=2))
    assert message.get("a") == 1
    del message.fields[1:]
    assert not message.has("z")
    assert message.labels() == ["a"]
    message.fields.append(PrimitiveField("y", value=25))
    assert message.get("y") == 25 and message.field_index().keys() == {"a", "y"}


def test_absent_field_answers_without_raising_but_field_still_raises():
    message = AbstractMessage.from_dict("m", {"a": 1, "S.x": 2})
    assert message.find("nope") is None and message.find("S.nope") is None
    assert message.find("a.x") is None and not message.has("a.x")
    assert message.get("nope", "fallback") == "fallback"
    for path in ("nope", "S.nope", "a.x"):
        with pytest.raises(FieldNotFoundError) as caught:
            message.field(path)
        assert str(caught.value) == repr(f"field path '{path}' not found in message 'm'")
        with pytest.raises(KeyError):
            message[path]
    # A top-level label that contains a dot stays invisible to dotted paths.
    message.add_field(PrimitiveField("p.q", value=3))
    assert not message.has("p.q")


_LABELS = st.sampled_from(["a", "b", "c", "d"])


@settings(max_examples=150)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "set", "append", "truncate", "probe"]), _LABELS, st.integers(0, 9)),
        max_size=25,
    )
)
def test_index_agrees_with_a_first_match_scan(ops):
    message = AbstractMessage("m")
    for op, label, value in ops:
        if op == "add":
            message.add_field(PrimitiveField(label, value=value))
        elif op == "set":
            expected = _scan(message, label)
            message.set(label, value)
            assert (_scan(message, label) is expected) or expected is None
        elif op == "append":
            message.fields.append(PrimitiveField(label, value=value))
        elif op == "truncate":
            del message.fields[value:]
        for probe in ("a", "b", "c", "d"):
            assert message.find(probe) is _scan(message, probe)
            assert message.has(probe) == (_scan(message, probe) is not None)
    assert message.copy() == message


@pytest.mark.parametrize("builder", [slp_mdl, mdns_mdl, ssdp_mdl, http_mdl])
def test_parsed_messages_arrive_with_a_correct_index(builder):
    spec = builder()
    parser, composer = create_parser(spec), create_composer(spec)
    for message_spec in spec.messages:
        parsed = parser.parse(composer.compose(AbstractMessage(message_spec.name)))
        # A binary parse arrives in value mode: its index is built with its fields.
        fields = parsed.fields
        assert parsed._indexed == len(fields)
        for field in parsed.fields:
            assert parsed._index[field.label] is _scan(parsed, field.label)
        assert set(parsed._index) == set(parsed.labels())
        parsed.fields.append(PrimitiveField("Late", value=1))
        assert parsed.get("Late") == 1


def test_text_parser_hands_the_index_over_before_a_dotted_label():
    wire = (
        b"M-SEARCH * HTTP/1.1\r\nST: first\r\nURL.port: 80\r\nST: second\r\nX: y\r\n\r\n"
    )
    compiled = create_parser(ssdp_mdl()).parse(wire)
    reference = create_parser(ssdp_mdl(), interpreted=True).parse(wire)
    assert _message_shape(compiled) == _message_shape(reference)
    assert compiled.get("ST") == "second" and compiled.get("URL.port") == "80"
    for label in compiled.labels():
        assert compiled.find(label) is _scan(compiled, label)


# ----------------------------------------------------------------------
# automaton step plans
# ----------------------------------------------------------------------
def _step_shape(step):
    return (step.receives, step.deltas, step.send)


@pytest.mark.parametrize("case", CASES)
def test_cached_steps_equal_the_transition_scan(case):
    merged = BRIDGE_BUILDERS[case]().merged
    for automaton_name, automaton in merged.automata.items():
        for state_name in automaton.states:
            key = (automaton_name, state_name)
            step = merged.step(key)
            assert _step_shape(step) == _step_shape(merged.scan_step(key))
            assert merged.step(key) is step
            assert list(step.deltas) == merged.deltas_from(*key)
            assert all(
                planned is scanned
                for planned, scanned in zip(step.deltas, merged.deltas_from(*key))
            )
            receives = automaton.transitions_from(state_name, Action.RECEIVE)
            assert set(step.receives) == {t.message for t in receives}
            sends = automaton.transitions_from(state_name, Action.SEND)
            assert step.send == (sends[0] if sends else None)


def test_step_plans_are_dropped_by_model_mutation():
    merged = BRIDGE_BUILDERS[2]().merged
    key = merged.initial_state
    before = merged.step(key)
    assert "Extra" not in before.receives

    automaton = merged.automaton(key[0])
    automaton.add_state("extra", automaton.state(key[1]).color)
    automaton.receive(key[1], "Extra", "extra")
    after = merged.step(key)
    assert after is not before and after.receives["Extra"].target == "extra"

    other = next(name for name in merged.automaton_names if name != key[0])
    target = f"{other}.{merged.automaton(other).initial_state}"
    delta = merged.add_delta(f"{key[0]}.extra", target)
    assert merged.step((key[0], "extra")).deltas == (delta,)


# ----------------------------------------------------------------------
# engines side by side: plans vs the references
# ----------------------------------------------------------------------
def _record_sends(network):
    """Every datagram put on the (simulated) wire, in order."""
    wire = []
    send = network.send

    def recording_send(data, source, destination, delay=0.0):
        wire.append((bytes(data), str(source), str(destination)))
        return send(data, source=source, destination=destination, delay=delay)

    network.send = recording_send
    return wire


def _simulated_run(scenario, engines):
    wire = _record_sends(scenario.network)
    result = scenario.run()
    scenario.network.run()
    assert result.all_found
    deployment = scenario.bridge
    return {
        "wire": wire,
        "replies": {c.name: tuple(c.raw_responses) for c in scenario.clients},
        "sessions": sorted(
            (tuple(r.received_names), tuple(r.sent_names), str(r.client))
            for r in deployment.sessions
        ),
        "unrouted": deployment.unrouted_datagrams,
        "ignored": deployment.ignored_datagrams,
        "parse_failures": sum(
            counted(engine.parse_failure_count, engine.parse_failures)
            for engine in engines(deployment)
        ),
        "evicted": sum(
            counted(engine.evicted_count, engine.evicted_sessions)
            for engine in engines(deployment)
        ),
    }


@pytest.mark.parametrize("case", CASES)
def test_single_engine_plans_match_interpreted_engine(case, reference_engines):
    runs = []
    for reference in (False, True):
        reference_engines(reference)
        scenario = workloads.concurrent_scenario(case, clients=5)
        assert runs_references(scenario.bridge.engine) is reference
        runs.append(_simulated_run(scenario, lambda bridge: [bridge.engine]))
    assert runs[0] == runs[1]
    assert runs[0]["unrouted"] == 0 and runs[0]["evicted"] == 0


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("case", CASES)
def test_sharded_plans_match_interpreted_workers(case, workers, reference_engines):
    runs = []
    for reference in (False, True):
        reference_engines(reference)
        scenario = workloads.sharded_scenario(case, clients=8, workers=workers)
        assert all(runs_references(w) is reference for w in scenario.bridge.workers)
        run = _simulated_run(scenario, lambda runtime: runtime.workers)
        router = scenario.bridge.metrics().router
        run["routed"] = router.routed_datagrams
        run["echoes"] = router.echoes_dropped
        runs.append(run)
    assert runs[0] == runs[1]
    assert runs[0]["unrouted"] == 0 and runs[0]["evicted"] == 0


def test_garbage_and_duplicates_are_counted_identically(reference_engines):
    """The reject and ignore paths, not only the happy one: a garbage flood
    and retransmitted requests leave the same conserved counters."""
    garbage = [b"", b"\xff\xff garbage", b"junk\r\n", bytes(range(40))]
    group = Endpoint("239.255.255.253", 427, Transport.UDP)
    runs = []
    for reference in (False, True):
        reference_engines(reference)
        scenario = workloads.sharded_scenario(2, clients=6, workers=4)
        network, runtime = scenario.network, scenario.bridge
        assert all(runs_references(w) is reference for w in runtime.workers)
        wire = _record_sends(network)
        source = Endpoint("attacker.local", 9999, Transport.UDP)
        for payload in garbage * 3:
            network.send(payload, source=source, destination=group)
        result = scenario.run()
        # Retransmit every request once its session is mid-flight or done.
        requests = [entry for entry in wire if entry[2].endswith(":427")][len(garbage) * 3 :]
        for data, _, _ in requests:
            network.send(data, source=source, destination=group)
        network.run()
        assert result.all_found
        router = runtime.metrics().router
        runs.append(
            {
                "failures": counted(runtime.parse_failure_count, runtime.parse_failures),
                "routed": router.routed_datagrams,
                "unrouted": router.unrouted_datagrams + runtime.unrouted_datagrams,
                "ignored": runtime.ignored_datagrams,
                "sessions": counted(runtime.completed_count, runtime.sessions),
                "active": runtime.active_session_count,
            }
        )
    assert runs[0] == runs[1]
    assert runs[0]["failures"] == len(garbage) * 3


@pytest.mark.skipif(
    not loopback_available(), reason="loopback sockets unavailable in this environment"
)
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("case", CASES)
def test_aio_plans_match_interpreted_workers(case, workers, reference_engines):
    runs = []
    for reference in (False, True):
        reference_engines(reference)
        live = workloads.live_sharded_scenario(
            case, clients=4, workers=workers, processing_delay=0.0
        )
        runtime = live.runtime
        assert all(runs_references(w) is reference for w in runtime.workers)
        result = live.run(timeout=20.0)
        assert result.all_found
        assert not runtime.worker_errors
        runs.append(
            {
                "replies": live.raw_responses_by_client,
                "sessions": len(result.translation_times),
                "unrouted": result.unrouted_datagrams,
                "ignored": result.ignored_datagrams,
            }
        )
    assert runs[0] == runs[1]
    assert runs[0]["unrouted"] == 0 and runs[0]["sessions"] >= 4
