"""Differential tests: compiled MDL codecs against the interpreters.

The compiled hot path claims strict behaviour preservation, so every test
here is a two-stack comparison rather than a golden value: random messages
must compose to byte-identical wire output and parse back value-identically,
random garbage must raise the same :class:`ParseError` (class *and* text),
and a ``PROBE_REJECT`` verdict of the first-bytes discriminator must imply
the interpreted parser raises.  Alongside the hypothesis properties, this
module pins the deploy-layer contracts: artifacts cached per read-only
spec, cache invalidation on mutation, ``load_mdl`` memoisation, the
``interpreted=True`` codec factories, and the classify counters.
"""

from __future__ import annotations

import os
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")

from repro.bridges.specs import slp_to_bonjour_bridge
from repro.core.errors import ParseError
from repro.core.mdl.base import create_composer, create_parser
from repro.core.mdl.binary import BinaryMessageComposer, BinaryMessageParser
from repro.core.mdl.compiled import (
    PROBE_MATCH,
    PROBE_REJECT,
    CompiledBinaryComposer,
    CompiledBinaryParser,
    CompiledTextComposer,
    CompiledTextParser,
    compiled_artifacts,
    discriminator_for,
)
from repro.core.mdl.spec import (
    FieldSpec,
    HeaderSpec,
    MDLKind,
    MDLSpec,
    MessageRule,
    MessageSpec,
    SizeSpec,
)
from repro.core.mdl.text import TextMessageParser
from repro.core.mdl.xml_loader import clear_mdl_cache, dump_mdl, load_mdl
from repro.core.message import AbstractMessage
from repro.network.addressing import Endpoint, Transport
from repro.protocols.http.mdl import HTTP_OK, http_mdl
from repro.protocols.mdns.mdl import DNS_RESPONSE, mdns_mdl
from repro.protocols.slp.mdl import SLP_SRVREQ, slp_mdl
from repro.protocols.ssdp.mdl import SSDP_MSEARCH, ssdp_mdl
from reference_utils import runs_references
from ring_utils import counted

_TEXTCHARS = string.ascii_letters + string.digits + ".-_:/ *"
_SLP_MULTICAST = Endpoint("239.255.255.253", 427, Transport.UDP)


def _both_stacks(builder):
    """(compiled parser, compiled composer, interpreted parser, interpreted
    composer) built from independent spec objects."""
    compiled_spec, interpreted_spec = builder(), builder()
    return (
        create_parser(compiled_spec),
        create_composer(compiled_spec),
        create_parser(interpreted_spec, interpreted=True),
        create_composer(interpreted_spec, interpreted=True),
    )


def _assert_identical(builder, message):
    c_parser, c_composer, i_parser, i_composer = _both_stacks(builder)
    wire = c_composer.compose(message)
    assert wire == i_composer.compose(message)
    compiled = c_parser.parse(wire)
    interpreted = i_parser.parse(wire)
    assert compiled.name == interpreted.name
    assert compiled.values() == interpreted.values()
    assert c_composer.compose(compiled) == i_composer.compose(interpreted)


# ----------------------------------------------------------------------
# hypothesis: byte-identical round trips
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.text(alphabet=_TEXTCHARS, max_size=20),
    st.text(alphabet=_TEXTCHARS, max_size=60),
)
def test_slp_round_trip_identical(version, xid, lang, srv_type):
    message = AbstractMessage(SLP_SRVREQ)
    message.set("Version", version, type_name="Integer")
    message.set("XID", xid, type_name="Integer")
    message.set("LangTag", lang)
    message.set("SRVType", srv_type)
    _assert_identical(slp_mdl, message)


@given(
    st.lists(
        st.text(
            alphabet=string.ascii_lowercase + string.digits + "_-",
            min_size=1,
            max_size=20,
        ),
        max_size=4,
    ),
    st.text(alphabet=_TEXTCHARS, max_size=60),
)
def test_dns_round_trip_identical(labels, rdata):
    message = AbstractMessage(DNS_RESPONSE)
    message.set("AnswerName", ".".join(labels), type_name="FQDN")
    message.set("RDATA", rdata)
    _assert_identical(mdns_mdl, message)


@given(
    st.text(alphabet=_TEXTCHARS, max_size=30),
    st.text(alphabet=_TEXTCHARS, max_size=60),
)
def test_ssdp_round_trip_identical(uri, st_header):
    message = AbstractMessage(SSDP_MSEARCH)
    message.set("URI", uri)
    message.set("Version", "HTTP/1.1")
    message.set("ST", st_header)
    _assert_identical(ssdp_mdl, message)


@given(st.text(alphabet=_TEXTCHARS + "<>=\"\n", max_size=200))
def test_http_round_trip_identical(body):
    message = AbstractMessage(HTTP_OK)
    message.set("URI", "200")
    message.set("Version", "OK")
    message.set("Body", body)
    _assert_identical(http_mdl, message)


# ----------------------------------------------------------------------
# hypothesis: garbage parity and discriminator soundness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("builder", [slp_mdl, mdns_mdl, ssdp_mdl, http_mdl])
@given(data=st.binary(max_size=60))
def test_garbage_outcome_identical(builder, data):
    c_parser, _, i_parser, _ = _both_stacks(builder)
    outcomes = []
    for parser in (c_parser, i_parser):
        try:
            parsed = parser.parse(data)
            outcomes.append(("ok", parsed.name, parsed.values()))
        except ParseError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("builder", [slp_mdl, mdns_mdl, ssdp_mdl, http_mdl])
@given(data=st.binary(max_size=60))
def test_discriminator_reject_is_sound(builder, data):
    spec = builder()
    discriminator = discriminator_for(spec)
    assert discriminator is not None  # all four shipped specs qualify
    if discriminator.probe(data) == PROBE_REJECT:
        with pytest.raises(ParseError):
            create_parser(builder(), interpreted=True).parse(data)


def test_discriminator_matches_valid_prefixes():
    for builder, sample in (
        (slp_mdl, _slp_wire()),
        (ssdp_mdl, b"M-SEARCH * HTTP/1.1\r\n\r\n"),
    ):
        discriminator = discriminator_for(builder())
        assert discriminator.probe(sample) == PROBE_MATCH


def _slp_wire() -> bytes:
    message = AbstractMessage(SLP_SRVREQ)
    message.set("Version", 2, type_name="Integer")
    message.set("XID", 9, type_name="Integer")
    message.set("LangTag", "en")
    message.set("SRVType", "service:test")
    return create_composer(slp_mdl()).compose(message)


# ----------------------------------------------------------------------
# codec selection: defaults, escape hatch, fallback
# ----------------------------------------------------------------------
def test_compiled_classes_selected_by_default():
    assert isinstance(create_parser(slp_mdl()), CompiledBinaryParser)
    assert isinstance(create_composer(slp_mdl()), CompiledBinaryComposer)
    assert isinstance(create_parser(ssdp_mdl()), CompiledTextParser)
    assert isinstance(create_composer(ssdp_mdl()), CompiledTextComposer)


def test_interpreted_escape_hatch_selects_interpreters():
    assert isinstance(create_parser(slp_mdl(), interpreted=True), BinaryMessageParser)
    assert isinstance(
        create_composer(slp_mdl(), interpreted=True), BinaryMessageComposer
    )
    assert isinstance(create_parser(ssdp_mdl(), interpreted=True), TextMessageParser)


def test_uncompilable_spec_falls_back_to_interpreter():
    # A 4-bit header field is not byte-aligned: the compiler must decline
    # and hand back the interpreted classes rather than approximate.
    spec = MDLSpec(protocol="TINY", kind=MDLKind.BINARY)
    spec.header = HeaderSpec(
        protocol="TINY", fields=[FieldSpec("Nibble", SizeSpec.fixed(4))]
    )
    message = MessageSpec(name="TinyMsg")
    message.rule = MessageRule.parse("Nibble=1")
    spec.add_message(message)
    assert isinstance(create_parser(spec), BinaryMessageParser)
    assert isinstance(create_composer(spec), BinaryMessageComposer)
    assert discriminator_for(spec) is None


@pytest.mark.parametrize("function", ["f-constant(7)", "f-count(Scopes)"])
def test_other_field_functions_compose_through_the_interpreter(function):
    # Only f-length and f-total-length are inlined; any other field
    # function keeps the composer on the interpreter.
    spec = MDLSpec(protocol="FN", kind=MDLKind.BINARY)
    spec.header = HeaderSpec(
        protocol="FN",
        fields=[FieldSpec("Kind", SizeSpec.fixed(8)), FieldSpec("Tag", SizeSpec.fixed(8))],
    )
    spec.add_type("Kind", "Integer")
    spec.add_type("Tag", f"Integer[{function}]")
    message = MessageSpec(name="FnMsg")
    message.rule = MessageRule.parse("Kind=1")
    spec.add_message(message)
    assert isinstance(create_composer(spec), BinaryMessageComposer)


# ----------------------------------------------------------------------
# the per-spec artifact cache
# ----------------------------------------------------------------------
def test_artifacts_cached_per_spec_object():
    spec = slp_mdl()
    assert compiled_artifacts(spec) is compiled_artifacts(spec)
    assert create_parser(spec) is create_parser(spec)
    assert create_composer(spec) is create_composer(spec)


def test_invalidate_codecs_drops_the_cache():
    spec = slp_mdl()
    before = create_parser(spec)
    spec.invalidate_codecs()
    after = create_parser(spec)
    assert before is not after


def test_spec_mutation_invalidates_the_cache():
    spec = ssdp_mdl()
    before = compiled_artifacts(spec)
    spec.add_type("Extra", "String")
    assert compiled_artifacts(spec) is not before


def test_separate_spec_objects_do_not_share_artifacts():
    assert create_parser(slp_mdl()) is not create_parser(slp_mdl())


# ----------------------------------------------------------------------
# load_mdl memoisation
# ----------------------------------------------------------------------
def test_load_mdl_memoised_on_unchanged_file(tmp_path):
    path = tmp_path / "slp.xml"
    dump_mdl(slp_mdl(), path)
    clear_mdl_cache()
    first = load_mdl(path)
    assert load_mdl(path) is first
    # The shared spec object shares its compiled artifacts too.
    assert create_parser(first) is create_parser(load_mdl(path))


def test_load_mdl_invalidated_by_file_change(tmp_path):
    path = tmp_path / "slp.xml"
    dump_mdl(slp_mdl(), path)
    clear_mdl_cache()
    first = load_mdl(path)
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
    assert load_mdl(path) is not first


def test_clear_mdl_cache_forces_reload(tmp_path):
    path = tmp_path / "slp.xml"
    dump_mdl(slp_mdl(), path)
    clear_mdl_cache()
    first = load_mdl(path)
    clear_mdl_cache()
    assert load_mdl(path) is not first


# ----------------------------------------------------------------------
# classify counters on the engine
# ----------------------------------------------------------------------
@pytest.fixture
def compiled_engine(network):
    return slp_to_bonjour_bridge().deploy(network)


def test_classify_hit_counts_discriminator(compiled_engine):
    engine = compiled_engine
    assert engine.classify(_slp_wire(), _SLP_MULTICAST) is not None
    assert engine.discriminator_hits == 1
    assert engine.discriminator_misses == 0
    assert engine.garbage_rejects == 0


def test_classify_garbage_counts_fast_reject(compiled_engine):
    engine = compiled_engine
    assert engine.classify(b"\xff\xff garbage", _SLP_MULTICAST, now=1.0) is None
    assert engine.garbage_rejects == 1
    assert engine.parse_failures  # rejected datagrams still leave a trace
    assert engine.parse_failures[-1][0] == 1.0


def test_classify_without_discriminator_counts_miss(compiled_engine):
    engine = compiled_engine
    engine._discriminators.clear()  # force the UNKNOWN trial-parse path
    assert engine.classify(_slp_wire(), _SLP_MULTICAST) is not None
    assert engine.discriminator_misses == 1
    assert engine.discriminator_hits == 0


def test_compiled_and_interpreted_engines_record_same_failure_count(
    fast_latencies, reference_engines
):
    # Two deploys need two networks: each bridge binds the same endpoints.
    from repro.network.simulated import SimulatedNetwork

    compiled = slp_to_bonjour_bridge().deploy(
        SimulatedNetwork(latencies=fast_latencies, seed=11)
    )
    reference_engines(True)
    interpreted = slp_to_bonjour_bridge().deploy(
        SimulatedNetwork(latencies=fast_latencies, seed=11)
    )
    assert not runs_references(compiled) and runs_references(interpreted)
    for data in (b"", b"\xff\xff garbage", bytes(range(40))):
        compiled.classify(data, _SLP_MULTICAST)
        interpreted.classify(data, _SLP_MULTICAST)
    assert counted(compiled.parse_failure_count, compiled.parse_failures) == counted(
        interpreted.parse_failure_count, interpreted.parse_failures
    )
