"""Unit tests for abstract messages (Section III-A of the paper)."""

from __future__ import annotations

import pytest

from repro.core.errors import FieldNotFoundError, MessageError
from repro.core.message import AbstractMessage, MessageSchema, PrimitiveField, StructuredField


class TestPrimitiveField:
    def test_defaults(self):
        field = PrimitiveField("XID")
        assert field.label == "XID"
        assert field.type_name == "String"
        assert field.length_bits is None
        assert field.value is None

    def test_is_primitive(self):
        field = PrimitiveField("XID", "Integer", 16, 7)
        assert field.is_primitive and not field.is_structured

    def test_copy_is_independent(self):
        field = PrimitiveField("XID", "Integer", 16, 7)
        clone = field.copy()
        clone.value = 9
        assert field.value == 7


class TestStructuredField:
    def test_add_and_get(self):
        url = StructuredField("URL")
        url.add(PrimitiveField("protocol", value="http"))
        url.add(PrimitiveField("port", "Integer", 16, 80))
        assert url.get("port").value == 80
        assert url.labels() == ["protocol", "port"]

    def test_get_missing_raises(self):
        with pytest.raises(FieldNotFoundError):
            StructuredField("URL").get("port")

    def test_is_structured(self):
        assert StructuredField("URL").is_structured

    def test_copy_deep(self):
        url = StructuredField("URL", [PrimitiveField("port", "Integer", 16, 80)])
        clone = url.copy()
        clone.get("port").value = 81
        assert url.get("port").value == 80

    def test_iteration(self):
        url = StructuredField("URL", [PrimitiveField("a"), PrimitiveField("b")])
        assert [child.label for child in url] == ["a", "b"]

    def test_has(self):
        url = StructuredField("URL", [PrimitiveField("a")])
        assert url.has("a") and not url.has("z")


class TestAbstractMessage:
    def test_set_and_get_primitive(self):
        message = AbstractMessage("SLP_SrvReq")
        message.set("SRVType", "service:test")
        assert message.get("SRVType") == "service:test"
        assert message["SRVType"] == "service:test"

    def test_get_default_for_missing(self):
        message = AbstractMessage("m")
        assert message.get("missing", 42) == 42

    def test_getitem_missing_raises(self):
        with pytest.raises(FieldNotFoundError):
            AbstractMessage("m")["missing"]

    def test_setitem(self):
        message = AbstractMessage("m")
        message["XID"] = 5
        assert message["XID"] == 5

    def test_contains(self):
        message = AbstractMessage("m").set("a", 1)
        assert "a" in message and "b" not in message

    def test_set_overwrites_value(self):
        message = AbstractMessage("m").set("a", 1, type_name="Integer")
        message.set("a", 2, type_name="Integer")
        assert message["a"] == 2
        assert message.labels() == ["a"]

    def test_dotted_set_creates_structured_parent(self):
        message = AbstractMessage("m")
        message.set("URL.port", 80, type_name="Integer")
        message.set("URL.host", "example")
        url = message.field("URL")
        assert isinstance(url, StructuredField)
        assert message["URL.port"] == 80
        assert message["URL.host"] == "example"

    def test_dotted_set_overwrite(self):
        message = AbstractMessage("m")
        message.set("URL.port", 80)
        message.set("URL.port", 8080)
        assert message["URL.port"] == 8080

    def test_set_subfield_of_primitive_raises(self):
        message = AbstractMessage("m").set("a", 1)
        with pytest.raises(MessageError):
            message.set("a.b", 2)

    def test_set_primitive_over_structured_raises(self):
        message = AbstractMessage("m")
        message.set("URL.port", 80)
        with pytest.raises(MessageError):
            message.set("URL", "oops")

    def test_field_path_missing_raises(self):
        message = AbstractMessage("m")
        message.set("URL.port", 80)
        with pytest.raises(FieldNotFoundError):
            message.field("URL.host")
        with pytest.raises(FieldNotFoundError):
            message.field("URL.port.deep")

    def test_values_flattens_nested_fields(self):
        message = AbstractMessage("m")
        message.set("a", 1)
        message.set("URL.port", 80)
        assert message.values() == {"a": 1, "URL.port": 80}

    def test_mandatory_defaults_to_all_labels(self):
        message = AbstractMessage("m").set("a", 1).set("b", 2)
        assert message.mandatory_fields == ["a", "b"]

    def test_mark_mandatory(self):
        message = AbstractMessage("m").set("a", 1).set("b", 2)
        message.mark_mandatory("b")
        assert message.mandatory_fields == ["b"]

    def test_mark_mandatory_deduplicates(self):
        message = AbstractMessage("m", mandatory=["a"])
        message.mark_mandatory("a", "b")
        assert message.mandatory_fields == ["a", "b"]

    def test_copy_is_deep(self):
        message = AbstractMessage("m", protocol="SLP").set("URL.port", 80)
        clone = message.copy()
        clone.set("URL.port", 81)
        assert message["URL.port"] == 80
        assert clone.protocol == "SLP"

    def test_equality_by_name_and_values(self):
        a = AbstractMessage("m").set("x", 1)
        b = AbstractMessage("m").set("x", 1)
        c = AbstractMessage("m").set("x", 2)
        assert a == b
        assert a != c
        assert a != AbstractMessage("other").set("x", 1)

    def test_from_dict_round_trip(self):
        message = AbstractMessage.from_dict("m", {"a": 1, "b": "two"}, protocol="P")
        assert message.to_dict() == {"a": 1, "b": "two"}
        assert message.protocol == "P"
        assert message.field("a").type_name == "Integer"
        assert message.field("b").type_name == "String"

    def test_from_dict_with_dotted_paths(self):
        message = AbstractMessage.from_dict("m", {"URL.port": 80})
        assert message["URL.port"] == 80

    def test_add_field_returns_self(self):
        message = AbstractMessage("m")
        assert message.add_field(PrimitiveField("a", value=1)) is message
        assert message["a"] == 1

    def test_repr_contains_name(self):
        assert "SLP_SrvReq" in repr(AbstractMessage("SLP_SrvReq"))


class TestValueMode:
    """A message built over a schema answers from its slots, and switches to
    field objects once, on the first access that needs them."""

    def _message(self):
        schema = MessageSchema(["XID", "SRVType"], ["Integer", "String"])
        message = AbstractMessage.__new__(AbstractMessage)
        message.name, message.protocol = "SLP_SrvReq", "SLP"
        message._mandatory = ("XID",)  # shared, as a compiled parser shares it
        message._schema, message._values = schema, (7, "service:test")
        return message

    def test_reads_answer_from_the_slots(self):
        message = self._message()
        assert message.get("XID") == 7 and message["SRVType"] == "service:test"
        assert message.has("XID") and not message.has("XID.x") and "Nope" not in message
        assert message.get("Nope", "fallback") == "fallback"
        with pytest.raises(FieldNotFoundError):
            message["Nope"]
        assert message.labels() == ["XID", "SRVType"]
        assert message.values() == {"XID": 7, "SRVType": "service:test"}
        assert message.copy() == message and message.copy()._schema is message._schema
        assert message._schema is not None  # none of the above built fields

    def test_mark_mandatory_does_not_edit_the_shared_labels(self):
        message = self._message()
        shared = message._mandatory
        message.mark_mandatory("SRVType", "XID")
        assert message.mandatory_fields == ["XID", "SRVType"] and shared == ("XID",)

    def test_a_structural_access_builds_the_fields_once(self):
        message = self._message()
        fields = message.fields
        assert [(f.label, f.type_name, f.length_bits, f.value) for f in fields] == [
            ("XID", "Integer", None, 7),
            ("SRVType", "String", None, "service:test"),
        ]
        assert message._schema is None and message.fields is fields
        message.set("XID", 8, type_name="Integer")
        assert message.find("XID") is fields[0] and message.get("XID") == 8
