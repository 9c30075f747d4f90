"""XML form of bridge specifications (merged automata + translation logic).

Fig. 8 of the paper shows translation logic expressed in XML; Fig. 5 shows
the complete merge specification with its three parts (message
equivalences, field assignments, δ-transitions).  This module defines the
``<Bridge>`` document that carries all three, so a complete
interoperability bridge can be shipped as data and loaded at runtime::

    <Bridge name="slp-to-bonjour" initial="SLP">
      <Automata>
        <AutomatonRef name="SLP"/>
        <AutomatonRef name="mDNS"/>
      </Automata>
      <Equivalences>
        <Equivalence left="DNS_Question" right="SLP_SrvReq"/>
      </Equivalences>
      <TranslationLogic>
        <Assignment function="service_type_to_dns">
          <Field>
            <Message>DNS_Question</Message>
            <Xpath>/field/primitiveField[label='DomainName']/value</Xpath>
          </Field>
          <Field>
            <Message>SLP_SrvReq</Message>
            <Xpath>/field/primitiveField[label='SRVType']/value</Xpath>
          </Field>
        </Assignment>
      </TranslationLogic>
      <DeltaTransitions>
        <Delta source="SLP.s11" target="mDNS.s40"/>
        <Delta source="mDNS.s42" target="SLP.s11">
          <Action name="set_host">
            <Argument message="SSDP_Resp" field="IP"/>
          </Action>
        </Delta>
      </DeltaTransitions>
    </Bridge>

As in Fig. 8, the *first* ``<Field>`` of an assignment is the target and the
second is the source.  The ``<Xpath>`` child uses the paper's XPath notation;
a ``<Path>`` child with a dotted path is accepted as an alternative.

Because the component automata are separate documents (see
:mod:`repro.core.automata.xml_loader`), loading a bridge takes the already
loaded automata as input and wires them into a
:class:`~repro.core.automata.merge.MergedAutomaton`.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

from ..errors import TranslationError
from ..fieldpath import FieldPath
from .logic import Assignment, MessageFieldRef, TranslationLogic

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from ..automata.colored import ColoredAutomaton
    from ..automata.merge import MergedAutomaton

__all__ = ["load_bridge", "loads_bridge", "dump_bridge", "dumps_bridge"]


def loads_bridge(document: str, automata: Sequence["ColoredAutomaton"]) -> "MergedAutomaton":
    """Parse a ``<Bridge>`` document into a merged automaton.

    ``automata`` provides the component coloured automata referenced by the
    document's ``<AutomatonRef>`` entries.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise TranslationError(f"malformed bridge XML: {exc}") from exc
    return _from_element(root, automata)


def load_bridge(
    path: Union[str, "os.PathLike[str]"], automata: Sequence["ColoredAutomaton"]
) -> "MergedAutomaton":  # noqa: F821
    with open(path, "r", encoding="utf-8") as handle:
        return loads_bridge(handle.read(), automata)


def dumps_bridge(merged: "MergedAutomaton") -> str:
    """Serialise a merged automaton (with its translation logic) to XML."""
    root = _to_element(merged)
    _indent(root)
    return ET.tostring(root, encoding="unicode")


def dump_bridge(merged: "MergedAutomaton", path: Union[str, "os.PathLike[str]"]) -> None:  # noqa: F821
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_bridge(merged))


# ----------------------------------------------------------------------
# XML -> model
# ----------------------------------------------------------------------
def _field_ref_from_element(element: ET.Element) -> MessageFieldRef:
    message = (element.findtext("Message") or "").strip()
    state = (element.findtext("State") or "").strip()
    xpath = element.findtext("Xpath")
    path = element.findtext("Path")
    if xpath:
        field = FieldPath(xpath.strip()).dotted
    elif path:
        field = path.strip()
    else:
        raise TranslationError("assignment <Field> needs an <Xpath> or <Path> child")
    if not message:
        raise TranslationError("assignment <Field> needs a <Message> child")
    return MessageFieldRef(message=message, field=field, state=state)


def _from_element(root: ET.Element, automata: Sequence["ColoredAutomaton"]) -> "MergedAutomaton":
    from ..automata.merge import LambdaAction, MergedAutomaton

    if root.tag != "Bridge":
        raise TranslationError(f"expected <Bridge> root element, got <{root.tag}>")
    name = root.get("name", "bridge")
    available: Dict[str, "ColoredAutomaton"] = {a.name: a for a in automata}

    referenced: List["ColoredAutomaton"] = []
    automata_element = root.find("Automata")
    if automata_element is not None:
        for reference in automata_element.findall("AutomatonRef"):
            reference_name = reference.get("name", "")
            if reference_name not in available:
                raise TranslationError(
                    f"bridge '{name}' references unknown automaton '{reference_name}'"
                )
            referenced.append(available[reference_name])
    else:
        referenced = list(automata)

    translation = TranslationLogic()
    equivalences_element = root.find("Equivalences")
    if equivalences_element is not None:
        for equivalence in equivalences_element.findall("Equivalence"):
            translation.declare_equivalent(
                equivalence.get("left", ""), equivalence.get("right", "")
            )

    logic_element = root.find("TranslationLogic")
    if logic_element is not None:
        for assignment_element in logic_element.findall("Assignment"):
            fields = assignment_element.findall("Field")
            if len(fields) != 2:
                raise TranslationError(
                    "each <Assignment> needs exactly two <Field> children "
                    "(target first, source second)"
                )
            function = assignment_element.get("function") or None
            arguments = tuple(
                (argument.text or "").strip()
                for argument in assignment_element.findall("FunctionArgument")
            )
            translation.add_assignment(
                Assignment(
                    target=_field_ref_from_element(fields[0]),
                    source=_field_ref_from_element(fields[1]),
                    function=function,
                    function_arguments=arguments,
                )
            )

    translation.validate()
    merged = MergedAutomaton(
        name,
        referenced,
        translation=translation,
        initial_automaton=root.get("initial") or referenced[0].name,
    )

    deltas_element = root.find("DeltaTransitions")
    if deltas_element is not None:
        for delta_element in deltas_element.findall("Delta"):
            actions: List["LambdaAction"] = []
            for action_element in delta_element.findall("Action"):
                arguments = tuple(
                    MessageFieldRef(
                        message=argument.get("message", ""),
                        field=argument.get("field", ""),
                        state=argument.get("state", ""),
                    )
                    for argument in action_element.findall("Argument")
                )
                actions.append(LambdaAction(action_element.get("name", ""), arguments))
            merged.add_delta(
                delta_element.get("source", ""),
                delta_element.get("target", ""),
                actions,
            )
    return merged


# ----------------------------------------------------------------------
# model -> XML
# ----------------------------------------------------------------------
def _field_ref_to_element(reference: MessageFieldRef) -> ET.Element:
    element = ET.Element("Field")
    message = ET.SubElement(element, "Message")
    message.text = reference.message
    if reference.state:
        state = ET.SubElement(element, "State")
        state.text = reference.state
    xpath = ET.SubElement(element, "Xpath")
    xpath.text = FieldPath(reference.field).xpath
    return element


def _to_element(merged: "MergedAutomaton") -> ET.Element:
    root = ET.Element(
        "Bridge", {"name": merged.name, "initial": merged.initial_automaton.name}
    )
    automata_element = ET.SubElement(root, "Automata")
    for automaton_name in merged.automaton_names:
        ET.SubElement(automata_element, "AutomatonRef", {"name": automaton_name})

    translation = merged.translation
    if translation.equivalences:
        equivalences_element = ET.SubElement(root, "Equivalences")
        for left, right in translation.equivalences:
            ET.SubElement(equivalences_element, "Equivalence", {"left": left, "right": right})

    if translation.assignments:
        logic_element = ET.SubElement(root, "TranslationLogic")
        for assignment in translation.assignments:
            attributes = {}
            if assignment.function:
                attributes["function"] = assignment.function
            assignment_element = ET.SubElement(logic_element, "Assignment", attributes)
            assignment_element.append(_field_ref_to_element(assignment.target))
            assignment_element.append(_field_ref_to_element(assignment.source))
            for argument in assignment.function_arguments:
                argument_element = ET.SubElement(assignment_element, "FunctionArgument")
                argument_element.text = argument

    if merged.deltas:
        deltas_element = ET.SubElement(root, "DeltaTransitions")
        for delta in merged.deltas:
            delta_element = ET.SubElement(
                deltas_element,
                "Delta",
                {
                    "source": f"{delta.source_automaton}.{delta.source_state}",
                    "target": f"{delta.target_automaton}.{delta.target_state}",
                },
            )
            for action in delta.actions:
                action_element = ET.SubElement(delta_element, "Action", {"name": action.name})
                for argument in action.arguments:
                    attributes = {"message": argument.message, "field": argument.field}
                    if argument.state:
                        attributes["state"] = argument.state
                    ET.SubElement(action_element, "Argument", attributes)
    return root


def _indent(element: ET.Element, level: int = 0) -> None:
    pad = "\n" + "  " * level
    if len(element):
        if not element.text or not element.text.strip():
            element.text = pad + "  "
        for child in element:
            _indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        if not element[-1].tail or not element[-1].tail.strip():
            element[-1].tail = pad
    elif level and (not element.tail or not element.tail.strip()):
        element.tail = pad
