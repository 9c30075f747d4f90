"""Baseline interoperability mechanisms for the ablation benchmarks.

The related-work section of the paper contrasts Starlink with two
established approaches:

* **hand-coded software bridges** (Section II-B): a developer writes the
  byte-level translation between one fixed protocol pair;
* **Enterprise Service Buses** (Section II-B): every protocol is mapped to
  a common intermediary representation and back.

Neither is a *runtime* solution — that is Starlink's contribution — but
they are useful ablation baselines for the question "what does interpreting
high-level models at runtime cost compared to dedicated code?".  This
module implements both for the SLP -> Bonjour direction:

* :class:`HandCodedSlpToBonjourBridge` packs and unpacks the wire formats
  with hard-wired ``struct``-style code and no MDL interpretation;
* :class:`EsbStyleSlpToBonjourBridge` routes the same translation through a
  generic intermediary dictionary (parse -> intermediary -> compose), the
  N-1-M pattern of an ESB.

Both expose ``translate_request`` / ``translate_response`` operating purely
on byte strings, which is what the ablation benchmark measures.
"""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from ..core.mdl.base import create_composer, create_parser
from ..core.message import AbstractMessage
from ..protocols.mdns.mdl import DNS_QUESTION, mdns_mdl
from ..protocols.slp.mdl import SLP_SRVREPLY, slp_mdl

__all__ = ["HandCodedSlpToBonjourBridge", "EsbStyleSlpToBonjourBridge"]


def _encode_dns_name(name: str) -> bytes:
    out = bytearray()
    for label in name.strip(".").split("."):
        raw = label.encode("utf-8")
        out.append(len(raw))
        out.extend(raw)
    out.append(0)
    return bytes(out)


def _decode_dns_name(data: bytes, offset: int) -> Tuple[str, int]:
    labels = []
    while True:
        length = data[offset]
        offset += 1
        if length == 0:
            break
        labels.append(data[offset : offset + length].decode("utf-8"))
        offset += length
    return ".".join(labels), offset


def _service_type_to_dns(service_type: str) -> str:
    core = service_type.split(":")[-1] or "service"
    return f"_{core}._tcp.local"


class HandCodedSlpToBonjourBridge:
    """A dedicated, hand-written SLP -> Bonjour translator (no models)."""

    name = "hand-coded"

    def translate_request(self, slp_request: bytes) -> bytes:
        """SLP SrvRqst bytes -> DNS question bytes."""
        # SLP header: version(1) function(1) length(3) reserved(2) next-ext(3)
        # xid(2) lang-len(2) lang(n)
        xid = struct.unpack("!H", slp_request[10:12])[0]
        lang_length = struct.unpack("!H", slp_request[12:14])[0]
        offset = 14 + lang_length
        pr_length = struct.unpack("!H", slp_request[offset : offset + 2])[0]
        offset += 2 + pr_length
        srv_length = struct.unpack("!H", slp_request[offset : offset + 2])[0]
        offset += 2
        service_type = slp_request[offset : offset + srv_length].decode("utf-8")

        qname = _encode_dns_name(_service_type_to_dns(service_type))
        header = struct.pack("!HHHHHH", xid, 0, 1, 0, 0, 0)
        question = qname + struct.pack("!HH", 16, 1)
        return header + question

    def translate_response(self, dns_response: bytes, xid: int, lang: str = "en") -> bytes:
        """DNS response bytes -> SLP SrvRply bytes."""
        offset = 12
        _, offset = _decode_dns_name(dns_response, offset)
        _, _, _, rdlength = struct.unpack("!HHIH", dns_response[offset : offset + 10])
        offset += 10
        url = dns_response[offset : offset + rdlength]

        lang_raw = lang.encode("utf-8")
        body = struct.pack("!HHHH", 0, 1, 65535, len(url)) + url
        header_without_length = (
            struct.pack("!BB", 2, 2)
            + b"\x00\x00\x00"  # length placeholder
            + struct.pack("!H", 0)
            + b"\x00\x00\x00"
            + struct.pack("!H", xid)
            + struct.pack("!H", len(lang_raw))
            + lang_raw
        )
        total = len(header_without_length) + len(body)
        header = bytearray(header_without_length)
        header[2:5] = total.to_bytes(3, "big")
        return bytes(header) + body


class EsbStyleSlpToBonjourBridge:
    """An ESB-style translator: protocol -> intermediary dict -> protocol.

    The intermediary is the "greatest common subset" representation the
    paper criticises: only the fields every discovery protocol shares
    (a service type, a transaction id, a service URL) survive the mapping.
    """

    name = "esb-intermediary"

    def __init__(self) -> None:
        self._slp_parser = create_parser(slp_mdl())
        self._slp_composer = create_composer(slp_mdl())
        self._dns_parser = create_parser(mdns_mdl())
        self._dns_composer = create_composer(mdns_mdl())

    # -- protocol -> intermediary ----------------------------------------
    def request_to_intermediary(self, slp_request: bytes) -> Dict[str, object]:
        message = self._slp_parser.parse(slp_request)
        return {
            "kind": "lookup",
            "service": str(message.get("SRVType", "")),
            "transaction": int(message.get("XID", 0) or 0),
        }

    def response_to_intermediary(self, dns_response: bytes) -> Dict[str, object]:
        message = self._dns_parser.parse(dns_response)
        return {
            "kind": "result",
            "url": str(message.get("RDATA", "")),
            "transaction": int(message.get("ID", 0) or 0),
        }

    # -- intermediary -> protocol ----------------------------------------
    def intermediary_to_dns_question(self, intermediary: Dict[str, object]) -> bytes:
        question = AbstractMessage(DNS_QUESTION, protocol="mDNS")
        question.set("ID", int(intermediary.get("transaction", 0)), type_name="Integer")
        question.set("Flags", 0, type_name="Integer")
        question.set("QDCount", 1, type_name="Integer")
        question.set(
            "DomainName",
            _service_type_to_dns(str(intermediary.get("service", ""))),
            type_name="FQDN",
        )
        question.set("QType", 16, type_name="Integer")
        question.set("QClass", 1, type_name="Integer")
        return self._dns_composer.compose(question)

    def intermediary_to_slp_reply(self, intermediary: Dict[str, object]) -> bytes:
        reply = AbstractMessage(SLP_SRVREPLY, protocol="SLP")
        reply.set("XID", int(intermediary.get("transaction", 0)), type_name="Integer")
        reply.set("LangTag", "en", type_name="String")
        reply.set("ErrorCode", 0, type_name="Integer")
        reply.set("URLCount", 1, type_name="Integer")
        reply.set("Lifetime", 65535, type_name="Integer")
        reply.set("URLEntry", str(intermediary.get("url", "")), type_name="String")
        return self._slp_composer.compose(reply)

    # -- end to end -------------------------------------------------------
    def translate_request(self, slp_request: bytes) -> bytes:
        return self.intermediary_to_dns_question(self.request_to_intermediary(slp_request))

    def translate_response(self, dns_response: bytes, xid: int, lang: str = "en") -> bytes:
        intermediary = self.response_to_intermediary(dns_response)
        intermediary["transaction"] = xid
        return self.intermediary_to_slp_reply(intermediary)
