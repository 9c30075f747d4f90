"""Datagrams the bridge's SLP endpoint must reject (``reject_w1``).

The first six are ``repro.evaluation.micro.GARBAGE_CORPUS`` — empty,
truncated binary, non-UTF-8 text, counting bytes — copied here so the
benchmark does not depend on the evaluation package.  The rest are
well-formed messages of the *other* protocols the bridges speak, and an
SLP header cut short: the things a multicast-listening bridge really does
receive on the wrong port.
"""

from typing import Tuple

GARBAGE_CORPUS: Tuple[bytes, ...] = (
    b"",
    b"\x00",
    b"\xff" * 3,
    b"junk\r\n",
    b"\xff\xfe\x00utf",
    bytes(range(40)),
    # SSDP M-SEARCH
    b"M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n"
    b'MAN: "ssdp:discover"\r\nMX: 3\r\nST: urn:schemas-upnp-org:service:test:1\r\n\r\n',
    # mDNS question for _test._tcp.local, TXT/IN
    b"\x12\x34\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
    b"\x05_test\x04_tcp\x05local\x00\x00\x10\x00\x01",
    # HTTP GET
    b"GET /description.xml HTTP/1.1\r\nHost: 127.0.0.1:21401\r\nConnection: close\r\n\r\n",
    # SLPv2 header announcing a SrvRqst, cut off before the body
    b"\x02\x01\x00\x00\x31\x00\x00\x00\x00\x00\x12\x34\x00\x02en",
)
