"""Aggregate packet streams into bidirectional conversations.

A conversation is the set of all packets exchanged between two
(address, port) endpoints under one transport protocol, regardless of
direction.  Endpoint A is whichever endpoint sent the conversation's
earliest packet.  There is no idle timeout: one key yields one
conversation per capture.

``aggregate`` keys each flow by (protocol, A, B) as its first packet
gives them and finds a later packet's flow under (protocol, src, dst),
then (protocol, dst, src).  Both readers give canonical dotted quads (pcap
via ``inet_ntoa``, CSV text that ``ip_to_u32`` accepts, which formats back
to itself), so equal strings mean equal addresses.  ``Conversation.key``,
the direction-free identity and sort order, parses them once per
conversation and raises ``AddressValueError`` on a bad one.

Conversation CSV prints the two time columns with 6 decimal places, so a
write/read round trip is lossless for microsecond-resolution times (the
native resolution of classic pcap); nanosecond captures are rounded on
export.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .capture import SUPPORTED_PROTOCOLS, PacketRecord, ip_to_u32
from .errors import ClockSkew, InvariantViolation, RowError
from . import capture as _capture

CONVERSATION_CSV_HEADER = [
    "protocol", "address_a", "port_a", "address_b", "port_b",
    "packets", "bytes", "packets_ab", "bytes_ab", "packets_ba", "bytes_ba",
    "rel_start", "duration",
]


class ConversationCsvWarning(UserWarning):
    """Raised (as a warning) by lenient CSV import when totals are recomputed."""


@dataclass(frozen=True)
class Conversation:
    """One bidirectional flow and its 13 attributes."""

    protocol: int
    address_a: str
    port_a: int
    address_b: str
    port_b: int
    packets: int
    bytes: int
    packets_ab: int
    bytes_ab: int
    packets_ba: int
    bytes_ba: int
    rel_start: float
    duration: float

    def key(self) -> tuple[int, int, int, int, int]:
        """``(address_lo, port_lo, address_hi, port_hi, protocol)``, addresses
        as u32, lower endpoint first: the same for A->B and B->A."""
        a = (ip_to_u32(self.address_a), self.port_a)
        b = (ip_to_u32(self.address_b), self.port_b)
        return (*min(a, b), *max(a, b), self.protocol)


_timestamp = itemgetter(0)     # PacketRecord.timestamp


class _FlowState:
    __slots__ = ("a_endpoint", "first_ts", "last_ts",
                 "packets_ab", "bytes_ab", "packets_ba", "bytes_ba")

    def __init__(self, a_endpoint: tuple[str, int], first_ts: float):
        self.a_endpoint = a_endpoint
        self.first_ts = first_ts
        self.last_ts = first_ts
        self.packets_ab = 0
        self.bytes_ab = 0
        self.packets_ba = 0
        self.bytes_ba = 0


def aggregate(packets: Iterable[PacketRecord],
              capture_start: float | None = None) -> list[Conversation]:
    """Group TCP/UDP packets into conversations.

    Packets are processed in ascending timestamp order (stable, so input
    order breaks ties).  ``capture_start`` anchors rel_start; when omitted
    the earliest timestamp is used.  A timestamp before an explicit
    capture_start raises ClockSkew with the offending input index.
    """
    pkts = list(packets)
    if not pkts:
        return []
    for i, p in enumerate(pkts):
        if p.protocol not in SUPPORTED_PROTOCOLS:
            raise ValueError(
                f"packet {i}: protocol {p.protocol} cannot be aggregated, "
                f"filter to TCP/UDP first"
            )
    if capture_start is None:
        capture_start = min(p.timestamp for p in pkts)
    else:
        for i, p in enumerate(pkts):
            if p.timestamp < capture_start:
                raise ClockSkew(
                    i, f"packet {i} at {p.timestamp} precedes capture start {capture_start}"
                )

    # Each record is unpacked once: a NamedTuple field read by name costs a
    # descriptor call per access.
    flows: dict[tuple, _FlowState] = {}
    for ts, src_addr, src_port, dst_addr, dst_port, protocol, wire_bytes in sorted(
            pkts, key=_timestamp):
        src, dst = (src_addr, src_port), (dst_addr, dst_port)
        state = flows.get((protocol, src, dst)) or flows.get((protocol, dst, src))
        if state is None:
            state = flows[protocol, src, dst] = _FlowState(src, ts)
        state.last_ts = ts
        if src == state.a_endpoint:
            state.packets_ab += 1
            state.bytes_ab += wire_bytes
        else:
            state.packets_ba += 1
            state.bytes_ba += wire_bytes

    conversations = []
    for (protocol, (a_addr, a_port), (b_addr, b_port)), st in flows.items():
        conversations.append(Conversation(
            protocol=protocol,
            address_a=a_addr,
            port_a=a_port,
            address_b=b_addr,
            port_b=b_port,
            packets=st.packets_ab + st.packets_ba,
            bytes=st.bytes_ab + st.bytes_ba,
            packets_ab=st.packets_ab,
            bytes_ab=st.bytes_ab,
            packets_ba=st.packets_ba,
            bytes_ba=st.bytes_ba,
            rel_start=st.first_ts - capture_start,
            duration=st.last_ts - st.first_ts,
        ))
    conversations.sort(key=lambda c: (c.rel_start, c.key()))
    return conversations


# -- CSV ----------------------------------------------------------------------

def _format_row(c: Conversation) -> list:
    return [
        c.protocol, c.address_a, c.port_a, c.address_b, c.port_b,
        c.packets, c.bytes, c.packets_ab, c.bytes_ab, c.packets_ba, c.bytes_ba,
        f"{c.rel_start:.6f}", f"{c.duration:.6f}",
    ]


def conversations_to_csv(conversations: Iterable[Conversation]) -> str:
    return _capture._csv_text(CONVERSATION_CSV_HEADER, map(_format_row, conversations))


def parse_conversation_fields(fields: Sequence[str], line: int,
                              strict: bool = True) -> Conversation:
    """Validate and build one conversation from its 13 CSV fields.

    Strict mode raises InvariantViolation when the totals disagree with the
    directional sums; lenient mode recomputes the totals and warns.
    """
    if len(fields) != 13:
        raise RowError(line, f"expected 13 fields, got {len(fields)}")
    protocol = _capture._parse_int(fields[0], line, "protocol", 0, 255)
    if protocol not in SUPPORTED_PROTOCOLS:
        raise RowError(line, f"protocol {protocol} is not TCP (6) or UDP (17)")
    address_a = _capture._parse_address(fields[1], line, "address_a")
    port_a = _capture._parse_int(fields[2], line, "port_a", 0, 65535)
    address_b = _capture._parse_address(fields[3], line, "address_b")
    port_b = _capture._parse_int(fields[4], line, "port_b", 0, 65535)
    counts = [
        _capture._parse_int(fields[i], line, CONVERSATION_CSV_HEADER[i], 0, 2**63 - 1)
        for i in range(5, 11)
    ]
    packets, nbytes, packets_ab, bytes_ab, packets_ba, bytes_ba = counts
    try:
        rel_start = float(fields[11])
        duration = float(fields[12])
    except ValueError:
        raise RowError(line, "rel_start/duration must be numbers") from None
    if not (math.isfinite(rel_start) and math.isfinite(duration)):
        raise RowError(line, "rel_start and duration must be finite")
    if rel_start < 0 or duration < 0:
        raise RowError(line, "rel_start and duration must be non-negative")
    if packets < 1:
        raise RowError(line, "a conversation holds at least one packet")

    if packets != packets_ab + packets_ba or nbytes != bytes_ab + bytes_ba:
        if strict:
            raise InvariantViolation(
                line,
                f"totals ({packets} pkts, {nbytes} bytes) disagree with the "
                f"directional sums ({packets_ab}+{packets_ba}, {bytes_ab}+{bytes_ba})",
            )
        warnings.warn(
            f"line {line}: totals recomputed from directional fields",
            ConversationCsvWarning,
            stacklevel=3,
        )
        packets = packets_ab + packets_ba
        nbytes = bytes_ab + bytes_ba
        if packets < 1:
            raise RowError(line, "a conversation holds at least one packet")

    return Conversation(
        protocol=protocol, address_a=address_a, port_a=port_a,
        address_b=address_b, port_b=port_b,
        packets=packets, bytes=nbytes,
        packets_ab=packets_ab, bytes_ab=bytes_ab,
        packets_ba=packets_ba, bytes_ba=bytes_ba,
        rel_start=rel_start, duration=duration,
    )


def csv_to_conversations(text, strict: bool = True) -> list[Conversation]:
    return [
        parse_conversation_fields(row, line, strict=strict)
        for line, row in _capture._csv_rows(text, CONVERSATION_CSV_HEADER,
                                            "conversation")
    ]
