"""Packet ingestion from classic pcap files and packet CSV.

The pcap reader understands the classic libpcap container only: a 24-byte
global header (magic 0xA1B2C3D4 for microsecond timestamps, 0xA1B23C4D for
nanosecond, either byte order) followed by 16-byte per-record headers.  The
link type must be Ethernet (1).  pcapng input is rejected as BadMagic.

Only IPv4 TCP/UDP packets become PacketRecords.  Every other record is
counted in the capture summary instead of being emitted:

* ``packets_skipped_non_ip``: frames that do not carry IPv4 at all (ARP,
  IPv6, double-tagged VLAN, frames too short or mangled to hold an IPv4
  header).
* ``packets_skipped_unsupported_protocol``: IPv4 frames whose transport
  layer is unusable for conversation keying (protocol other than TCP/UDP,
  non-first fragments, transport header cut off by the snap length).

One level of 802.1Q VLAN tagging is unwrapped; deeper nesting is skipped.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass
from ipaddress import AddressValueError, IPv4Address
from typing import Iterable

from .errors import (
    BadMagic,
    Ipv6Unsupported,
    RowError,
    SchemaMismatch,
    UnsupportedLinkType,
)

TCP = 6
UDP = 17
SUPPORTED_PROTOCOLS = (TCP, UDP)

PACKET_CSV_HEADER = [
    "timestamp", "src_addr", "src_port", "dst_addr", "dst_port",
    "protocol", "wire_bytes",
]

_MAGIC_MICROS = 0xA1B2C3D4
_MAGIC_NANOS = 0xA1B23C4D

#: The four leading byte sequences a classic pcap file can start with.
PCAP_MAGICS = frozenset(
    struct.pack(order + "I", magic)
    for order in ("<", ">")
    for magic in (_MAGIC_MICROS, _MAGIC_NANOS)
)

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_VLAN = 0x8100


@dataclass(frozen=True)
class PacketRecord:
    """One captured packet, reduced to the fields conversation keying needs."""

    timestamp: float
    src_addr: str
    src_port: int
    dst_addr: str
    dst_port: int
    protocol: int
    wire_bytes: int


@dataclass
class CaptureSummary:
    packets_read: int = 0
    packets_skipped_non_ip: int = 0
    packets_skipped_unsupported_protocol: int = 0
    capture_start: float = 0.0
    capture_end: float = 0.0
    # None, "truncated_header" or "truncated_record"; truncation is not fatal,
    # records parsed before the cut are still returned.
    error: str | None = None

    @property
    def truncated(self) -> bool:
        return self.error is not None


def ip_to_u32(addr: str) -> int:
    """Dotted-quad IPv4 address as its big-endian 32-bit integer value."""
    return int(IPv4Address(addr))


def u32_to_ip(value: int) -> str:
    return str(IPv4Address(value))


def parse_pcap(data) -> tuple[list[PacketRecord], CaptureSummary]:
    """Parse a classic pcap byte stream into IPv4 TCP/UDP packet records.

    Accepts bytes or a binary file object.  Raises BadMagic for anything
    that is not a classic pcap file and UnsupportedLinkType for link types
    other than Ethernet.  A file that ends mid-structure is flagged in the
    summary instead of raising.
    """
    buf = data.read() if hasattr(data, "read") else bytes(data)
    if len(buf) < 4:
        raise BadMagic("input shorter than a pcap magic number")

    byte_order = None
    ts_divisor = None
    for order in ("<", ">"):
        magic = struct.unpack(order + "I", buf[:4])[0]
        if magic == _MAGIC_MICROS:
            byte_order, ts_divisor = order, 1e6
            break
        if magic == _MAGIC_NANOS:
            byte_order, ts_divisor = order, 1e9
            break
    if byte_order is None:
        raise BadMagic(f"unrecognized magic {buf[:4].hex()}")

    summary = CaptureSummary()
    if len(buf) < 24:
        summary.error = "truncated_header"
        return [], summary

    _vmaj, _vmin, _zone, _sigfigs, _snaplen, network = struct.unpack(
        byte_order + "HHiIII", buf[4:24]
    )
    if network != 1:
        raise UnsupportedLinkType(f"link type {network}, only Ethernet (1) is supported")

    records: list[PacketRecord] = []
    offset = 24
    first_ts = None
    last_ts = None
    while offset < len(buf):
        if len(buf) - offset < 16:
            summary.error = "truncated_record"
            break
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack(
            byte_order + "IIII", buf[offset:offset + 16]
        )
        if len(buf) - offset - 16 < incl_len:
            summary.error = "truncated_record"
            break
        frame = buf[offset + 16:offset + 16 + incl_len]
        offset += 16 + incl_len

        timestamp = ts_sec + ts_frac / ts_divisor
        if first_ts is None:
            first_ts = timestamp
        last_ts = timestamp

        record = _decode_frame(frame, timestamp, orig_len, summary)
        if record is not None:
            records.append(record)
            summary.packets_read += 1

    if first_ts is not None:
        summary.capture_start = first_ts
        summary.capture_end = max(first_ts, last_ts)
    return records, summary


def _decode_frame(frame: bytes, timestamp: float, orig_len: int,
                  summary: CaptureSummary) -> PacketRecord | None:
    """Decode one Ethernet frame; update skip counters when unusable."""
    if len(frame) < 14:
        summary.packets_skipped_non_ip += 1
        return None
    ethertype = struct.unpack(">H", frame[12:14])[0]
    ip_start = 14
    if ethertype == _ETHERTYPE_VLAN:
        if len(frame) < 18:
            summary.packets_skipped_non_ip += 1
            return None
        ethertype = struct.unpack(">H", frame[16:18])[0]
        ip_start = 18
        if ethertype == _ETHERTYPE_VLAN:  # no second unwrap
            summary.packets_skipped_non_ip += 1
            return None
    if ethertype != _ETHERTYPE_IPV4:
        summary.packets_skipped_non_ip += 1
        return None

    ip = frame[ip_start:]
    if len(ip) < 1 or ip[0] >> 4 != 4:
        summary.packets_skipped_non_ip += 1
        return None
    if len(ip) < 20:
        # IPv4 by version nibble, but the header was cut by the snap length.
        summary.packets_skipped_unsupported_protocol += 1
        return None
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20:
        summary.packets_skipped_non_ip += 1
        return None

    frag_offset = struct.unpack(">H", ip[6:8])[0] & 0x1FFF
    protocol = ip[9]
    if frag_offset != 0 or protocol not in SUPPORTED_PROTOCOLS:
        summary.packets_skipped_unsupported_protocol += 1
        return None
    if len(ip) < ihl + 4:
        # ports unreadable: options or transport header beyond the capture
        summary.packets_skipped_unsupported_protocol += 1
        return None

    src_port, dst_port = struct.unpack(">HH", ip[ihl:ihl + 4])
    return PacketRecord(
        timestamp=timestamp,
        src_addr=str(IPv4Address(ip[12:16])),
        src_port=src_port,
        dst_addr=str(IPv4Address(ip[16:20])),
        dst_port=dst_port,
        protocol=protocol,
        wire_bytes=orig_len,
    )


def read_pcap(path) -> tuple[list[PacketRecord], CaptureSummary]:
    with open(path, "rb") as fh:
        return parse_pcap(fh)


# -- packet CSV ---------------------------------------------------------------

def _parse_address(text: str, line: int, column: str) -> str:
    if ":" in text:
        raise Ipv6Unsupported(line, f"{column} {text!r} looks like IPv6")
    try:
        return str(IPv4Address(text))
    except (AddressValueError, ValueError):
        raise RowError(line, f"{column} {text!r} is not an IPv4 address") from None


def _parse_int(text: str, line: int, column: str, lo: int, hi: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise RowError(line, f"{column} {text!r} is not an integer") from None
    if not lo <= value <= hi:
        raise RowError(line, f"{column} {value} outside {lo}..{hi}")
    return value


def _parse_packet_row(row: list[str], line: int) -> PacketRecord:
    if len(row) != len(PACKET_CSV_HEADER):
        raise RowError(line, f"expected {len(PACKET_CSV_HEADER)} fields, got {len(row)}")
    try:
        timestamp = float(row[0])
    except ValueError:
        raise RowError(line, f"timestamp {row[0]!r} is not a number") from None
    if not math.isfinite(timestamp) or timestamp < 0:
        raise RowError(line, f"timestamp {row[0]!r} must be finite and non-negative")
    protocol = _parse_int(row[5], line, "protocol", 0, 255)
    if protocol not in SUPPORTED_PROTOCOLS:
        raise RowError(line, f"protocol {protocol} is not TCP (6) or UDP (17)")
    return PacketRecord(
        timestamp=timestamp,
        src_addr=_parse_address(row[1], line, "src_addr"),
        src_port=_parse_int(row[2], line, "src_port", 0, 65535),
        dst_addr=_parse_address(row[3], line, "dst_addr"),
        dst_port=_parse_int(row[4], line, "dst_port", 0, 65535),
        protocol=protocol,
        wire_bytes=_parse_int(row[6], line, "wire_bytes", 1, 2**31 - 1),
    )


def _csv_rows(text, header: list[str], what: str):
    """``(line, row)`` per data row of CSV text or a text file; checks the header."""
    reader = csv.reader(io.StringIO(text) if isinstance(text, str) else text)
    try:
        found = next(reader)
    except StopIteration:
        raise SchemaMismatch(f"empty input, expected a {what} CSV header") from None
    if found != header:
        raise SchemaMismatch(
            f"bad header {','.join(found)!r}, expected {','.join(header)!r}"
        )
    return enumerate(reader, start=2)


def _csv_text(header: list[str], rows: Iterable[list]) -> str:
    """CSV text of a header line and the given rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _read_packet_csv(text, strict: bool) -> tuple[list[PacketRecord], int]:
    records = []
    skipped = 0
    for line, row in _csv_rows(text, PACKET_CSV_HEADER, "packet"):
        try:
            records.append(_parse_packet_row(row, line))
        except RowError:
            if strict:
                raise
            skipped += 1
    return records, skipped


def parse_packet_csv(text) -> list[PacketRecord]:
    """Parse packet CSV (header: timestamp,src_addr,...,wire_bytes).

    Raises SchemaMismatch for a wrong header and RowError (with line number)
    for any invalid data row.
    """
    return _read_packet_csv(text, strict=True)[0]


def parse_packet_csv_lenient(text) -> tuple[list[PacketRecord], int]:
    """Like parse_packet_csv but bad rows are skipped and counted, not fatal.

    The header must still match; a replay source with the wrong schema is a
    configuration error rather than noise.
    """
    return _read_packet_csv(text, strict=False)


def write_packet_csv(records: Iterable[PacketRecord]) -> str:
    """Serialize packet records; timestamps keep full float precision."""
    return _csv_text(PACKET_CSV_HEADER, (
        [repr(r.timestamp), r.src_addr, r.src_port, r.dst_addr, r.dst_port,
         r.protocol, r.wire_bytes]
        for r in records
    ))
