"""Packet ingestion from classic pcap files and packet CSV.

The pcap reader understands the classic libpcap container only: a 24-byte
global header (magic 0xA1B2C3D4 for microsecond timestamps, 0xA1B23C4D for
nanosecond, either byte order) followed by 16-byte per-record headers.  The
link type must be Ethernet (1).  pcapng input is rejected as BadMagic.

Only IPv4 TCP/UDP packets enter the packet table, however it is built.
The readers count every other record:

* ``packets_skipped_non_ip``: frames that do not carry IPv4 at all (ARP,
  IPv6, double-tagged VLAN, frames too short or mangled to hold an IPv4
  header).
* ``packets_skipped_unsupported_protocol``: IPv4 frames whose transport
  layer is unusable for conversation keying (protocol other than TCP/UDP,
  non-first fragments, transport header cut off by the snap length).

One level of 802.1Q VLAN tagging is unwrapped; deeper nesting is skipped.

Both readers return a ``PacketTable`` and a ``CaptureSummary``, and build
no ``PacketRecord``; the table builds them on access.

A CSV format (packet here, conversation and dataset in their modules) is
a dict from column name, in header order, to that column's reader,
``read(text, line, column) -> value``; ``_read_csv`` reads every format.

``parse_pcap`` reads a file in two passes.  The first walks the record
headers in Python, reading only each ``incl_len``, and collects the offset
of every whole record, 8 bytes each.  The second decodes the frames in
chunks of at most ``_CHUNK_FRAMES``.  Each record's first 54 bytes are
copied as one row out of a strided view of a buffer that holds the whole
row: the file itself, or, for the few records that start within 54 bytes
of its end, a zero-padded copy of its last bytes, decoded as one more
batch.  Bytes past the file's end read as zeros, and the length checks
throw them away.  Array operations then read the header words and the
Ethernet, VLAN, IPv4 and port fields of every row of a chunk at once,
boolean masks sort each frame into the table or a skip bucket, and the
kept frames' fields are copied into the table's columns.  The chunk bound
keeps the temporaries, about 150 bytes a frame, near 0.6 MB whatever the
capture's size.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
import socket
import struct
import sys
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from ipaddress import AddressValueError
from itertools import count
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
#: Protocol number -> whether the packet table holds it.
_SUPPORTED = np.isin(np.arange(256), SUPPORTED_PROTOCOLS)

#: The four leading byte sequences a classic pcap file can start with,
#: each mapped to its (byte order, timestamp divisor).
PCAP_MAGICS = {
    struct.pack(order + "I", magic): (order, divisor)
    for order in ("<", ">")
    for magic, divisor in ((0xA1B2C3D4, 1e6), (0xA1B23C4D, 1e9))
}

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_VLAN = 0x8100

#: Frames decoded per batch of array operations; bounds the temporaries
#: (about 150 bytes per frame: its 54-byte head row, then the fields and
#: masks decoded from it).
_CHUNK_FRAMES = 4096
#: Bytes read from each record's start as its head row: the 16-byte record
#: header, then the frame's first 38 bytes, enough for Ethernet, one 802.1Q
#: tag and a 20-byte IPv4 header.  The buffer a row is read from holds the
#: whole row; bytes past the file's end read as zeros, and the length
#: checks throw them away.
_HEAD_BYTES = 16 + 18 + 20


class PacketRecord(NamedTuple):
    """One captured packet, reduced to the fields conversation keying needs."""

    timestamp: float
    src_addr: str
    src_port: int
    dst_addr: str
    dst_port: int
    protocol: int
    wire_bytes: int


class _Table(Sequence):
    """Equal-length numpy columns of the class's ``_dtypes`` that read as a
    sequence of ``_row`` rows, the u32 addresses of columns 1 and 3 as
    dotted quads.  An index gives a row, a slice or an index array a table
    of those rows; a table equals any sequence of equal rows."""

    __slots__ = ("columns",)
    _row: Callable
    _values: Callable   # a row's values in column order
    _names: tuple       # the name of each column
    _dtypes: tuple      # the type of each column

    def __init__(self, columns: Iterable[np.ndarray]):
        self.columns = columns = tuple(columns)
        if not (len(columns) == len(self._dtypes) and all(
                isinstance(c, np.ndarray) and c.dtype == dtype and c.ndim == 1
                and len(c) == len(columns[0]) for c, dtype in zip(columns, self._dtypes))):
            raise ValueError(f"a {type(self).__name__} takes {len(self._dtypes)} equal-length "
                             "1-D arrays of its column types")

    @classmethod
    def of(cls, rows: Iterable):
        """``rows`` as a table: a table of this kind as it is, rows
        transposed once, with each distinct address parsed once.  A Python
        int its column cannot hold raises OverflowError, any other value
        its column would not store exactly ValueError (NaN stores as NaN)."""
        if isinstance(rows, cls):
            return rows
        columns = list(zip(*map(cls._values, rows))) or [()] * len(cls._dtypes)
        u32 = {text: ip_to_u32(text) for text in {*columns[1], *columns[3]}}
        columns[1] = [u32[a] for a in columns[1]]
        columns[3] = [u32[a] for a in columns[3]]
        arrays = list(map(np.array, columns, cls._dtypes))
        for name, column, given in zip(cls._names, arrays, columns):
            stored = column.tolist()
            if stored != list(given):
                for a, b in zip(stored, given):
                    if a != b and not (a != a and b != b):
                        raise ValueError(f"column {name} cannot hold {b!r} exactly")
        return cls(arrays)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        try:
            i = operator.index(index)
        except TypeError:
            return type(self)(column[index] for column in self.columns)
        values = [column.item(i) for column in self.columns]
        values[1], values[3] = u32_to_ip(values[1]), u32_to_ip(values[3])
        return self._row(*values)

    def __iter__(self):
        columns = [column.tolist() for column in self.columns]
        names = {value: u32_to_ip(value) for value in {*columns[1], *columns[3]}}
        columns[1] = map(names.__getitem__, columns[1])
        columns[3] = map(names.__getitem__, columns[3])
        return map(self._row, *columns)

    def __eq__(self, other):
        if isinstance(other, (_Table, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


class PacketTable(_Table):
    """Packets as seven columns in ``PacketRecord`` field order: float64
    timestamps, u32 addresses, u16 ports, u8 protocol, u32 wire bytes.
    However it is built, a timestamp below 0 or not finite, or a protocol
    other than TCP or UDP, raises ValueError."""

    __slots__ = ()
    _row = PacketRecord
    _values = tuple
    _names = PacketRecord._fields
    _dtypes = (np.float64, np.uint32, np.uint16, np.uint32, np.uint16,
               np.uint8, np.uint32)

    def __init__(self, columns: Iterable[np.ndarray]):
        super().__init__(columns)
        ts, protocol = self.columns[0], self.columns[5]
        if not (ts.min(initial=0.0) >= 0 and ts.max(initial=0.0) < np.inf):
            raise ValueError("packet timestamps must be finite and non-negative")
        supported = _SUPPORTED[protocol]    # take() would copy the indices as int64
        if not supported.all():
            i = int(supported.argmin())
            raise ValueError(f"packet {i}: protocol {protocol.item(i)} is not TCP (6) or UDP (17)")


@dataclass
class CaptureSummary:
    packets_read: int = 0
    packets_skipped_non_ip: int = 0
    packets_skipped_unsupported_protocol: int = 0
    rows_skipped_malformed: int = 0     # packet CSV rows, lenient reads only
    # None, "truncated_header" or "truncated_record"; truncation is not fatal,
    # records parsed before the cut are still returned.
    error: str | None = None


def ip_to_u32(addr: str) -> int:
    """Dotted-quad IPv4 address as its big-endian 32-bit integer value.

    Accepts the strings ``IPv4Address`` accepts: ``inet_aton`` also reads
    forms such as ``"10.1"`` or ``"010.0.0.1"``, so the address must
    format back to itself.
    """
    try:
        packed = socket.inet_aton(addr)
        if socket.inet_ntoa(packed) == addr:
            return int.from_bytes(packed, "big")
    except (OSError, ValueError):
        pass
    raise AddressValueError(f"{addr!r} is not a dotted-quad IPv4 address")


def u32_to_ip(value: int) -> str:
    """The dotted quad of a u32 address, interned: rows with equal
    addresses share one string.  A value outside 0..2**32-1 raises
    OverflowError."""
    return sys.intern(socket.inet_ntoa(int(value).to_bytes(4, "big")))


def parse_pcap(data: bytes) -> tuple[PacketTable, CaptureSummary]:
    """Parse the bytes of a classic pcap file into a table of its IPv4
    TCP/UDP packets.

    Raises BadMagic for anything that is not a classic pcap file and
    UnsupportedLinkType for link types other than Ethernet.  A file that
    ends mid-structure is flagged in the summary instead of raising.
    """
    if len(data) < 4:
        raise BadMagic("input shorter than a pcap magic number")

    try:
        byte_order, ts_divisor = PCAP_MAGICS[data[:4]]
    except KeyError:
        raise BadMagic(f"unrecognized magic {data[:4].hex()}") from None

    summary = CaptureSummary()
    if len(data) < 24:
        summary.error = "truncated_header"
        return PacketTable.of(()), summary

    (network,) = struct.unpack_from(byte_order + "I", data, 20)   # the link type
    if network != 1:
        raise UnsupportedLinkType(f"link type {network}, only Ethernet (1) is supported")

    starts, summary.error = _record_starts(data, byte_order)
    buf = np.frombuffer(data, np.uint8)
    # Head rows that fit in the file are read from it, chunk by chunk; the
    # few past its end, from one zero-padded copy of its last bytes.
    whole = int(np.searchsorted(starts, len(data) - _HEAD_BYTES, "right"))
    fits, near_end = starts[:whole], starts[whole:]
    batches = [(buf, fits[lo:lo + _CHUNK_FRAMES]) for lo in range(0, whole, _CHUNK_FRAMES)]
    if len(near_end):
        base = int(near_end[0])
        tail = np.zeros(len(data) - base + _HEAD_BYTES, np.uint8)
        tail[:len(data) - base] = buf[base:]
        batches.append((tail, near_end - base))
    columns = [np.empty(len(starts), dtype) for dtype in PacketTable._dtypes]
    kept = 0
    for source, at in batches:
        chunk = _decode_chunk(source, at, byte_order, ts_divisor, summary)
        for column, values in zip(columns, chunk):
            column[kept:kept + len(values)] = values
        kept += len(chunk[0])
    summary.packets_read = kept
    return PacketTable(column[:kept] for column in columns), summary


def _record_starts(data: bytes, byte_order: str) -> tuple[np.ndarray, str | None]:
    """Offsets of the whole records after the global header, and
    "truncated_record" if the file ends inside one."""
    incl_len_at = struct.Struct(byte_order + "8xI").unpack_from   # 8 bytes into a record
    starts = array("q")     # a list would hold a 28-byte int per record
    append = starts.append
    offset, end = 24, len(data)
    last = end - 16         # the last offset a whole record header fits at
    while offset <= last:
        append(offset)
        (incl_len,) = incl_len_at(data, offset)
        offset += 16 + incl_len
    if offset > end:        # the last record's frame runs past the end
        starts.pop()
    return np.frombuffer(starts, np.int64), None if offset == end else "truncated_record"


def _decode_chunk(source: np.ndarray, starts: np.ndarray, byte_order: str,
                  ts_divisor: float, summary: CaptureSummary,
                  ) -> tuple[np.ndarray, ...]:
    """Decode the records starting at ``starts``: count the frames that are
    not TCP/UDP packets in ``summary``; return the packet table columns of
    the rest.  ``source`` holds each record's whole head row; bytes past
    the file's end read as zeros, and the length checks throw them away."""
    head = sliding_window_view(source, _HEAD_BYTES)[starts]
    ts_sec, ts_frac, incl_len, orig_len = head[:, :16].view(byte_order + "u4").T

    ethertype, _tag_control, inner_ethertype = head[:, 28:34].view(">u2").T
    tagged = ethertype == _ETHERTYPE_VLAN
    # One byte a frame; ``incl_len - ip_start`` below is still int64.
    ip_start = np.where(tagged, np.int8(18), np.int8(14))
    ip = np.where(tagged[:, None], head[:, 34:54], head[:, 30:50])
    ip_len = incl_len - ip_start
    version, ihl = ip[:, 0] >> 4, (ip[:, 0] & 0x0F) * 4
    frag_offset = ip[:, 6:8].view(">u2")[:, 0] & 0x1FFF
    protocol = ip[:, 9]

    # The branches of a per-frame decoder, in order; a frame takes the
    # bucket of the first one that matches.  A frame too short for its
    # Ethernet header or tag has ``ip_len < 1``, and a double tag leaves
    # the inner EtherType at 0x8100, which is not IPv4.
    short_ip = ip_len < 20
    non_ip = ((np.where(tagged, inner_ethertype, ethertype) != _ETHERTYPE_IPV4)
              | (ip_len < 1) | (version != 4) | (~short_ip & (ihl < 20)))
    unsupported = ~non_ip & (short_ip | (frag_offset != 0) | ~_SUPPORTED[protocol]
                             | (ip_len < ihl + 4))
    summary.packets_skipped_non_ip += int(np.count_nonzero(non_ip))
    summary.packets_skipped_unsupported_protocol += int(np.count_nonzero(unsupported))

    kept = ~(non_ip | unsupported)
    # A kept frame holds its ports, so no port row runs past the buffer.
    ports = sliding_window_view(source, 4)[starts[kept] + 16 + ip_start[kept] + ihl[kept]]
    src_port, dst_port = ports.view(">u2").T
    src_addr, dst_addr = ip[kept, 12:20].view(">u4").T
    timestamps = ts_frac[kept] / ts_divisor
    timestamps += ts_sec[kept]
    return (timestamps, src_addr, src_port, dst_addr, dst_port,
            protocol[kept], orig_len[kept])


def read_pcap(path) -> tuple[PacketTable, CaptureSummary]:
    return parse_pcap(Path(path).read_bytes())


# -- CSV ----------------------------------------------------------------------

def _address(text: str, line: int, column: str) -> str:
    if ":" in text:
        raise Ipv6Unsupported(line, f"{column} {text!r} looks like IPv6")
    try:
        ip_to_u32(text)
    except AddressValueError:
        raise RowError(line, f"{column} {text!r} is not an IPv4 address") from None
    return text


def _integer(lo: int, hi: int) -> Callable[[str, int, str], int]:
    """The reader of integers in ``lo..hi``, written in ASCII digits."""
    def read(text: str, line: int, column: str) -> int:
        try:
            if not (text.isascii() and text.isdigit()):
                raise ValueError(text)
            value = int(text)   # past 4,300 digits, ValueError too
        except ValueError:
            raise RowError(line, f"{column} {text!r} is not an integer") from None
        if not lo <= value <= hi:
            raise RowError(line, f"{column} {value} outside {lo}..{hi}")
        return value
    return read


def _seconds(text: str, line: int, column: str) -> float:
    """Finite seconds in ASCII digits, with an optional fraction and exponent."""
    if not _decimal(text):
        raise RowError(line, f"{column} {text!r} is not a number")
    value = float(text)
    if not math.isfinite(value):
        raise RowError(line, f"{column} {text!r} is not finite")
    return value


_decimal = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?").fullmatch
_port = _integer(0, 65535)
_byte = _integer(0, 255)


def _protocol(text: str, line: int, column: str) -> int:
    protocol = _byte(text, line, column)
    if protocol not in SUPPORTED_PROTOCOLS:
        raise RowError(line, f"{column} {protocol} is not TCP (6) or UDP (17)")
    return protocol


PACKET_CSV_COLUMNS = {
    "timestamp": _seconds, "src_addr": _address, "src_port": _port,
    "dst_addr": _address, "dst_port": _port,
    "protocol": _protocol, "wire_bytes": _integer(1, 2**31 - 1),
}
PACKET_CSV_HEADER = list(PACKET_CSV_COLUMNS)


def _read_csv(text: str, columns: dict[str, Callable], what: str,
              build: Callable[[list, int], object],
              skip_bad: bool = False) -> tuple[list, int]:
    """``build(values, line)`` of each data row of CSV text, each field read
    by its column's reader in header order, and the number of bad rows skipped.

    The header must be the keys of ``columns``.  A row that does not hold one
    field per column, that a reader (first bad column first) or ``build``
    rejects, or that the csv module cannot read (a field over its size
    limit, a stray carriage return), raises RowError, or with ``skip_bad``
    is counted; reading resumes at the next line.  One leading byte-order
    mark (U+FEFF, as ``ef bb bf`` decodes) is dropped.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        found = next(reader)
    except StopIteration:
        raise SchemaMismatch(f"empty input, expected a {what} CSV header") from None
    except csv.Error as exc:
        raise SchemaMismatch(f"unreadable {what} CSV header: {exc}") from None
    if found and found[0].startswith("\ufeff"):
        found[0] = found[0][1:]
    if found != list(columns):
        raise SchemaMismatch(
            f"bad header {','.join(found)!r}, expected {','.join(columns)!r}"
        )
    rows, skipped = [], 0
    for line in count(2):
        try:
            try:
                fields = next(reader)
            except csv.Error as exc:
                raise RowError(line, f"unreadable CSV row: {exc}") from None
            if len(fields) != len(columns):
                raise RowError(line, f"expected {len(columns)} fields, got {len(fields)}")
            rows.append(build([read(field, line, name) for (name, read), field
                               in zip(columns.items(), fields)], line))
        except StopIteration:
            return rows, skipped
        except RowError:
            if not skip_bad:
                raise
            skipped += 1


def _csv_text(header: list[str], rows: Iterable[list]) -> str:
    """CSV text of a header line and the given rows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def parse_packet_csv(text, lenient: bool = False) -> tuple[PacketTable, CaptureSummary]:
    """Packet CSV (header: timestamp,src_addr,...,wire_bytes) as ``parse_pcap``
    reads a pcap file.  A wrong header raises SchemaMismatch; an invalid data
    row raises RowError (with line number), or with ``lenient`` is counted
    in the summary's ``rows_skipped_malformed``."""
    rows, skipped = _read_csv(text, PACKET_CSV_COLUMNS, "packet",
                              lambda values, line: values, lenient)
    return PacketTable.of(rows), CaptureSummary(packets_read=len(rows),
                                                rows_skipped_malformed=skipped)
