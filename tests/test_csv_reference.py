"""The column-table CSV readers decide as the row parsers they replaced.

The reference below is the earlier reader: one parser per format that
finds each field by position (``_parse_packet_row``,
``parse_conversation_fields`` and ``_dataset_row``) behind a reader that
checks the header, its numbers narrowed to unsigned ASCII decimals as the
column readers read them.  On every text each of the five readers (packet strict
and lenient, conversation strict and lenient, dataset) either returns the
reference's value, with the same skip count and the same number of
``ConversationCsvWarning``s, or rejects it with a RowError at the same
line.  The error's subclass may differ only on a row with several faults,
since the column readers report a row's first bad column in header order.
"""

from __future__ import annotations

import csv
import io
import math
import re
import warnings
from ipaddress import AddressValueError
from itertools import count, islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwdetect.capture import (
    PACKET_CSV_HEADER,
    SUPPORTED_PROTOCOLS,
    CaptureSummary,
    PacketRecord,
    PacketTable,
    ip_to_u32,
    parse_packet_csv,
)
from rwdetect.conversation import (
    CONVERSATION_CSV_HEADER,
    Conversation,
    ConversationCsvWarning,
    csv_to_conversations,
)
from rwdetect.errors import (
    InvariantViolation,
    Ipv6Unsupported,
    RowError,
    RwdetectError,
    SchemaMismatch,
)
from rwdetect.features import (
    DATASET_CSV_HEADER,
    Label,
    _dataset,
    dataset_fingerprint,
    encode,
)

from test_csv_fuzz import FIELDS, READERS, around_header

REF_PACKET_HEADER = [
    "timestamp", "src_addr", "src_port", "dst_addr", "dst_port",
    "protocol", "wire_bytes",
]
REF_CONVERSATION_HEADER = [
    "protocol", "address_a", "port_a", "address_b", "port_b",
    "packets", "bytes", "packets_ab", "bytes_ab", "packets_ba", "bytes_ba",
    "rel_start", "duration",
]
REF_DATASET_HEADER = REF_CONVERSATION_HEADER + ["label"]


# -- the reference ------------------------------------------------------------

def _parse_address(text: str, line: int, column: str) -> str:
    if ":" in text:
        raise Ipv6Unsupported(line, f"{column} {text!r} looks like IPv6")
    try:
        ip_to_u32(text)
    except AddressValueError:
        raise RowError(line, f"{column} {text!r} is not an IPv4 address") from None
    return text


def _parse_int(text: str, line: int, column: str, lo: int, hi: int) -> int:
    # ASCII digits only: ``int`` alone also takes spaces, underscores, a
    # sign and non-ASCII digits.
    try:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(text)
        value = int(text)
    except ValueError:
        raise RowError(line, f"{column} {text!r} is not an integer") from None
    if not lo <= value <= hi:
        raise RowError(line, f"{column} {value} outside {lo}..{hi}")
    return value


def _float(text: str) -> float:
    """``float(text)`` of an unsigned ASCII decimal with an optional
    exponent; any other text raises ValueError."""
    if re.fullmatch(r"[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?", text) is None:
        raise ValueError(text)
    return float(text)


def _parse_packet_row(row: list[str], line: int) -> PacketRecord:
    if len(row) != len(REF_PACKET_HEADER):
        raise RowError(line, f"expected {len(REF_PACKET_HEADER)} fields, got {len(row)}")
    try:
        timestamp = _float(row[0])
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


def parse_conversation_fields(fields, line: int, strict: bool = True) -> Conversation:
    if len(fields) != 13:
        raise RowError(line, f"expected 13 fields, got {len(fields)}")
    protocol = _parse_int(fields[0], line, "protocol", 0, 255)
    if protocol not in SUPPORTED_PROTOCOLS:
        raise RowError(line, f"protocol {protocol} is not TCP (6) or UDP (17)")
    address_a = _parse_address(fields[1], line, "address_a")
    port_a = _parse_int(fields[2], line, "port_a", 0, 65535)
    address_b = _parse_address(fields[3], line, "address_b")
    port_b = _parse_int(fields[4], line, "port_b", 0, 65535)
    counts = [
        _parse_int(fields[i], line, REF_CONVERSATION_HEADER[i], 0, 2**63 - 1)
        for i in range(5, 11)
    ]
    packets, nbytes, packets_ab, bytes_ab, packets_ba, bytes_ba = counts
    try:
        rel_start = _float(fields[11])
        duration = _float(fields[12])
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
        if max(packets, nbytes) > 2**63 - 1:
            raise RowError(line, "recomputed totals outside 0..2**63-1")

    return Conversation(
        protocol=protocol, address_a=address_a, port_a=port_a,
        address_b=address_b, port_b=port_b,
        packets=packets, bytes=nbytes,
        packets_ab=packets_ab, bytes_ab=bytes_ab,
        packets_ba=packets_ba, bytes_ba=bytes_ba,
        rel_start=rel_start, duration=duration,
    )


def _dataset_row(row: list[str], line: int):
    if len(row) != len(REF_DATASET_HEADER):
        raise RowError(line, f"expected {len(REF_DATASET_HEADER)} fields, got {len(row)}")
    conv = parse_conversation_fields(row[:-1], line)
    try:
        label = Label(row[-1])
    except ValueError:
        raise RowError(line, f"label {row[-1]!r} is not ransomware|benign") from None
    return encode(conv), label


def _read_csv(text: str, header: list[str], what: str, parse, skip_bad: bool = False):
    reader = csv.reader(io.StringIO(text))
    try:
        found = next(reader)
    except StopIteration:
        raise SchemaMismatch(f"empty input, expected a {what} CSV header") from None
    except csv.Error as exc:
        raise SchemaMismatch(f"unreadable {what} CSV header: {exc}") from None
    if found and found[0].startswith("\ufeff"):
        found[0] = found[0][1:]
    if found != header:
        raise SchemaMismatch(
            f"bad header {','.join(found)!r}, expected {','.join(header)!r}"
        )
    rows, skipped = [], 0
    for line in count(2):
        try:
            try:
                row = next(reader)
            except csv.Error as exc:
                raise RowError(line, f"unreadable CSV row: {exc}") from None
            rows.append(parse(row, line))
        except StopIteration:
            return rows, skipped
        except RowError:
            if not skip_bad:
                raise
            skipped += 1


def ref_packets(text, skip_bad=False):
    records, skipped = _read_csv(text, REF_PACKET_HEADER, "packet",
                                 _parse_packet_row, skip_bad)
    return PacketTable.of(records), CaptureSummary(packets_read=len(records),
                                                   rows_skipped_malformed=skipped)


def ref_conversations(text, strict=True):
    return _read_csv(
        text, REF_CONVERSATION_HEADER, "conversation",
        lambda row, line: parse_conversation_fields(row, line, strict=strict),
    )[0]


def ref_dataset(text):
    rows, _skipped = _read_csv(text, REF_DATASET_HEADER, "dataset", _dataset_row)
    return _dataset([vector for vector, _label in rows],
                    [label for _vector, label in rows])


# -- the comparison -----------------------------------------------------------

def _packets(table):
    return [tuple(map(repr, row)) for row in table]


def _conversations(convs):
    return [tuple(map(repr, vars(c).values())) for c in convs]


PACKET_ROW = "1.0,10.0.0.1,1000,10.0.0.2,80,6,100"
CONVERSATION_ROW = "6,10.0.0.1,1000,10.0.0.2,80,3,280,2,200,1,80,0.0,1.0"

#: Reader name, as in ``test_csv_fuzz.READERS`` -> (the reference reader, a
#: valid data row, the value a read returns -> a form that compares exactly).
REFERENCES = {
    "packet": (lambda text: ref_packets(text)[0], PACKET_ROW, _packets),
    "packet-lenient": (lambda text: ref_packets(text, skip_bad=True), PACKET_ROW,
                       lambda got: (_packets(got[0]), got[1])),
    "conversation": (ref_conversations, CONVERSATION_ROW, _conversations),
    "conversation-lenient": (lambda text: ref_conversations(text, strict=False),
                             CONVERSATION_ROW, _conversations),
    "dataset": (ref_dataset, CONVERSATION_ROW + ",benign", dataset_fingerprint),
}


def outcome(reader, text: str):
    """(value or error, number of ConversationCsvWarnings) of one read."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConversationCsvWarning)
        try:
            result = reader(text)
        except RwdetectError as exc:
            result = exc
    return result, sum(issubclass(w.category, ConversationCsvWarning) for w in caught)


def bad_column(error: RowError) -> str:
    """The column a column reader's error names first."""
    return str(error).split(": ", 1)[1].split(" ", 1)[0]


def assert_same_decision(name: str, text: str) -> None:
    header, reader = READERS[name]
    reference, valid_row, comparable = REFERENCES[name]
    got, got_warnings = outcome(reader, text)
    want, want_warnings = outcome(reference, text)
    assert got_warnings == want_warnings
    if not isinstance(want, Exception):
        assert not isinstance(got, Exception), got
        assert comparable(got) == comparable(want)
        return
    assert type(got) is type(want) or (isinstance(got, RowError)
                                       and isinstance(want, RowError)), (got, want)
    if not isinstance(want, RowError):
        return
    assert got.line == want.line
    if type(got) is not type(want):
        # Two faults in one row: mending the column the table reader names
        # leaves a row the reference still rejects.
        rows = list(islice(csv.reader(io.StringIO(text)), got.line))
        i = header.index(bad_column(got))
        rows[-1][i] = valid_row.split(",")[i]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        still, _ = outcome(reference, out.getvalue())
        assert isinstance(still, RowError) and still.line == got.line


def test_reference_headers():
    assert PACKET_CSV_HEADER == REF_PACKET_HEADER
    assert CONVERSATION_CSV_HEADER == REF_CONVERSATION_HEADER
    assert DATASET_CSV_HEADER == REF_DATASET_HEADER


@pytest.mark.parametrize("name", READERS)
@given(data=st.data())
def test_same_decision_around_header(name, data):
    header, _reader = READERS[name]
    assert_same_decision(name, data.draw(around_header(header)))


@st.composite
def near_valid(draw, name):
    """The header, then rows that each start valid, sometimes with
    disagreeing totals, and have up to two fields replaced."""
    header, _reader = READERS[name]
    _reference, valid_row, _comparable = REFERENCES[name]
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        row = valid_row.split(",")
        if name.startswith(("conversation", "dataset")):
            counts = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
            totals = [counts[0] + counts[2], counts[1] + counts[3]]
            if draw(st.booleans()):
                totals = draw(st.lists(st.integers(0, 7), min_size=2, max_size=2))
            row[5:11] = map(str, totals + counts)
        for _ in range(draw(st.integers(0, 2))):
            row[draw(st.integers(0, len(row) - 1))] = draw(FIELDS)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", READERS)
@given(data=st.data())
def test_same_decision_near_valid_rows(name, data):
    assert_same_decision(name, data.draw(near_valid(name)))


@pytest.mark.parametrize("name,row", [
    # A lenient row with no packet at all: the row as read has packets=0.
    ("conversation-lenient", "6,1.1.1.1,1,2.2.2.2,2,0,10,1,10,0,0,0.0,0.0"),
    ("conversation", "6,1.1.1.1,1,2.2.2.2,2,0,10,1,10,0,0,0.0,0.0"),
    # Directional sums of no packet: warned, recomputed, then rejected.
    ("conversation-lenient", "6,1.1.1.1,1,2.2.2.2,2,5,10,0,10,0,0,0.0,0.0"),
    # A bad protocol and an IPv6 address: the reference reads the protocol
    # first, the table the address.
    ("packet", "1.0,::1,1,2.2.2.2,2,99,10"),
    ("packet-lenient", "1.0,::1,1,2.2.2.2,2,99,10"),
    ("conversation", "99,::1,1,2.2.2.2,2,1,10,1,10,0,0,0.0,0.0"),
    # Disagreeing totals and a bad label.
    ("dataset", "6,1.1.1.1,1,2.2.2.2,2,2,10,1,10,0,0,0.0,0.0,neither"),
    # Numbers that ``int`` and ``float`` read but that are not ASCII
    # decimals: underscores, non-ASCII digits, surrounding spaces.
    ("packet", "1_0.5,10.0.0.1,\u0668\u0660,10.0.0.2, 8_0 ,6,1_00"),
    ("packet-lenient", "1_0.5,10.0.0.1,\u0668\u0660,10.0.0.2, 8_0 ,6,1_00"),
    ("packet", "1.0,10.0.0.1, 80,10.0.0.2,80,6,100"),
    ("conversation", "6,10.0.0.1, 80,10.0.0.2,80,3,280,2,200,1,80,0.0,1.0"),
    ("conversation", "6,10.0.0.1,1000,10.0.0.2,80,3,280,2,200,1,80, 0.5,1.0"),
    ("dataset", "6,10.0.0.1,1000,10.0.0.2,80,3,280,2,200,1,80,0.0,1_0.0,benign"),
    # More digits than ``int`` reads (4,300), in a port and a count column.
    pytest.param("packet", "1.0,10.0.0.1," + "1" * 4301 + ",10.0.0.2,80,6,100",
                 id="packet-port-4301-digits"),
    pytest.param("packet-lenient", "1.0,10.0.0.1," + "1" * 4301 + ",10.0.0.2,80,6,100",
                 id="packet-lenient-port-4301-digits"),
    pytest.param("packet", "1.0,10.0.0.1,1000,10.0.0.2,80,6," + "1" * 4301,
                 id="packet-wire_bytes-4301-digits"),
    pytest.param("packet-lenient", "1.0,10.0.0.1,1000,10.0.0.2,80,6," + "1" * 4301,
                 id="packet-lenient-wire_bytes-4301-digits"),
    pytest.param("conversation",
                 "6,10.0.0.1," + "1" * 4301 + ",10.0.0.2,80,3,280,2,200,1,80,0.0,1.0",
                 id="conversation-port_a-4301-digits"),
    pytest.param("conversation-lenient",
                 "6,10.0.0.1,1000,10.0.0.2,80," + "1" * 4301 + ",280,2,200,1,80,0.0,1.0",
                 id="conversation-lenient-packets-4301-digits"),
    pytest.param("dataset",
                 "6,10.0.0.1,1000,10.0.0.2,80,3," + "1" * 4301 + ",2,200,1,80,0.0,1.0,benign",
                 id="dataset-bytes-4301-digits"),
    # Directional sums past the count range: warned, recomputed, rejected.
    ("conversation-lenient",
     "6,1.1.1.1,1,2.2.2.2,2,5,10,9223372036854775807,10,1,0,0.0,0.0"),
])
def test_named_rows(name, row):
    text = ",".join(READERS[name][0]) + "\n" + row + "\n"
    assert_same_decision(name, text)


def test_lenient_row_without_packets_still_raises():
    text = (",".join(CONVERSATION_CSV_HEADER)
            + "\n6,1.1.1.1,1,2.2.2.2,2,0,10,1,10,0,0,0.0,0.0\n")
    with pytest.raises(RowError) as info:
        csv_to_conversations(text, strict=False)
    assert info.value.line == 2


def test_first_bad_column_in_header_order():
    text = ",".join(PACKET_CSV_HEADER) + "\n1.0,::1,1,2.2.2.2,2,99,10\n"
    with pytest.raises(Ipv6Unsupported, match="src_addr"):
        parse_packet_csv(text)
