"""Aggregate packet tables into bidirectional conversations.

A conversation is the set of all packets exchanged between two
(address, port) endpoints under one transport protocol, regardless of
direction.  Endpoint A is whichever endpoint sent the conversation's
earliest packet.  There is no idle timeout: one key yields one
conversation per capture.

``aggregate`` is a group-by over the columns of a packet table.  Each
endpoint packs into one int64 as ``address << 16 | port``; one stable sort
by (lower endpoint, higher endpoint and protocol, time) puts each flow's
packets together, earliest first, and counts and bytes are summed per flow
as int64.  It returns a ``ConversationTable``, whose columns the features
layer stacks into its matrix; ``Conversation`` rows are built only where a
caller reads rows.  ``ConversationTable.key_order`` states a row's
direction-free identity and the order it sorts in.

Conversation CSV is read through ``CONVERSATION_CSV_COLUMNS`` and the two
row rules of ``_conversation``, which the dataset format shares, and
written with 6 decimal places in its two time columns, so a round trip is
lossless for microsecond-resolution times (the native resolution of
classic pcap); nanosecond captures are rounded on export.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Iterable

import numpy as np

from .capture import PacketRecord, _address, _integer, _port, _protocol, _seconds
from .errors import ClockSkew, InvalidHyperparams, InvariantViolation, RowError
from . import capture as _capture

_count = _integer(0, 2**63 - 1)

CONVERSATION_CSV_COLUMNS = {
    "protocol": _protocol, "address_a": _address, "port_a": _port,
    "address_b": _address, "port_b": _port,
    "packets": _count, "bytes": _count, "packets_ab": _count, "bytes_ab": _count,
    "packets_ba": _count, "bytes_ba": _count,
    "rel_start": _seconds, "duration": _seconds,
}
CONVERSATION_CSV_HEADER = list(CONVERSATION_CSV_COLUMNS)


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


_fields = attrgetter(*CONVERSATION_CSV_HEADER)


class ConversationTable(_capture._Table):
    """Conversations as 13 columns in ``CONVERSATION_CSV_HEADER`` order,
    addresses as u32 values: int64, then float64 rel_start and duration."""

    __slots__ = ()
    _row = Conversation
    _values = _fields
    _names = tuple(CONVERSATION_CSV_HEADER)
    _dtypes = (np.int64,) * 11 + (np.float64,) * 2

    def key_order(self) -> np.ndarray:
        """Row indices in key order, a conversation's key being ``(address_lo,
        port_lo, address_hi, port_hi, protocol)``: addresses as u32, the lower
        (address, port) endpoint first, so that A->B and B->A share it."""
        protocol, address_a, port_a, address_b, port_b = self.columns[:5]
        lo, hk = _flow_key(_endpoint(address_a, port_a),
                           _endpoint(address_b, port_b), protocol)
        return np.lexsort((hk, lo))


def _endpoint(address: np.ndarray, port: np.ndarray) -> np.ndarray:
    """``address << 16 | port`` as int64."""
    packed = address.astype(np.int64)
    packed <<= 16
    packed |= port
    return packed


def _flow_key(x: np.ndarray, y: np.ndarray, protocol: np.ndarray):
    """Direction-free key of endpoints ``x`` and ``y``: the lower one, and
    ``higher << 8 | protocol``."""
    hk = np.maximum(x, y)
    hk <<= 8
    hk |= protocol
    return np.minimum(x, y), hk


def _capture_start(ts: np.ndarray, capture_start: float | None) -> float | None:
    """The earliest timestamp, None for no packets, when ``capture_start`` is None; otherwise
    ``capture_start`` as a Python float, after raising InvalidHyperparams for a bool or a
    number no finite float equals, and ClockSkew for the first packet stamped earlier."""
    if capture_start is None:
        return float(ts.min()) if len(ts) else None
    try:
        if isinstance(capture_start, (bool, np.bool_)) or not math.isfinite(capture_start):
            raise InvalidHyperparams(f"capture start {capture_start!r} is not a finite number")
    except OverflowError:
        raise InvalidHyperparams("capture start is past the float range") from None
    capture_start = float(capture_start)
    early = ts < capture_start
    if np.count_nonzero(early):
        i = int(early.argmax())
        raise ClockSkew(i, f"packet {i} at {ts.item(i)!r} precedes "
                           f"capture start {capture_start!r}")
    return capture_start


def aggregate(packets: Iterable[PacketRecord],
              capture_start: float | None = None) -> ConversationTable:
    """Group TCP/UDP packets into conversations, ordered by rel_start,
    then by key (``ConversationTable.key_order``).

    ``packets`` is a packet table or any iterable of PacketRecords.  Packets
    are taken in ascending timestamp order, input order breaking ties.
    ``capture_start`` anchors rel_start; when omitted the earliest
    timestamp is used.  A timestamp before an explicit capture_start
    raises ClockSkew with the offending input index.
    """
    table = _capture.PacketTable.of(packets)
    ts, src_addr, src_port, dst_addr, dst_port, protocol, wire = table.columns
    capture_start = _capture_start(ts, capture_start)
    n = len(table)
    if not n:
        return ConversationTable.of(())

    src, dst = _endpoint(src_addr, src_port), _endpoint(dst_addr, dst_port)
    lo, hk = _flow_key(src, dst, protocol)
    order = np.lexsort((ts, hk, lo))
    ts, lo, hk, src = ts[order], lo[order], hk[order], src[order]
    new_flow = np.empty(n, bool)
    new_flow[0] = True
    np.not_equal(lo[1:], lo[:-1], out=new_flow[1:])
    new_flow[1:] |= hk[1:] != hk[:-1]
    starts = new_flow.nonzero()[0]

    # A flow's first packet goes from endpoint A to B.  Per packet: 1, its
    # wire bytes, and both again if A sent it.
    from_a = src == src[starts][new_flow.cumsum() - 1]
    sent = np.empty((4, n), np.int64)
    sent[0] = 1
    sent[1] = wire[order]
    sent[2] = from_a
    np.multiply(sent[1], from_a, out=sent[3])
    sums = np.add.reduceat(sent, starts, axis=1)
    first = ts[starts]
    rel_start = first - capture_start
    duration = np.maximum.reduceat(ts, starts) - first

    rows = np.argsort(rel_start, kind="stable")   # flows are in key order already
    heads = starts[rows]
    a, b = src[heads], dst[order[heads]]
    # Indexing the rows of a small array costs less than unpacking it.
    sums = sums.take(rows, axis=1)
    npackets, nbytes, packets_ab, bytes_ab = sums[0], sums[1], sums[2], sums[3]
    return ConversationTable((
        hk[heads] & 0xFF, a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF,
        npackets, nbytes, packets_ab, bytes_ab,
        npackets - packets_ab, nbytes - bytes_ab,
        rel_start[rows], duration[rows],
    ))


# -- CSV ----------------------------------------------------------------------

def _format_row(c: Conversation) -> list:
    return [*_fields(c)[:11], f"{c.rel_start:.6f}", f"{c.duration:.6f}"]


def conversations_to_csv(conversations: Iterable[Conversation]) -> str:
    return _capture._csv_text(CONVERSATION_CSV_HEADER, map(_format_row, conversations))


def _conversation(conv: Conversation, line: int, strict: bool = True) -> Conversation:
    """``conv``, a row as read, after the two row rules: it holds at least one
    packet, and its totals are the sums of its directional fields.  Where
    the totals disagree, strict reading raises InvariantViolation; lenient
    reading warns and recomputes them, which must fit a count column (else
    RowError), and the rules apply again."""
    if conv.packets < 1:
        raise RowError(line, "a conversation holds at least one packet")
    packets = conv.packets_ab + conv.packets_ba
    nbytes = conv.bytes_ab + conv.bytes_ba
    if conv.packets == packets and conv.bytes == nbytes:
        return conv
    if strict:
        raise InvariantViolation(
            line,
            f"totals ({conv.packets} pkts, {conv.bytes} bytes) disagree with the "
            f"directional sums ({conv.packets_ab}+{conv.packets_ba}, "
            f"{conv.bytes_ab}+{conv.bytes_ba})",
        )
    warnings.warn(
        f"line {line}: totals recomputed from directional fields",
        ConversationCsvWarning,
        stacklevel=5,   # the caller of ``csv_to_conversations``
    )
    if max(packets, nbytes) > 2**63 - 1:
        raise RowError(line, "recomputed totals outside 0..2**63-1")
    return _conversation(replace(conv, packets=packets, bytes=nbytes), line)


def csv_to_conversations(text, strict: bool = True) -> list[Conversation]:
    return _capture._read_csv(
        text, CONVERSATION_CSV_COLUMNS, "conversation",
        lambda values, line: _conversation(Conversation(*values), line, strict),
    )[0]
