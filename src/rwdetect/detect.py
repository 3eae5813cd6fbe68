"""Windowed detection: segment traffic, classify flows, emit alerts.

Packets fall into half-open windows ``[start + w*i, start + (w+1)*i)``
aligned to the capture start; ``window_packets`` splits a packet table by
window with one stable sort.  Flows are aggregated per window but keep
capture-relative times, so a conversation confined to one window comes out
identical to a whole-capture aggregation.  A window's conversation table
is its feature matrix, and a positive classification alerts with its
conversation's row of it (addresses as u32 values), at most one per
(window, conversation key), ordered by window then by key, as
``ConversationTable.key_order`` defines it.  An alert carries the score,
and its JSON label is always ``"ransomware"``.
``emitted_at`` is the close time of the window, a value derived from the
data rather than the wall clock, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str   # json.dumps of a str
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .capture import (
    PCAP_MAGICS,
    TCP,
    CaptureSummary,
    PacketRecord,
    PacketTable,
    parse_packet_csv,
    parse_pcap,
    u32_to_ip,
)
from .classifiers import TrainedModel, model_fingerprint, predict_many
from .classifiers.base import check_types
from .conversation import _capture_start, aggregate
from .errors import BadMagic, InvalidHyperparams, SinkFailure
from .features import FEATURE_NAMES, encode_many


@dataclass(frozen=True)
class WindowSpec:
    interval: float = 60.0   # seconds

    def __post_init__(self):
        check_types(self)
        if not (self.interval > 0 and math.isfinite(self.interval)):
            raise InvalidHyperparams("window interval must be a positive finite number")


@dataclass(frozen=True)
class Alert:
    """A conversation the model classified ransomware in one window."""

    window_index: int
    score: float                  # positive-class score, at least 0.5
    model_fingerprint: str
    emitted_at: float
    features: tuple[float, ...]   # window-matrix row, integral but the two times


@dataclass(frozen=True)
class DetectionSummary:
    windows: int
    conversations: int
    alerts: int
    packets: int
    skipped_malformed: int


def window_packets(packets: Iterable[PacketRecord], spec: WindowSpec,
                   capture_start: float | None = None,
                   ) -> list[tuple[int, PacketTable]]:
    """Split packets into windows, each a table of its packets in input
    order; empty windows are omitted.  With an explicit ``capture_start``,
    a packet stamped earlier than it raises ClockSkew carrying the offending
    input position.  A last window that closes past the largest float
    raises InvalidHyperparams.
    """
    table = PacketTable.of(packets)
    ts = table.columns[0]
    capture_start = _capture_start(ts, capture_start)
    if not len(table):
        return []
    # Window numbers stay float64: ``int`` of each distinct one equals
    # ``math.floor`` of the quotient, however large.  An overflowing
    # quotient gives an infinite window, which closes at infinity.
    with np.errstate(over="ignore"):
        window = np.floor((ts - capture_start) / spec.interval)
    order = np.argsort(window, kind="stable")
    window = window[order]
    # The last close time bounds the rest; Python floats do not warn on overflow.
    if not math.isfinite(capture_start + (window.item(-1) + 1) * spec.interval):
        raise InvalidHyperparams(f"window interval {spec.interval!r} closes the "
                                 "last window past the largest float")
    cuts = np.flatnonzero(window[1:] != window[:-1]) + 1
    return [(int(w), table[rows])
            for w, rows in zip(window[np.r_[0, cuts]], np.split(order, cuts))]


def detect_stream(packets: Iterable[PacketRecord], model: TrainedModel,
                  spec: WindowSpec, sink: Callable[[Alert], None],
                  capture_start: float | None = None,
                  skipped_malformed: int = 0) -> DetectionSummary:
    """Run windowed detection over packets, pushing alerts into ``sink``.

    ``packets`` is a packet table or any iterable of PacketRecords.  A
    packet the table refuses (``PacketTable.of``) raises ValueError, and a
    last window closing past the largest float InvalidHyperparams, both
    before the first alert.  So only a sink exception ends a run part-way:
    it aborts with SinkFailure carrying the summary of everything processed
    before the failure.
    """
    packets = PacketTable.of(packets)
    capture_start = _capture_start(packets.columns[0], capture_start)

    fingerprint = model_fingerprint(model)
    windows = window_packets(packets, spec, capture_start)
    n_conversations = 0
    n_alerts = 0

    def summary(n_windows: int) -> DetectionSummary:
        return DetectionSummary(
            windows=n_windows, conversations=n_conversations,
            alerts=n_alerts, packets=len(packets),
            skipped_malformed=skipped_malformed,
        )

    for position, (w, window) in enumerate(windows):
        conversations = aggregate(window, capture_start=capture_start)
        n_conversations += len(conversations)
        vectors = encode_many(conversations)
        labels01, scores = predict_many(model, vectors)
        by_key = conversations.key_order()
        hits = by_key[labels01[by_key] != 0]
        emitted_at = capture_start + (w + 1) * spec.interval
        for score, row in zip(scores[hits].tolist(), vectors[hits].tolist()):
            alert = Alert(
                window_index=w, score=score, model_fingerprint=fingerprint,
                emitted_at=emitted_at, features=tuple(row),
            )
            try:
                sink(alert)
            except Exception as exc:
                raise SinkFailure(
                    f"alert sink failed in window {w}: {exc}",
                    summary=summary(position + 1),
                ) from exc
            n_alerts += 1
    return summary(len(windows))


def load_packets(path: str | Path,
                 lenient: bool) -> tuple[PacketTable, CaptureSummary]:
    """``parse_pcap`` of a classic pcap file or ``parse_packet_csv`` of packet
    CSV, told apart by the first bytes; other input raises BadMagic."""
    data = Path(path).read_bytes()
    if data[:4] in PCAP_MAGICS:
        return parse_pcap(data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise BadMagic(f"{path}: neither a classic pcap file nor UTF-8 packet CSV") from None
    return parse_packet_csv(text, lenient)


def read_packet_source(path: str | Path) -> tuple[PacketTable, int, int]:
    """(packets, malformed CSV rows, skipped frames) of a lenient ``load_packets``."""
    records, s = load_packets(path, lenient=True)
    return (records, s.rows_skipped_malformed,
            s.packets_skipped_non_ip + s.packets_skipped_unsupported_protocol)


#: ``alert_to_json``'s line: ``json.dumps(payload, sort_keys=True)`` of the
#: alert's payload, with a slot per value (``%s`` a JSON string, ``%r`` a
#: finite float, ``%d`` an int or an integral float, which JSON shows as an
#: int), the features in sorted-name order and the label a constant.
_FEATURE_ORDER = sorted(range(len(FEATURE_NAMES)), key=FEATURE_NAMES.__getitem__)
_ALERT_LINE = (
    '{"address_a": %s, "address_b": %s, "emitted_at": %r, "features": {'
    + ", ".join(f"{json.dumps(FEATURE_NAMES[i])}: %r" for i in _FEATURE_ORDER)
    + '}, "label": "ransomware", "model_fingerprint": %s, '
      '"port_a": %d, "port_b": %d, "protocol": %d, "score": %r, "window": %d}')


def alert_to_json(alert: Alert) -> str:
    """One-line JSON rendering of an alert, keys sorted."""
    features = alert.features
    protocol, address_a, port_a, address_b, port_b = features[:5]
    return _ALERT_LINE % (
        _json_str(u32_to_ip(address_a)), _json_str(u32_to_ip(address_b)),
        alert.emitted_at, *[features[i] for i in _FEATURE_ORDER],
        _json_str(alert.model_fingerprint),
        port_a, port_b, protocol, alert.score, alert.window_index)


def alert_warning_line(alert: Alert) -> str:
    """Terse human-readable alert line for logs."""
    protocol, address_a, port_a, address_b, port_b, packets, size = alert.features[:7]
    proto = "tcp" if protocol == TCP else "udp"
    return (
        f"ALERT window={alert.window_index} {proto} "
        f"{u32_to_ip(address_a)}:{int(port_a)} <-> {u32_to_ip(address_b)}:{int(port_b)} "
        f"score={alert.score:.4f} packets={int(packets)} bytes={int(size)}"
    )
