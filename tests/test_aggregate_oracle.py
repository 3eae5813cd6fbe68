"""``aggregate`` and windowed detection against the per-packet dict loop
and the per-packet window buckets they replaced.

``oracle_aggregate`` walks the packets in stable time order and finds
each packet's flow under (protocol, src, dst), then (protocol, dst, src);
``oracle_windows`` puts each packet in the bucket of
``math.floor((t - start) / interval)``.  The column code must give the
same conversations, in the same order, on streams full of ties.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rwdetect.detect as detect
from rwdetect.capture import TCP, UDP, parse_packet_csv
from rwdetect.classifiers import ClassifierKind, train
from rwdetect.conversation import Conversation, aggregate
from rwdetect.detect import WindowSpec, detect_stream, window_packets
from rwdetect.errors import ClockSkew
from rwdetect.features import Dataset, encode_many

from conftest import conversation_key, make_packet, packet_csv


class _FlowState:
    __slots__ = ("a_endpoint", "first_ts", "last_ts",
                 "packets_ab", "bytes_ab", "packets_ba", "bytes_ba")

    def __init__(self, a_endpoint, first_ts):
        self.a_endpoint = a_endpoint
        self.first_ts = first_ts
        self.last_ts = first_ts
        self.packets_ab = self.bytes_ab = self.packets_ba = self.bytes_ba = 0


def oracle_aggregate(packets, capture_start=None) -> list[Conversation]:
    pkts = list(packets)
    if not pkts:
        return []
    if capture_start is None:
        capture_start = min(p.timestamp for p in pkts)
    else:
        for i, p in enumerate(pkts):
            if p.timestamp < capture_start:
                raise ClockSkew(i, f"packet {i} precedes capture start")
    flows: dict[tuple, _FlowState] = {}
    for ts, src_addr, src_port, dst_addr, dst_port, protocol, wire_bytes in sorted(
            pkts, key=lambda p: p.timestamp):
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
    conversations = [
        Conversation(protocol, a_addr, a_port, b_addr, b_port,
                     st.packets_ab + st.packets_ba, st.bytes_ab + st.bytes_ba,
                     st.packets_ab, st.bytes_ab, st.packets_ba, st.bytes_ba,
                     st.first_ts - capture_start, st.last_ts - st.first_ts)
        for (protocol, (a_addr, a_port), (b_addr, b_port)), st in flows.items()
    ]
    conversations.sort(key=lambda c: (c.rel_start, conversation_key(c)))
    return conversations


def oracle_windows(packets, interval, start) -> list[tuple[int, list]]:
    buckets: dict[int, list] = {}
    for p in packets:
        buckets.setdefault(math.floor((p.timestamp - start) / interval), []).append(p)
    return sorted(buckets.items())


#: 10.0.0.9 sorts after 10.0.0.10 as text and before it as a value.
ENDPOINTS = list(product(("10.0.0.9", "10.0.0.10", "192.168.1.1"), (80, 1000)))


@st.composite
def tie_heavy_streams(draw):
    """Packets among 2-4 endpoints on a coarse clock: many equal
    timestamps, both directions, both protocols, self-talk."""
    endpoints = draw(st.lists(st.sampled_from(ENDPOINTS), min_size=2,
                              max_size=4, unique=True))
    ends = st.sampled_from(endpoints)
    return draw(st.lists(st.builds(
        lambda t, src, dst, proto, size: make_packet(t, *src, *dst, proto, size),
        st.integers(0, 8).map(lambda k: k * 0.5), ends, ends,
        st.sampled_from((TCP, UDP)), st.integers(1, 2**31 - 1),
    ), min_size=1, max_size=40))


TIE_EXAMPLE = [
    make_packet(1.0, "10.0.0.10", 80, "10.0.0.9", 1000, TCP, 60),
    make_packet(1.0, "10.0.0.9", 1000, "10.0.0.10", 80, TCP, 70),
    make_packet(1.0, "10.0.0.9", 1000, "10.0.0.10", 80, UDP, 80),
    make_packet(0.5, "10.0.0.9", 1000, "10.0.0.9", 1000, UDP, 90),
    make_packet(0.5, "10.0.0.10", 80, "10.0.0.9", 1000, UDP, 100),
]


class TestAggregateMatchesDictLoop:
    @given(tie_heavy_streams(), st.sampled_from([None, 0.0, -0.25]))
    @example(TIE_EXAMPLE, None)
    @example(TIE_EXAMPLE, 0.5)
    def test_same_rows_same_order(self, packets, capture_start):
        want = oracle_aggregate(packets, capture_start)
        assert aggregate(packets, capture_start) == want
        # a packet table, as the readers give it, takes the same path
        table, _summary = parse_packet_csv(packet_csv(packets))
        assert aggregate(table, capture_start) == want

    @given(tie_heavy_streams())
    def test_clock_skew_index(self, packets):
        start = max(p.timestamp for p in packets)
        try:
            want = oracle_aggregate(packets, start)
        except ClockSkew as skew:
            with pytest.raises(ClockSkew) as got:
                aggregate(packets, start)
            assert got.value.index == skew.index
        else:
            assert aggregate(packets, start) == want


def threshold_model():
    x = np.zeros((6, 13))
    x[:, 6] = (100.0, 300.0, 800.0, 4300.0, 5000.0, 9000.0)
    return train(ClassifierKind.J48, Dataset(x, [0, 0, 0, 1, 1, 1]))


MODEL = threshold_model()


class TestDetectStreamMatchesOracle:
    @given(tie_heavy_streams(), st.sampled_from([0.5, 1.0, 2.5]),
           st.sampled_from([None, 0.0]))
    @example(TIE_EXAMPLE, 0.5, None)
    def test_window_matrices(self, packets, interval, capture_start):
        start = (min(p.timestamp for p in packets) if capture_start is None
                 else capture_start)
        want = oracle_windows(packets, interval, start)
        assert [(w, list(bucket)) for w, bucket in
                window_packets(packets, WindowSpec(interval), capture_start)] == want

        matrices = []

        def recording(model, vectors):
            matrices.append(vectors)
            return predict_many(model, vectors)

        predict_many = detect.predict_many
        detect.predict_many = recording
        try:
            detect_stream(packets, MODEL, WindowSpec(interval), lambda a: None,
                          capture_start=capture_start)
        finally:
            detect.predict_many = predict_many
        assert len(matrices) == len(want)
        for got, (_w, bucket) in zip(matrices, want):
            expected = encode_many(oracle_aggregate(bucket, start))
            assert got.tobytes() == expected.tobytes()
