"""Bidirectional conversation aggregation and its CSV form."""

from __future__ import annotations

from ipaddress import AddressValueError
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rwdetect.capture import TCP, UDP
from rwdetect.conversation import (
    CONVERSATION_CSV_HEADER,
    Conversation,
    ConversationCsvWarning,
    ConversationKey,
    aggregate,
    conversations_to_csv,
    csv_to_conversations,
)
from rwdetect.errors import ClockSkew, InvariantViolation, RowError, SchemaMismatch

from conftest import make_conversation, make_packet


def golden_flow_packets():
    """20 TCP packets: 8 of 1396 bytes one way, 12 of 13741 bytes back."""
    a, b = ("192.168.1.4", 49252), ("192.168.1.5", 5357)
    ab_sizes = [175] * 6 + [173] * 2            # sums to 1396
    ba_sizes = [1145] * 11 + [1146]             # sums to 13741
    start, end = 1.841135, 1.867189             # duration 0.026054
    packets = []
    times = [start + i * (end - start) / 19 for i in range(19)] + [end]
    times = [round(t * 1e6) / 1e6 for t in times]
    times[0], times[-1] = start, end
    ab = iter(ab_sizes)
    ba = iter(ba_sizes)
    # deterministic interleave; the first packet goes a->b so A is 192.168.1.4
    order = ["ab"] * 8 + ["ba"] * 12
    order[1:5] = ["ba"] * 4                     # mix directions mid-flow
    order[8:12] = ["ab"] * 4
    assert order.count("ab") == 8
    for t, direction in zip(times, order):
        if direction == "ab":
            size = next(ab)
            packets.append(make_packet(t, a[0], a[1], b[0], b[1], TCP, size))
        else:
            size = next(ba)
            packets.append(make_packet(t, b[0], b[1], a[0], a[1], TCP, size))
    return packets


class TestAggregateGolden:
    def test_single_flow_reconstruction(self):
        convs = aggregate(golden_flow_packets(), capture_start=0.0)
        assert len(convs) == 1
        c = convs[0]
        assert c.protocol == TCP
        assert (c.address_a, c.port_a) == ("192.168.1.4", 49252)
        assert (c.address_b, c.port_b) == ("192.168.1.5", 5357)
        assert c.packets == 20
        assert c.bytes == 15137
        assert (c.packets_ab, c.bytes_ab) == (8, 1396)
        assert (c.packets_ba, c.bytes_ba) == (12, 13741)
        assert c.rel_start == 1.841135
        assert c.duration == pytest.approx(0.026054, abs=1e-9)

    def test_single_flow_csv_rendering(self):
        convs = aggregate(golden_flow_packets(), capture_start=0.0)
        line = conversations_to_csv(convs).splitlines()[1]
        assert line == (
            "6,192.168.1.4,49252,192.168.1.5,5357,"
            "20,15137,8,1396,12,13741,1.841135,0.026054"
        )

    def test_shuffled_input_same_result(self):
        packets = golden_flow_packets()
        reordered = packets[::-1]
        assert aggregate(reordered, capture_start=0.0) == \
            aggregate(packets, capture_start=0.0)


class TestAggregateSemantics:
    def test_endpoint_a_is_first_sender_even_if_higher_address(self):
        packets = [
            make_packet(1.0, "10.0.0.9", 99, "10.0.0.1", 11),
            make_packet(2.0, "10.0.0.1", 11, "10.0.0.9", 99),
        ]
        (c,) = aggregate(packets)
        assert (c.address_a, c.port_a) == ("10.0.0.9", 99)
        assert (c.packets_ab, c.packets_ba) == (1, 1)

    def test_same_timestamp_first_in_input_wins(self):
        packets = [
            make_packet(5.0, "10.0.0.2", 2, "10.0.0.1", 1),
            make_packet(5.0, "10.0.0.1", 1, "10.0.0.2", 2),
        ]
        (c,) = aggregate(packets)
        assert c.address_a == "10.0.0.2"

    def test_protocol_separates_conversations(self):
        packets = [
            make_packet(1.0, protocol=TCP),
            make_packet(2.0, protocol=UDP),
        ]
        convs = aggregate(packets)
        assert len(convs) == 2
        assert {c.protocol for c in convs} == {TCP, UDP}

    def test_ports_separate_conversations(self):
        packets = [
            make_packet(1.0, sport=1000, dport=80),
            make_packet(2.0, sport=1001, dport=80),
        ]
        assert len(aggregate(packets)) == 2

    def test_same_address_distinct_ports(self):
        packets = [
            make_packet(1.0, "127.0.0.1", 5000, "127.0.0.1", 5001),
            make_packet(1.5, "127.0.0.1", 5001, "127.0.0.1", 5000),
        ]
        (c,) = aggregate(packets)
        assert c.packets == 2
        assert c.port_a == 5000

    def test_output_sorted_by_rel_start(self):
        packets = [
            make_packet(9.0, sport=3000),
            make_packet(1.0, sport=1000),
            make_packet(4.0, sport=2000),
        ]
        convs = aggregate(packets)
        assert [c.port_a for c in convs] == [1000, 2000, 3000]
        assert [c.rel_start for c in convs] == [0.0, 3.0, 8.0]

    def test_rel_start_tie_breaks_on_key(self):
        packets = [
            make_packet(1.0, "10.0.0.5", 50, "10.0.0.6", 60),
            make_packet(1.0, "10.0.0.1", 10, "10.0.0.2", 20),
        ]
        convs = aggregate(packets)
        assert convs[0].address_a == "10.0.0.1"

    def test_explicit_capture_start_shifts_rel_start(self):
        (c,) = aggregate([make_packet(4.5)], capture_start=4.0)
        assert c.rel_start == 0.5
        assert c.duration == 0.0

    def test_clock_skew_with_index(self):
        packets = [make_packet(10.0), make_packet(9.0)]
        with pytest.raises(ClockSkew) as info:
            aggregate(packets, capture_start=9.5)
        assert info.value.index == 1

    def test_default_capture_start_never_skews(self):
        (c,) = aggregate([make_packet(9.0), make_packet(10.0, dport=80)])
        assert c.rel_start == 0.0

    def test_unsupported_protocol_is_precondition(self):
        with pytest.raises(ValueError):
            aggregate([make_packet(1.0, protocol=1)])

    def test_empty_input(self):
        assert aggregate([]) == []

    def test_key_is_direction_free(self):
        p1 = make_packet(1.0, "10.0.0.1", 1, "10.0.0.2", 2)
        p2 = make_packet(2.0, "10.0.0.2", 2, "10.0.0.1", 1)
        assert ConversationKey.from_packet(p1) == ConversationKey.from_packet(p2)


@st.composite
def packet_streams(draw):
    n = draw(st.integers(1, 40))
    endpoints = draw(
        st.lists(
            st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 65535)),
            min_size=2, max_size=6, unique=True,
        )
    )
    packets = []
    for _ in range(n):
        src, dst = draw(st.tuples(
            st.sampled_from(endpoints), st.sampled_from(endpoints)
        ))
        ts = draw(st.integers(0, 10**7)) / 1e6
        proto = draw(st.sampled_from((TCP, UDP)))
        size = draw(st.integers(1, 10**6))
        from rwdetect.capture import u32_to_ip
        packets.append(make_packet(
            ts, u32_to_ip(src[0]), src[1], u32_to_ip(dst[0]), dst[1],
            proto, size,
        ))
    return packets


class TestConservation:
    @given(packet_streams())
    def test_packets_and_bytes_conserved(self, packets):
        convs = aggregate(packets)
        assert sum(c.packets for c in convs) == len(packets)
        assert sum(c.bytes for c in convs) == sum(p.wire_bytes for p in packets)
        for c in convs:
            assert c.packets_ab + c.packets_ba == c.packets
            assert c.bytes_ab + c.bytes_ba == c.bytes
            assert c.packets_ab >= 1          # endpoint A sent the first packet
            assert c.duration >= 0.0
            assert c.rel_start >= 0.0

    @given(packet_streams())
    def test_keys_unique(self, packets):
        convs = aggregate(packets)
        keys = [c.key() for c in convs]
        assert len(set(keys)) == len(keys)


def reference_aggregate(packets) -> list[Conversation]:
    """``aggregate``'s contract, grouping by ``ConversationKey.from_packet``."""
    flows = {}
    for p in sorted(packets, key=lambda p: p.timestamp):
        flows.setdefault(ConversationKey.from_packet(p), []).append(p)
    start = min(p.timestamp for p in packets)
    out = []
    for key, ps in flows.items():
        a = (ps[0].src_addr, ps[0].src_port)
        ab = [p.wire_bytes for p in ps if (p.src_addr, p.src_port) == a]
        ba = [p.wire_bytes for p in ps if (p.src_addr, p.src_port) != a]
        out.append(Conversation(
            key.protocol, *a, ps[0].dst_addr, ps[0].dst_port, len(ps),
            sum(ab) + sum(ba), len(ab), sum(ab), len(ba), sum(ba),
            ps[0].timestamp - start, ps[-1].timestamp - ps[0].timestamp))
    return sorted(out, key=lambda c: (c.rel_start, c.key().sort_key()))


SMALL_SITE = list(product(("10.0.0.2", "10.0.0.10", "192.168.1.1"), (80, 1000)))


@st.composite
def small_site_streams(draw):
    """Packets among 2-3 endpoints: both directions, self-talk, equal times."""
    endpoints = draw(st.lists(st.sampled_from(SMALL_SITE), min_size=2,
                              max_size=3, unique=True))
    ends = st.sampled_from(endpoints)
    return draw(st.lists(st.builds(
        lambda t, src, dst, proto, size: make_packet(t, *src, *dst, proto, size),
        st.integers(0, 3).map(float), ends, ends, st.sampled_from((TCP, UDP)),
        st.integers(1, 1500),
    ), min_size=1, max_size=30))


class TestAgainstReference:
    @given(small_site_streams())
    @example([
        make_packet(1.0, "10.0.0.10", 80, "10.0.0.2", 1000, TCP, 60),
        make_packet(1.0, "10.0.0.2", 1000, "10.0.0.10", 80, TCP, 70),
        make_packet(1.0, "10.0.0.2", 1000, "10.0.0.10", 80, UDP, 80),
        make_packet(0.0, "10.0.0.2", 1000, "10.0.0.2", 1000, UDP, 90),
        make_packet(2.0, "10.0.0.10", 80, "10.0.0.2", 1000, UDP, 100),
    ])
    def test_matches_grouping_by_key(self, packets):
        assert aggregate(packets) == reference_aggregate(packets)

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_non_canonical_address_raises(self, bad_first):
        good = make_packet(1.0, "10.0.0.1", 1000, "10.0.0.2", 80)
        bad = make_packet(2.0, "10.0.0.2", 80, "10.0.0.01", 1000)
        if bad_first:
            bad = make_packet(0.5, "10.0.0.01", 1000, "10.0.0.2", 80)
        with pytest.raises(AddressValueError):
            aggregate([good, bad])


class TestConversationCsv:
    def test_header(self):
        text = conversations_to_csv([])
        assert text.strip() == ",".join(CONVERSATION_CSV_HEADER)

    def test_round_trip(self):
        convs = [
            make_conversation(rel_start=0.000001, duration=12.5),
            make_conversation(protocol=UDP, port_a=53, port_b=53,
                              packets_ba=0, bytes_ba=0),
        ]
        assert csv_to_conversations(conversations_to_csv(convs)) == convs

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            csv_to_conversations("nope\n")
        with pytest.raises(SchemaMismatch):
            csv_to_conversations("")

    def test_strict_rejects_inconsistent_totals(self):
        text = ",".join(CONVERSATION_CSV_HEADER) + "\n" + \
            "6,192.168.1.5,49322,192.168.1.4,445,10,1725,8,1545,3,180,8.632215,1.735099\n"
        with pytest.raises(InvariantViolation) as info:
            csv_to_conversations(text)
        assert info.value.line == 2

    def test_lenient_recomputes_totals_with_warning(self):
        text = ",".join(CONVERSATION_CSV_HEADER) + "\n" + \
            "6,192.168.1.5,49322,192.168.1.4,445,10,1725,8,1545,3,180,8.632215,1.735099\n"
        with pytest.warns(ConversationCsvWarning):
            (c,) = csv_to_conversations(text, strict=False)
        assert c.packets == 11
        assert c.bytes == 1725

    def test_negative_duration_rejected(self):
        row = "6,1.1.1.1,1,2.2.2.2,2,1,10,1,10,0,0,0.0,-1.0"
        with pytest.raises(RowError):
            csv_to_conversations(",".join(CONVERSATION_CSV_HEADER) + "\n" + row + "\n")

    @pytest.mark.parametrize("times", ["nan,0.0", "inf,0.0", "0.0,nan", "0.0,inf"])
    def test_non_finite_time_rejected(self, times):
        row = "6,1.1.1.1,1,2.2.2.2,2,1,10,1,10,0,0," + times
        with pytest.raises(RowError):
            csv_to_conversations(",".join(CONVERSATION_CSV_HEADER) + "\n" + row + "\n")

    def test_unsupported_protocol_rejected(self):
        row = "99,1.1.1.1,1,2.2.2.2,2,1,10,1,10,0,0,0.0,0.0"
        with pytest.raises(RowError):
            csv_to_conversations(",".join(CONVERSATION_CSV_HEADER) + "\n" + row + "\n")

    def test_row_error_line_numbers(self):
        good = conversations_to_csv([make_conversation()])
        with pytest.raises(RowError) as info:
            csv_to_conversations(good + "short,row\n")
        assert info.value.line == 3

    @given(
        st.lists(
            st.tuples(
                st.sampled_from((TCP, UDP)),
                st.integers(0, 2**32 - 1), st.integers(0, 65535),
                st.integers(0, 2**32 - 1), st.integers(0, 65535),
                st.integers(1, 500), st.integers(0, 10**6),   # ab packets/bytes
                st.integers(0, 500), st.integers(0, 10**6),   # ba packets/bytes
                st.integers(0, 10**9),                        # rel_start us
                st.integers(0, 10**9),                        # duration us
            ),
            max_size=20,
        )
    )
    def test_round_trip_property(self, rows):
        from rwdetect.capture import u32_to_ip
        convs = [
            Conversation(
                protocol=proto,
                address_a=u32_to_ip(a), port_a=pa,
                address_b=u32_to_ip(b), port_b=pb,
                packets=p_ab + p_ba, bytes=b_ab + b_ba,
                packets_ab=p_ab, bytes_ab=b_ab,
                packets_ba=p_ba, bytes_ba=b_ba,
                rel_start=rel_us / 1e6, duration=dur_us / 1e6,
            )
            for proto, a, pa, b, pb, p_ab, b_ab, p_ba, b_ba, rel_us, dur_us in rows
        ]
        assert csv_to_conversations(conversations_to_csv(convs)) == convs
