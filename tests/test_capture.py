"""pcap parsing and packet CSV round trips."""

from __future__ import annotations

import socket
import struct
import time
import tracemalloc
import warnings
from ipaddress import AddressValueError, IPv4Address
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwdetect import capture
from rwdetect.capture import (
    PACKET_CSV_HEADER,
    PCAP_MAGICS,
    SUPPORTED_PROTOCOLS,
    TCP,
    UDP,
    CaptureSummary,
    PacketRecord,
    ip_to_u32,
    parse_packet_csv,
    parse_pcap,
    read_pcap,
    u32_to_ip,
)
from rwdetect.errors import (
    BadMagic,
    Ipv6Unsupported,
    RowError,
    RwdetectError,
    SchemaMismatch,
    UnsupportedLinkType,
)

from conftest import (
    MAGIC_MICROS,
    MAGIC_NANOS,
    build_pcap,
    ether_frame,
    global_header,
    ipv4_header,
    packet_csv,
    record_header,
    tcp_udp_frame,
)


class TestAddressCodec:
    def test_known_value(self):
        assert ip_to_u32("192.168.1.4") == 3232235780

    def test_round_trip(self):
        for text in ("0.0.0.0", "255.255.255.255", "10.20.30.40"):
            assert u32_to_ip(ip_to_u32(text)) == text

    def test_extremes(self):
        assert ip_to_u32("0.0.0.0") == 0
        assert ip_to_u32("255.255.255.255") == 2**32 - 1

    @pytest.mark.parametrize("value", [-1, 2**32])
    def test_u32_out_of_range(self, value):
        with pytest.raises(OverflowError):
            u32_to_ip(value)

    @given(st.one_of(
        st.text(),
        st.text(alphabet="0123456789.x+- \n", max_size=20),
        st.lists(st.integers(0, 999).map(str) | st.sampled_from(["00", "01", "007", ""]),
                 min_size=1, max_size=5).map(".".join),
        st.binary(min_size=4, max_size=4).map(lambda b: str(IPv4Address(b))),
    ))
    def test_ip_to_u32_matches_ipv4address(self, text):
        try:
            expected = int(IPv4Address(text))
        except AddressValueError:
            with pytest.raises(AddressValueError):
                ip_to_u32(text)
        else:
            assert ip_to_u32(text) == expected

    @given(st.binary(min_size=4, max_size=4), st.binary(min_size=4, max_size=4))
    def test_pcap_addresses_match_ipv4address(self, src, dst):
        dotted = [".".join(map(str, raw)) for raw in (src, dst)]
        records, _ = parse_pcap(build_pcap([(1.0, tcp_udp_frame(*dotted, TCP, 1, 2))]))
        assert (records[0].src_addr, records[0].dst_addr) == (
            str(IPv4Address(src)), str(IPv4Address(dst)))


class TestParsePcap:
    def test_golden_little_endian_micros(self):
        frames = [
            (1.841135, tcp_udp_frame("192.168.1.4", "192.168.1.5", TCP, 49252, 5357)),
            (2.000001, tcp_udp_frame("192.168.1.5", "192.168.1.4", TCP, 5357, 49252, extra=100)),
            (2.5, tcp_udp_frame("10.0.0.9", "10.0.0.7", UDP, 5353, 5353)),
        ]
        records, summary = parse_pcap(build_pcap(frames))
        assert len(records) == 3
        assert summary.packets_read == 3
        assert summary.packets_skipped_non_ip == 0
        assert summary.packets_skipped_unsupported_protocol == 0
        assert summary.error is None

        first = records[0]
        assert first == PacketRecord(
            timestamp=1.841135, src_addr="192.168.1.4", src_port=49252,
            dst_addr="192.168.1.5", dst_port=5357, protocol=TCP,
            wire_bytes=len(frames[0][1]),
        )
        assert records[1].src_port == 5357
        assert records[1].dst_port == 49252
        assert records[2].protocol == UDP

    def test_big_endian(self):
        frames = [(7.25, tcp_udp_frame("1.2.3.4", "5.6.7.8", TCP, 80, 443))]
        records, _ = parse_pcap(build_pcap(frames, order=">"))
        assert records[0].timestamp == 7.25
        assert records[0].src_addr == "1.2.3.4"

    def test_nanosecond_magic(self):
        frame = tcp_udp_frame("1.1.1.1", "2.2.2.2", UDP, 53, 53)
        data = build_pcap([(3.000000001, frame)], magic=MAGIC_NANOS)
        records, _ = parse_pcap(data)
        assert records[0].timestamp == pytest.approx(3.000000001, abs=1e-12)

    def test_read_pcap_matches_parse_pcap(self, tmp_path):
        frames = [(1.0 + i, tcp_udp_frame("1.1.1.1", "2.2.2.2", TCP, 1, 2 + i))
                  for i in range(3)]
        whole = build_pcap(frames)
        for name, data in (("whole", whole), ("cut", whole[:-10])):
            path = tmp_path / f"{name}.pcap"
            path.write_bytes(data)
            assert read_pcap(path) == read_pcap(str(path)) == parse_pcap(data)
        records, summary = read_pcap(tmp_path / "cut.pcap")
        assert (len(records), summary.error) == (2, "truncated_record")

    def test_wire_bytes_is_original_length(self):
        frame = tcp_udp_frame("1.1.1.1", "2.2.2.2", TCP, 1, 2, extra=40)
        data = build_pcap([(1.0, frame, len(frame) + 500)])
        records, _ = parse_pcap(data)
        assert records[0].wire_bytes == len(frame) + 500

    def test_magic_set_matches_builder(self):
        for order in ("<", ">"):
            for magic in (MAGIC_MICROS, MAGIC_NANOS):
                head = struct.pack(order + "I", magic)
                assert head in PCAP_MAGICS

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            parse_pcap(b"\x0a\x0d\x0d\x0a" + bytes(20))  # pcapng block
        with pytest.raises(BadMagic):
            parse_pcap(bytes(24))

    def test_too_short_for_magic(self):
        with pytest.raises(BadMagic):
            parse_pcap(b"\xa1")

    def test_unsupported_link_type(self):
        data = global_header(network=101)  # raw IP, not Ethernet
        with pytest.raises(UnsupportedLinkType):
            parse_pcap(data)

    def test_truncated_global_header(self):
        data = global_header()[:10]
        records, summary = parse_pcap(data)
        assert records == []
        assert summary.error == "truncated_header"

    def test_truncated_record_header(self):
        frame = tcp_udp_frame("1.1.1.1", "2.2.2.2", TCP, 1, 2)
        data = build_pcap([(1.0, frame)]) + record_header("<", 2, 0, 60, 60)[:8]
        records, summary = parse_pcap(data)
        assert len(records) == 1
        assert summary.error == "truncated_record"

    def test_truncated_record_payload(self):
        frame = tcp_udp_frame("1.1.1.1", "2.2.2.2", TCP, 1, 2)
        whole = build_pcap([(1.0, frame), (2.0, frame)])
        records, summary = parse_pcap(whole[:-10])
        assert len(records) == 1
        assert summary.error == "truncated_record"

    def test_peak_memory_is_the_table_and_the_offsets(self):
        """Beyond the table's columns and 8 bytes of offset a record, a
        parse holds one chunk's temporaries (0.6 MiB here), never a copy of
        the file or a Python int a record.  At 200k records a list of
        offsets reads 2.9 MiB over the bound, and a padded copy of the file
        11 MiB; at 20k a list stays under the chunk's temporaries.  The
        capture ends in a runt and two empty frames, so the bound covers
        the batch read from the padded tail too."""
        def records(*frames):
            return b"".join(record_header("<", 1, 0, len(frame), len(frame)) + frame
                            for frame in frames)

        pair = records(tcp_udp_frame("10.0.0.1", "10.0.0.2", TCP, 1000, 80, extra=0),
                       tcp_udp_frame("10.0.0.2", "10.0.0.1", UDP, 53, 53, extra=0, vlan_tags=1))
        data = global_header("<") + pair * 100_000 + records(b"\x00" * 10, b"", b"")
        tracemalloc.start()
        try:
            table, summary = parse_pcap(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary.packets_read == len(table) == 200_000
        columns = sum(column.nbytes for column in table.columns)
        assert peak - columns - 8 * len(table) <= 2**20


class TestSkipBuckets:
    def parse_one(self, frame):
        return parse_pcap(build_pcap([(1.0, frame)]))

    def test_arp_is_non_ip(self):
        records, summary = self.parse_one(ether_frame(bytes(28), ethertype=0x0806))
        assert records == []
        assert summary.packets_skipped_non_ip == 1
        assert summary.packets_skipped_unsupported_protocol == 0

    def test_ipv6_is_non_ip(self):
        records, summary = self.parse_one(ether_frame(bytes(40), ethertype=0x86DD))
        assert summary.packets_skipped_non_ip == 1

    def test_runt_frame_is_non_ip(self):
        records, summary = self.parse_one(b"\x00" * 10)
        assert summary.packets_skipped_non_ip == 1

    def test_single_vlan_unwrapped(self):
        frame = tcp_udp_frame("9.9.9.9", "8.8.8.8", TCP, 1234, 80, vlan_tags=1)
        records, summary = self.parse_one(frame)
        assert len(records) == 1
        assert records[0].src_addr == "9.9.9.9"
        assert summary.packets_skipped_non_ip == 0

    def test_double_vlan_skipped(self):
        frame = tcp_udp_frame("9.9.9.9", "8.8.8.8", TCP, 1234, 80, vlan_tags=2)
        records, summary = self.parse_one(frame)
        assert records == []
        assert summary.packets_skipped_non_ip == 1

    def test_icmp_is_unsupported_protocol(self):
        ip = ipv4_header("1.1.1.1", "2.2.2.2", 1, 8) + bytes(8)
        records, summary = self.parse_one(ether_frame(ip))
        assert records == []
        assert summary.packets_skipped_unsupported_protocol == 1
        assert summary.packets_skipped_non_ip == 0

    def test_fragment_is_unsupported(self):
        # fragment offset 1 (x8 bytes): transport header lives in fragment 0
        frame = tcp_udp_frame("1.1.1.1", "2.2.2.2", TCP, 7, 9, flags_frag=1)
        records, summary = self.parse_one(frame)
        assert records == []
        assert summary.packets_skipped_unsupported_protocol == 1

    def test_first_fragment_with_more_flag_parses(self):
        # MF flag set but offset 0: ports are present
        frame = tcp_udp_frame("1.1.1.1", "2.2.2.2", UDP, 7, 9,
                              flags_frag=0x2000)
        records, summary = self.parse_one(frame)
        assert len(records) == 1

    def test_snaplen_cut_transport_is_unsupported(self):
        frame = tcp_udp_frame("1.1.1.1", "2.2.2.2", TCP, 7, 9)
        cut = frame[:14 + 20 + 2]  # ethernet + ipv4, only half the ports
        data = build_pcap([(1.0, cut, len(frame))])
        records, summary = parse_pcap(data)
        assert records == []
        assert summary.packets_skipped_unsupported_protocol == 1

    def test_ip_options_respected(self):
        frame = tcp_udp_frame("3.3.3.3", "4.4.4.4", TCP, 21, 22, ihl_words=6)
        records, _ = self.parse_one(frame)
        assert records[0].src_port == 21
        assert records[0].dst_port == 22


def reference_parse(data: bytes) -> tuple[list[PacketRecord], CaptureSummary]:
    """A frame-at-a-time pcap decoder: ``parse_pcap`` must agree with it on
    every record and every summary field."""
    if len(data) < 4 or data[:4] not in PCAP_MAGICS:
        raise BadMagic("not a classic pcap file")
    order, divisor = PCAP_MAGICS[data[:4]]
    summary = CaptureSummary()
    if len(data) < 24:
        summary.error = "truncated_header"
        return [], summary
    if struct.unpack(order + "I", data[20:24])[0] != 1:
        raise UnsupportedLinkType("not Ethernet")
    records, offset = [], 24
    while offset < len(data):
        if len(data) - offset < 16:
            summary.error = "truncated_record"
            break
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack(
            order + "IIII", data[offset:offset + 16])
        if len(data) - offset - 16 < incl_len:
            summary.error = "truncated_record"
            break
        frame = data[offset + 16:offset + 16 + incl_len]
        offset += 16 + incl_len
        bucket = reference_decode(frame, ts_sec + ts_frac / divisor, orig_len)
        if isinstance(bucket, PacketRecord):
            records.append(bucket)
        elif bucket == "non_ip":
            summary.packets_skipped_non_ip += 1
        else:
            summary.packets_skipped_unsupported_protocol += 1
    summary.packets_read = len(records)
    return records, summary


def reference_decode(frame: bytes, timestamp: float, orig_len: int):
    """One Ethernet frame's PacketRecord, or the bucket it is skipped in."""
    if len(frame) < 14:
        return "non_ip"
    ethertype = struct.unpack(">H", frame[12:14])[0]
    ip_start = 14
    if ethertype == 0x8100:
        if len(frame) < 18:
            return "non_ip"
        ethertype = struct.unpack(">H", frame[16:18])[0]
        ip_start = 18
        if ethertype == 0x8100:
            return "non_ip"
    if ethertype != 0x0800:
        return "non_ip"
    ip = frame[ip_start:]
    if len(ip) < 1 or ip[0] >> 4 != 4:
        return "non_ip"
    if len(ip) < 20:
        return "unsupported"
    ihl = (ip[0] & 0x0F) * 4
    if ihl < 20:
        return "non_ip"
    frag_offset = struct.unpack(">H", ip[6:8])[0] & 0x1FFF
    if frag_offset != 0 or ip[9] not in SUPPORTED_PROTOCOLS:
        return "unsupported"
    if len(ip) < ihl + 4:
        return "unsupported"
    src_port, dst_port = struct.unpack(">HH", ip[ihl:ihl + 4])
    return PacketRecord(timestamp, socket.inet_ntoa(ip[12:16]), src_port,
                        socket.inet_ntoa(ip[16:20]), dst_port, ip[9], orig_len)


@st.composite
def frames(draw) -> bytes:
    """An Ethernet frame, mostly a TCP/UDP packet, but each field is odd
    one time in five: runts, short and double VLAN tags, other EtherTypes
    and IP versions, short IP headers, any IHL, fragments, other protocols,
    cut-off ports."""
    def pick(normal, odd):
        return draw(st.sampled_from(odd)) if draw(st.integers(0, 4)) == 0 else normal

    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    ihl_words = pick(5, [6, 15, 0, 1, 4])
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        pick(4, [6, 0, 15]) << 4 | ihl_words, 0, 0, 1,
        pick(0, [0x2000, 0x4000, 0x1000, 1, 185, 0x1FFF, 0xFFFF]),
        64, pick(draw(st.sampled_from([TCP, UDP])), [1, 0, 255]), 0,
        draw(st.binary(min_size=4, max_size=4)), draw(st.binary(min_size=4, max_size=4)),
    ) + bytes(max(0, ihl_words * 4 - 20))
    transport = struct.pack(">HH", draw(st.integers(0, 65535)), draw(st.integers(0, 65535)))
    vlan_tags = pick(0, [1, 2])
    frame = ether_frame(ip + transport + bytes(draw(st.integers(0, 8))),
                        ethertype=pick(0x0800, [0x0806, 0x86DD, 0x8100]),
                        vlan_tags=vlan_tags)
    ip_start = 14 + 4 * vlan_tags
    edges = [13, 14, 17, 18] + [ip_start + n for n in (1, 9, 10, 19, 20, 4 * ihl_words + 3)]
    return frame[:pick(len(frame), edges + list(range(len(frame))))]


@st.composite
def captures(draw) -> bytes:
    """A classic pcap of random frames in either byte order and timestamp
    unit, perhaps cut inside its last record."""
    order = draw(st.sampled_from(["<", ">"]))
    magic = draw(st.sampled_from([MAGIC_MICROS, MAGIC_NANOS]))
    out = [global_header(order, magic)]
    for frame in draw(st.lists(frames(), max_size=12)):
        out.append(record_header(order, draw(st.integers(0, 2**32 - 1)),
                                 draw(st.integers(0, 2**32 - 1)), len(frame),
                                 draw(st.sampled_from([len(frame), 0, 2**32 - 1]))))
        out.append(frame)
    data = b"".join(out)
    return data[:len(data) - draw(st.just(0) | st.integers(0, min(40, len(data) - 24)))]


class TestDecoderMatchesReference:
    """The chunked array decoder and the frame-at-a-time decoder give equal
    records and summaries, across every chunk boundary."""

    @settings(max_examples=300)
    @given(captures())
    def test_random_captures(self, data):
        want = reference_parse(data)
        for chunk in (1, 2, 3, capture._CHUNK_FRAMES):
            with mock.patch.object(capture, "_CHUNK_FRAMES", chunk):
                got = parse_pcap(data)
            assert got == want
            for record in got[0]:
                assert list(map(type, record)) == [float, str, int, str, int, int, int]

    @pytest.mark.parametrize("order", ["<", ">"])
    def test_every_cut_of_every_frame(self, order):
        """Every prefix of a few frames, one record each.  The bytes read
        past a cut frame are the next record header's, and its seconds
        field 0x45454545 looks like the start of an IPv4 header there."""
        def with_ihl(frame, ip_start, ihl_words):
            return (frame[:ip_start] + bytes([0x40 | ihl_words])
                    + frame[ip_start + 1:])

        plain = tcp_udp_frame("1.2.3.4", "5.6.7.8", TCP, 80, 443, extra=2)
        bases = [
            plain,
            tcp_udp_frame("1.2.3.4", "5.6.7.8", UDP, 53, 53, extra=2, vlan_tags=1),
            tcp_udp_frame("1.2.3.4", "5.6.7.8", TCP, 1, 2, extra=2, ihl_words=6),
            tcp_udp_frame("1.2.3.4", "5.6.7.8", TCP, 1, 2, extra=2, ihl_words=6,
                          vlan_tags=1),
            tcp_udp_frame("1.2.3.4", "5.6.7.8", TCP, 1, 2, vlan_tags=2),
            with_ihl(plain, 14, 4),
            with_ihl(plain, 14, 0),
        ]
        cuts = [base[:n] for base in bases for n in range(len(base) + 1)]
        data = global_header(order) + b"".join(
            record_header(order, 0x45454545, i, len(frame), len(frame)) + frame
            for i, frame in enumerate(cuts))
        want = reference_parse(data)
        assert want[0] and want[1].packets_skipped_non_ip and want[1].packets_skipped_unsupported_protocol
        for chunk in (1, 3, capture._CHUNK_FRAMES):
            with mock.patch.object(capture, "_CHUNK_FRAMES", chunk):
                assert parse_pcap(data) == want

    @pytest.mark.parametrize("order", ["<", ">"])
    def test_every_prefix_across_the_head_row(self, order):
        """Every prefix, from the bare global header up, of a capture of
        one plain frame, one VLAN frame, one runt, all three plus an empty
        frame, and three empty frames.  A head row is 54 bytes: the short
        prefixes hold no whole row, the prefixes of the four-record capture
        read some rows from the file and the rest from its padded tail, and
        every record of the three empty frames is read from a tail holding
        several of them."""
        plain = tcp_udp_frame("1.2.3.4", "5.6.7.8", TCP, 80, 443, extra=2)
        vlan = tcp_udp_frame("1.2.3.4", "5.6.7.8", UDP, 53, 53, extra=2, vlan_tags=1)
        runt = b"\x00" * 10
        for frames in ([plain], [vlan], [runt], [plain, vlan, runt, b""], [b"", b"", b""]):
            data = global_header(order) + b"".join(
                record_header(order, 7, i, len(frame), len(frame)) + frame
                for i, frame in enumerate(frames))
            for n in range(24, len(data) + 1):
                want = reference_parse(data[:n])
                for chunk in (1, 3, capture._CHUNK_FRAMES):
                    with mock.patch.object(capture, "_CHUNK_FRAMES", chunk):
                        assert parse_pcap(data[:n]) == want, (frames, n, chunk)

    def test_golden_frames_match(self):
        frames = [
            (1.0, ether_frame(bytes(28), ethertype=0x0806)),
            (1.5, tcp_udp_frame("1.1.1.1", "2.2.2.2", TCP, 1, 2, vlan_tags=1)),
            (2.0, tcp_udp_frame("1.1.1.1", "2.2.2.2", UDP, 3, 4, ihl_words=6)),
            (2.5, tcp_udp_frame("1.1.1.1", "2.2.2.2", TCP, 5, 6, flags_frag=185)),
            (3.0, b""),
        ]
        for order in ("<", ">"):
            for magic in (MAGIC_MICROS, MAGIC_NANOS):
                data = build_pcap(frames, order=order, magic=magic)
                assert parse_pcap(data) == reference_parse(data)
                assert parse_pcap(data[:-3]) == reference_parse(data[:-3])

    def test_equal_addresses_share_one_string(self):
        frame = tcp_udp_frame("10.1.2.3", "10.4.5.6", TCP, 1, 2)
        records, _ = parse_pcap(build_pcap([(1.0, frame), (2.0, frame)]))
        assert records[0].src_addr is records[1].src_addr


class TestParsePcapFuzz:
    """Any input ends in records or a typed error: never an IndexError, a
    numpy error or a RuntimeWarning, and never a slow parse."""

    @staticmethod
    def parse_typed(data: bytes) -> None:
        started = time.perf_counter()
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            try:
                parse_pcap(data)
            except RwdetectError:
                pass
        assert time.perf_counter() - started < 2.0

    @given(st.binary(max_size=200))
    def test_arbitrary_bytes(self, data):
        self.parse_typed(data)

    @given(st.sampled_from(sorted(PCAP_MAGICS)), st.binary(max_size=600))
    def test_valid_header_then_arbitrary_records(self, magic, records):
        order = PCAP_MAGICS[magic][0]
        self.parse_typed(magic + global_header(order)[4:] + records)

class TestPacketCsv:
    def test_header(self):
        text = packet_csv([])
        assert text.splitlines()[0] == ",".join(PACKET_CSV_HEADER)

    def test_round_trip_exact(self):
        records = [
            PacketRecord(1.841135, "192.168.1.4", 49252, "192.168.1.5", 5357, TCP, 66),
            PacketRecord(2.000001, "10.0.0.9", 5353, "10.0.0.7", 5353, UDP, 1500),
        ]
        assert parse_packet_csv(packet_csv(records))[0] == records

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            parse_packet_csv("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaMismatch):
            parse_packet_csv("")

    def test_row_error_carries_line_number(self):
        text = packet_csv([PacketRecord(1.0, "1.1.1.1", 1, "2.2.2.2", 2, TCP, 10)])
        text += "not-a-time,1.1.1.1,1,2.2.2.2,2,6,10\n"
        with pytest.raises(RowError) as info:
            parse_packet_csv(text)
        assert info.value.line == 3

    def test_ipv6_address_rejected_distinctly(self):
        text = ",".join(PACKET_CSV_HEADER) + "\n1.0,::1,1,2.2.2.2,2,6,10\n"
        with pytest.raises(Ipv6Unsupported):
            parse_packet_csv(text)

    def test_port_and_protocol_bounds(self):
        head = ",".join(PACKET_CSV_HEADER) + "\n"
        with pytest.raises(RowError):
            parse_packet_csv(head + "1.0,1.1.1.1,99999,2.2.2.2,2,6,10\n")
        with pytest.raises(RowError):
            parse_packet_csv(head + "1.0,1.1.1.1,1,2.2.2.2,2,99,10\n")
        with pytest.raises(RowError):
            parse_packet_csv(head + "1.0,1.1.1.1,1,2.2.2.2,2,6,-5\n")

    @pytest.mark.parametrize("column,text", [
        (0, "1_0.5"), (0, " 1.0"), (0, "+1.0"), (0, "-0.0"), (0, "\u0661.0"),
        (0, "nan"), (0, "inf"), (0, "1e999"),
        (2, "\u0668\u0660"), (2, " 80"), (2, "8_0"), (2, "+80"), (2, "80.0"),
        (4, " 8_0 "), (5, "\uff16"), (6, "1_00"), (6, "100 "), (6, "\u00b9"),
        # int() refuses more than 4,300 digits with a plain ValueError; the
        # field is still under the csv module's own size limit.
        pytest.param(2, "1" * 4301, id="2-4301-digits"),
        pytest.param(6, "1" * 4301, id="6-4301-digits"),
    ])
    def test_numbers_are_ascii_decimals(self, column, text):
        fields = "1.0,10.0.0.1,1000,10.0.0.2,80,6,100".split(",")
        fields[column] = text
        text = ",".join(PACKET_CSV_HEADER) + "\n" + ",".join(fields) + "\n"
        with pytest.raises(RowError, match=PACKET_CSV_HEADER[column]) as info:
            parse_packet_csv(text)
        assert info.value.line == 2
        table, summary = parse_packet_csv(text, lenient=True)
        assert len(table) == 0 and summary.rows_skipped_malformed == 1

    def test_row_of_number_lookalikes_rejected(self):
        text = (",".join(PACKET_CSV_HEADER)
                + "\n1_0.5,10.0.0.1,\u0668\u0660,10.0.0.2, 8_0 ,6,1_00\n")
        with pytest.raises(RowError):
            parse_packet_csv(text)
        table, summary = parse_packet_csv(text, lenient=True)
        assert len(table) == 0 and summary.rows_skipped_malformed == 1

    def test_lenient_counts_bad_rows(self):
        good = PacketRecord(1.0, "1.1.1.1", 1, "2.2.2.2", 2, TCP, 10)
        text = packet_csv([good]) + "garbage row\n" + "2.0,bad,1,2.2.2.2,2,6,10\n"
        records, summary = parse_packet_csv(text, lenient=True)
        assert records == [good]
        assert summary.rows_skipped_malformed == 2

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**31 - 1),          # whole seconds
                st.integers(0, 999_999),            # microseconds
                st.integers(0, 2**32 - 1),          # src ip
                st.integers(0, 65535),
                st.integers(0, 2**32 - 1),          # dst ip
                st.integers(0, 65535),
                st.sampled_from(SUPPORTED_PROTOCOLS),
                st.integers(1, 10**9),
            ),
            max_size=30,
        )
    )
    def test_round_trip_property(self, rows):
        records = [
            PacketRecord(
                timestamp=sec + usec / 1e6,
                src_addr=u32_to_ip(src), src_port=sport,
                dst_addr=u32_to_ip(dst), dst_port=dport,
                protocol=proto, wire_bytes=nbytes,
            )
            for sec, usec, src, sport, dst, dport, proto, nbytes in rows
        ]
        assert parse_packet_csv(packet_csv(records))[0] == records
