"""Windowed detection: bucketing, alerting, and batch equivalence."""

from __future__ import annotations

import hashlib
import ipaddress
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwdetect.capture import PacketRecord, PacketTable
from rwdetect.classifiers import (
    ClassifierKind,
    load_model,
    model_fingerprint,
    predict_many,
    save_model,
    train,
)
from rwdetect.classifiers import model_io
from rwdetect.conversation import ConversationTable, aggregate
from rwdetect.detect import (
    Alert,
    DetectionSummary,
    WindowSpec,
    alert_to_json,
    alert_warning_line,
    detect_stream,
    read_packet_source,
    window_packets,
)
from rwdetect.errors import BadMagic, ClockSkew, InvalidHyperparams, SinkFailure
from rwdetect.features import FEATURE_NAMES, Dataset, encode

from conftest import (
    build_pcap,
    conversation_key,
    make_packet,
    packet_csv,
    tcp_udp_frame,
)


def bytes_threshold_model():
    """Tree that flags any conversation moving more than ~2.5 KB."""
    x = np.zeros((6, 13))
    x[:, 6] = (100.0, 300.0, 800.0, 4300.0, 5000.0, 9000.0)
    return train(ClassifierKind.J48, Dataset(x, [0, 0, 0, 1, 1, 1]))


def alert_conversation(alert: Alert):
    """The Conversation whose feature row the alert holds."""
    return ConversationTable(np.array([value], dtype) for value, dtype
                             in zip(alert.features, ConversationTable._dtypes))[0]


def flow(t0, src, sport, dst, dport, n, size, spacing=0.1, protocol=6):
    return [
        make_packet(t0 + i * spacing, src=src, sport=sport, dst=dst,
                    dport=dport, protocol=protocol, wire_bytes=size)
        for i in range(n)
    ]


class TestWindowSpec:
    def test_default_interval(self):
        assert WindowSpec().interval == 60.0

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(InvalidHyperparams):
            WindowSpec(interval=bad)

    @pytest.mark.parametrize("bad, got", [
        ("60", "str"), (True, "bool"), (np.float64(60.0), "float64"),
    ])
    def test_rejects_other_types(self, bad, got):
        # A str once failed in the comparison, and True was a 1 s window.
        with pytest.raises(InvalidHyperparams, match=f"^interval must be float, got {got}$"):
            WindowSpec(bad)

    def test_int_interval_stands_for_float(self):
        assert WindowSpec(60).interval == 60

    @pytest.mark.parametrize("digits", [401, 5001])
    def test_int_past_the_float_range(self, digits):
        # Once an OverflowError from math.isfinite.
        with pytest.raises(InvalidHyperparams, match="^interval is an int past the float range$"):
            WindowSpec(10 ** (digits - 1))


class TestWindowPackets:
    def test_half_open_boundaries(self):
        spec = WindowSpec(interval=10.0)
        packets = [
            make_packet(100.0),
            make_packet(109.999999),
            make_packet(110.0),
        ]
        buckets = window_packets(packets, spec, capture_start=100.0)
        assert [(w, len(ps)) for w, ps in buckets] == [(0, 2), (1, 1)]

    def test_empty_windows_omitted(self):
        spec = WindowSpec(interval=10.0)
        packets = [make_packet(0.5), make_packet(57.0)]
        buckets = window_packets(packets, spec, capture_start=0.0)
        assert [w for w, _ in buckets] == [0, 5]

    def test_default_start_is_earliest_packet(self):
        spec = WindowSpec(interval=10.0)
        packets = [make_packet(1000.0), make_packet(995.0)]
        buckets = window_packets(packets, spec)
        assert [(w, len(ps)) for w, ps in buckets] == [(0, 2)]

    def test_clock_skew_reports_packet_index(self):
        packets = [make_packet(50.0), make_packet(49.0)]
        with pytest.raises(ClockSkew) as excinfo:
            window_packets(packets, WindowSpec(), capture_start=49.5)
        assert excinfo.value.index == 1

    def test_no_packets_no_windows(self):
        assert window_packets([], WindowSpec()) == []

    def test_interval_too_small_for_span(self):
        # One second over 1e-320 s overflows to an infinite window number,
        # whose window closes at infinity.
        packets = [make_packet(0.0), make_packet(1.0)]
        with pytest.raises(InvalidHyperparams, match="past the largest float"):
            window_packets(packets, WindowSpec(interval=1e-320))

    @pytest.mark.parametrize("start", [0.0, np.float64(0.0), 1e308, np.float64(1e308)],
                             ids=["float", "numpy", "late-float", "late-numpy"])
    def test_last_window_closing_past_the_largest_float(self, start):
        # Every window number is finite, yet the last window closes at
        # 2e308 s.  A numpy capture start must not warn on the overflow.
        packets = [make_packet(float(start)), make_packet(1.7e308)]
        with pytest.raises(InvalidHyperparams, match="past the largest float"):
            window_packets(packets, WindowSpec(interval=1e308), start)


#: The three entry points that take packets and a capture start.
PACKET_CONSUMERS = pytest.mark.parametrize("run", [
    lambda packets, start: aggregate(packets, capture_start=start),
    lambda packets, start: window_packets(packets, WindowSpec(60.0), start),
    lambda packets, start: detect_stream(packets, bytes_threshold_model(),
                                         WindowSpec(60.0), [].append,
                                         capture_start=start),
], ids=["aggregate", "window_packets", "detect_stream"])


# A bool is no number: True was once taken as a start of 1.0, False as 0.0.
@pytest.mark.parametrize("start", [float("nan"), float("inf"), float("-inf"), True, False,
                                   pytest.param(np.True_, id="numpy-True")])
@PACKET_CONSUMERS
def test_non_finite_capture_start_rejected(run, start):
    for packets in ([make_packet(1.0), make_packet(2.0)], []):
        with pytest.raises(InvalidHyperparams, match="capture start"):
            run(packets, start)


@PACKET_CONSUMERS
def test_capture_start_past_the_float_range_rejected(run):
    # Once an OverflowError from math.isfinite.
    for packets in ([make_packet(1.0), make_packet(2.0)], []):
        with pytest.raises(InvalidHyperparams, match="capture start is past the float range"):
            run(packets, 10 ** 400)


@pytest.mark.parametrize("start", [np.float64(2.0), np.float32(2.0), np.int64(2), 2],
                         ids=["float64", "float32", "int64", "int"])
@PACKET_CONSUMERS
def test_capture_start_reported_as_a_float(run, start):
    # Once reported as given: "np.float64(2.0)", "np.int64(2)", "2".
    with pytest.raises(ClockSkew, match=r"^packet 0 at 1\.0 precedes capture start 2\.0$"):
        run([make_packet(1.0)], start)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
@PACKET_CONSUMERS
def test_record_timestamp_outside_the_readers_range_rejected(run, t):
    # A NaN timestamp once gave a conversation with rel_start=nan.
    for packets in ([make_packet(t)], [make_packet(1.0), make_packet(t)]):
        for start in (None, 0.0):
            with pytest.raises(ValueError, match="finite and non-negative"):
                run(packets, start)
    with pytest.raises(ValueError, match="finite and non-negative"):
        PacketTable.of([make_packet(t)])


@pytest.mark.parametrize("protocol", [0, 1, 255])
@PACKET_CONSUMERS
def test_record_protocol_other_than_tcp_udp_rejected(run, protocol):
    # Such a packet once entered the table: ``window_packets`` put it in a
    # window, and only ``aggregate`` refused it, by its place in the window.
    packets = [make_packet(1.0), make_packet(2.0, protocol=protocol)]
    message = rf"^packet 1: protocol {protocol} is not TCP \(6\) or UDP \(17\)$"
    for start in (None, 0.0):
        with pytest.raises(ValueError, match=message):
            run(packets, start)
    with pytest.raises(ValueError, match=message):
        PacketTable.of(packets)


def packet_columns(values, dtypes=PacketTable._dtypes):
    return [np.array([value], dtype) for value, dtype in zip(values, dtypes)]


_PACKET = (1.0, 1, 1000, 2, 80, 6, 60)
_INT64_PROTOCOL = PacketTable._dtypes[:5] + (np.int64, np.uint32)
_FLOAT_PROTOCOL = PacketTable._dtypes[:5] + (np.float64, np.uint32)


# Each of these columns once built a table; what became of it is noted.
@pytest.mark.parametrize("columns, message", [
    # aggregate gave a conversation of protocol 1 with rel_start=nan
    (packet_columns((float("nan"), 1, 1000, 2, 80, 1, 60)), "finite and non-negative"),
    (packet_columns((1.0, 1, 1000, 2, 80, 1, 60)), r"^packet 0: protocol 1 is not TCP"),
    # aggregate gave a conversation of protocol 44
    (packet_columns((1.0, 1, 1000, 2, 80, 300, 60), _INT64_PROTOCOL), "7 equal-length"),
    # aggregate raised TypeError
    (packet_columns(_PACKET, _FLOAT_PROTOCOL), "7 equal-length"),
    # window_packets raised IndexError
    ([np.array([1.0, 2.0])] + packet_columns(_PACKET)[1:], "7 equal-length"),
    # aggregate raised "not enough values to unpack"
    (packet_columns(_PACKET)[:6], "7 equal-length"),
    (packet_columns(_PACKET)[:6] + [np.array([[60]], np.uint32)], "7 equal-length"),
    (packet_columns(_PACKET)[:6] + [[60]], "7 equal-length"),
], ids=["nan-timestamp", "icmp", "int64-protocol", "float-protocol", "unequal-lengths",
        "six-columns", "2d-column", "list-column"])
def test_table_built_from_columns_keeps_the_rules(columns, message):
    with pytest.raises(ValueError, match=message):
        PacketTable(columns)


class TestDetectStream:
    def run(self, packets, model=None, interval=10.0, capture_start=0.0):
        model = model or bytes_threshold_model()
        alerts: list[Alert] = []
        summary = detect_stream(packets, model, WindowSpec(interval),
                                alerts.append, capture_start=capture_start)
        return alerts, summary, model

    def test_only_positives_alert(self):
        packets = (
            flow(1.0, "10.0.0.7", 1111, "10.0.0.8", 80, n=2, size=100)
            + flow(2.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                   n=6, size=600)
        )
        alerts, summary, model = self.run(packets)
        assert summary == DetectionSummary(
            windows=1, conversations=2, alerts=1, packets=8,
            skipped_malformed=0)
        [alert] = alerts
        assert alert_conversation(alert).address_a == "192.168.1.4"
        assert alert.score >= 0.5
        assert alert.model_fingerprint == model_fingerprint(model)

    def test_loaded_model_is_not_serialized_again(self, monkeypatch):
        blob = save_model(bytes_threshold_model())
        model = load_model(blob)

        def refuse(_model):
            raise AssertionError("save_model called")

        monkeypatch.setattr(model_io, "save_model", refuse)
        packets = flow(2.0, "192.168.1.4", 2222, "192.168.1.5", 443, n=6, size=600)
        [alert], _, _ = self.run(packets, model)
        assert alert.model_fingerprint == hashlib.sha256(blob).hexdigest()

    def test_alert_order_within_window(self):
        packets = (
            flow(3.0, "192.168.1.4", 2222, "192.168.1.5", 443, n=6, size=600)
            + flow(1.0, "10.0.0.7", 1111, "10.0.0.8", 80, n=6, size=700)
        )
        alerts, _, _ = self.run(packets)
        assert [alert_conversation(a).address_a for a in alerts] == [
            "10.0.0.7", "192.168.1.4"]     # canonical key order, not arrival

    def test_windows_ordered_before_keys(self):
        packets = (
            flow(12.0, "10.0.0.7", 1111, "10.0.0.8", 80, n=6, size=700)
            + flow(1.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                   n=6, size=600)
        )
        alerts, summary, _ = self.run(packets)
        assert summary.windows == 2
        assert [a.window_index for a in alerts] == [0, 1]
        assert alert_conversation(alerts[0]).address_a == "192.168.1.4"

    def test_emitted_at_is_window_close(self):
        packets = flow(23.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                       n=6, size=600)
        alerts, _, _ = self.run(packets, interval=10.0, capture_start=0.0)
        assert alerts[0].window_index == 2
        assert alerts[0].emitted_at == 30.0

    @pytest.mark.parametrize("start, t", [(0.0, 1.79e308), (1e308, 1.7e308)],
                             ids=["window-number", "capture-start"])
    def test_last_window_closing_past_the_largest_float_raises(self, start, t):
        # Each flow alerts alone; the last window closes at 2e308 s, which
        # was once emitted as an infinite ``emitted_at``.
        packets = (flow(start, "192.168.1.4", 2222, "192.168.1.5", 443, n=6, size=600)
                   + flow(t, "192.168.1.6", 2222, "192.168.1.7", 443, n=6, size=600))
        alerts: list[Alert] = []
        with pytest.raises(InvalidHyperparams, match="past the largest float"):
            detect_stream(packets, bytes_threshold_model(), WindowSpec(1e308),
                          alerts.append, capture_start=start)
        assert alerts == []

    def test_flow_spanning_windows_alerts_twice(self):
        packets = flow(8.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                       n=8, size=700, spacing=0.5)    # 8.0 .. 11.5
        alerts, summary, _ = self.run(packets)
        assert summary.windows == 2
        assert [a.window_index for a in alerts] == [0, 1]
        keys = {conversation_key(alert_conversation(a)) for a in alerts}
        assert len(keys) == 1

    def test_unsupported_protocol_raises(self):
        # load_packets yields TCP/UDP only; a hand-built ICMP record at input
        # position 6, in window 2, once failed only when its window was
        # aggregated: after window 0's alert reached the sink, and named as
        # "packet 0", its place in the window.
        packets = flow(1.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                       n=6, size=600)
        assert len(self.run(packets)[0]) == 1
        icmp = PacketRecord(
            timestamp=25.0, src_addr="10.0.0.1", src_port=0,
            dst_addr="10.0.0.2", dst_port=0, protocol=1, wire_bytes=64)
        alerts: list[Alert] = []
        with pytest.raises(ValueError, match=r"^packet 6: protocol 1 is not TCP"):
            detect_stream(packets + [icmp], bytes_threshold_model(), WindowSpec(10.0),
                          alerts.append, capture_start=0.0)
        assert alerts == []

    def test_skipped_malformed_passthrough(self):
        packets = flow(1.0, "10.0.0.7", 1111, "10.0.0.8", 80, n=2, size=100)
        summary = detect_stream(packets, bytes_threshold_model(),
                                WindowSpec(10.0), lambda a: None,
                                capture_start=0.0, skipped_malformed=3)
        assert summary.skipped_malformed == 3

    def test_sink_failure_carries_partial_summary(self):
        packets = (
            flow(1.0, "10.0.0.7", 1111, "10.0.0.8", 80, n=6, size=700)
            + flow(2.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                   n=6, size=600)
        )
        seen = []

        def sink(alert):
            if seen:
                raise OSError("pipe closed")
            seen.append(alert)

        with pytest.raises(SinkFailure) as excinfo:
            detect_stream(packets, bytes_threshold_model(), WindowSpec(10.0),
                          sink, capture_start=0.0)
        partial = excinfo.value.summary
        assert partial.alerts == 1
        assert partial.conversations == 2

    def test_empty_capture(self):
        alerts, summary, _ = self.run([])
        assert summary == DetectionSummary(0, 0, 0, 0, 0)
        assert alerts == []


class TestBatchEquivalence:
    def confined_packets(self):
        return (
            flow(1.0, "10.0.0.7", 1111, "10.0.0.8", 80, n=2, size=100)
            + flow(2.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                   n=6, size=600)
            + flow(13.0, "172.16.0.9", 3333, "172.16.0.10", 53,
                   n=4, size=800, protocol=17)
        )

    def test_stream_matches_offline_batch(self):
        packets = self.confined_packets()
        model = bytes_threshold_model()

        batch = aggregate(packets, capture_start=0.0)
        vectors = np.stack([encode(c) for c in batch])
        labels01, _ = predict_many(model, vectors)
        batch_positive = {
            conversation_key(c) for c, hit in zip(batch, labels01) if hit
        }

        alerts: list[Alert] = []
        detect_stream(packets, model, WindowSpec(10.0), alerts.append,
                      capture_start=0.0)
        assert {conversation_key(alert_conversation(a)) for a in alerts} == batch_positive
        assert len(batch_positive) == 2

    def test_windowed_features_match_batch_for_confined_flows(self):
        packets = self.confined_packets()
        batch = {conversation_key(c): c for c in aggregate(packets, capture_start=0.0)}
        alerts: list[Alert] = []
        detect_stream(packets, bytes_threshold_model(), WindowSpec(10.0),
                      alerts.append, capture_start=0.0)
        for alert in alerts:
            twin = batch[conversation_key(alert_conversation(alert))]
            assert np.array_equal(alert.features, encode(twin))

    def test_builds_no_conversation_rows(self, monkeypatch):
        packets = self.confined_packets()
        model = bytes_threshold_model()

        def lines():
            out = []
            detect_stream(packets, model, WindowSpec(10.0),
                          lambda a: out.append(alert_to_json(a)),
                          capture_start=0.0)
            return out

        expected = lines()

        def refuse(*_values):
            raise AssertionError("a Conversation row was built")

        monkeypatch.setattr(ConversationTable, "_row", refuse)
        assert lines() == expected
        assert len({json.loads(line)["window"] for line in expected}) == 2

    def test_rerun_is_byte_identical(self):
        packets = self.confined_packets()
        model = bytes_threshold_model()

        def lines():
            out = []
            detect_stream(packets, model, WindowSpec(10.0),
                          lambda a: out.append(alert_to_json(a)),
                          capture_start=0.0)
            return out

        first, second = lines(), lines()
        assert first == second
        assert len(first) == 2


class TestPacketSource:
    def test_reads_pcap(self, tmp_path):
        frame = tcp_udp_frame("10.0.0.1", "10.0.0.2", 6, 1000, 80)
        data = build_pcap([(1.5, frame)])
        path = tmp_path / "wire.pcap"
        path.write_bytes(data)
        packets, malformed, unsupported = read_packet_source(path)
        assert len(packets) == 1
        assert (malformed, unsupported) == (0, 0)
        assert packets[0].src_addr == "10.0.0.1"

    def test_reads_csv(self, tmp_path):
        original = [make_packet(1.0), make_packet(2.0, protocol=17)]
        path = tmp_path / "packets.csv"
        path.write_text(packet_csv(original))
        packets, malformed, unsupported = read_packet_source(path)
        assert packets == original
        assert (malformed, unsupported) == (0, 0)

    def test_counts_malformed_csv_rows(self, tmp_path):
        original = [make_packet(1.0)]
        text = packet_csv(original) + "not,a,valid,row\n"
        path = tmp_path / "packets.csv"
        path.write_text(text)
        packets, malformed, _ = read_packet_source(path)
        assert len(packets) == 1
        assert malformed == 1

    def test_counts_unsupported_pcap_packets(self, tmp_path):
        tcp = tcp_udp_frame("10.0.0.1", "10.0.0.2", 6, 1000, 80)
        icmp = tcp_udp_frame("10.0.0.1", "10.0.0.2", 1, 0, 0)
        path = tmp_path / "wire.pcap"
        path.write_bytes(build_pcap([(1.0, tcp), (2.0, icmp)]))
        packets, _, unsupported = read_packet_source(path)
        assert len(packets) == 1
        assert unsupported == 1

    def test_pcapng_is_bad_magic(self, tmp_path):
        # a pcapng section header block: neither classic pcap nor UTF-8
        path = tmp_path / "wire.pcapng"
        path.write_bytes(struct.pack("<IIIHHqI", 0x0A0D0D0A, 28, 0x1A2B3C4D,
                                     1, 0, -1, 28))
        with pytest.raises(BadMagic, match="pcap.*packet CSV"):
            read_packet_source(path)


def dumped_alert(alert: Alert) -> str:
    """An alert line as ``json.dumps`` renders the alert's payload."""
    protocol, address_a, port_a, address_b, port_b = alert.features[:5]
    payload = {
        "window": alert.window_index,
        "emitted_at": alert.emitted_at,
        "protocol": int(protocol),
        "address_a": str(ipaddress.IPv4Address(int(address_a))),
        "port_a": int(port_a),
        "address_b": str(ipaddress.IPv4Address(int(address_b))),
        "port_b": int(port_b),
        "label": "ransomware",
        "score": alert.score,
        "model_fingerprint": alert.model_fingerprint,
        "features": dict(zip(FEATURE_NAMES, alert.features)),
    }
    return json.dumps(payload, sort_keys=True)


#: Finite floats, with the values whose repr takes an exponent, a sign or
#: no fraction drawn often.
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1e-5, 1e22,
                     -0.0, 0.0, 3.0, 1e15 + 0.5, 123456789012345678.0]),
    st.integers(-2 ** 53, 2 ** 53).map(float),
)
INTS = st.one_of(st.integers(0, 65535),
                 st.sampled_from([0, 1, 255, 65535, -1, 2 ** 63 - 1, -2 ** 63, 2 ** 80]))
#: The protocol, the two addresses and the two ports of a feature row, as
#: detection gives them: integral floats of a TCP/UDP number, a u32 and a u16.
ENDPOINTS = st.tuples(
    st.sampled_from([6.0, 17.0]),
    st.integers(0, 2 ** 32 - 1).map(float), st.integers(0, 65535).map(float),
    st.integers(0, 2 ** 32 - 1).map(float), st.integers(0, 65535).map(float),
)


class TestAlertRendering:
    def one_alert(self):
        packets = flow(2.0, "192.168.1.4", 2222, "192.168.1.5", 443,
                       n=6, size=600)
        alerts: list[Alert] = []
        detect_stream(packets, bytes_threshold_model(), WindowSpec(10.0),
                      alerts.append, capture_start=0.0)
        return alerts[0]

    def test_json_fields(self):
        alert = self.one_alert()
        payload = json.loads(alert_to_json(alert))
        assert payload["window"] == 0
        assert payload["label"] == "ransomware"
        assert payload["address_a"] == "192.168.1.4"
        assert payload["model_fingerprint"] == alert.model_fingerprint
        assert set(payload["features"]) == set(FEATURE_NAMES)
        assert payload["features"]["bytes"] == 3600.0

    def test_numpy_capture_start_renders_json(self):
        packets = flow(2.0, "192.168.1.4", 2222, "192.168.1.5", 443, n=6, size=600)
        alerts: list[Alert] = []
        detect_stream(packets, bytes_threshold_model(), WindowSpec(10.0),
                      alerts.append, capture_start=np.float64(0.0))
        assert json.loads(alert_to_json(alerts[0]))["emitted_at"] == 10.0
        assert alert_to_json(alerts[0]) == dumped_alert(alerts[0])

    @given(floats=st.lists(FLOATS, min_size=10, max_size=10), window=INTS,
           endpoints=ENDPOINTS, fingerprint=st.text())
    def test_json_matches_json_dumps(self, floats, window, endpoints, fingerprint):
        alert = Alert(
            window_index=window, score=floats[0],
            model_fingerprint=fingerprint, emitted_at=floats[1],
            features=(*endpoints, *floats[2:]),
        )
        assert alert_to_json(alert) == dumped_alert(alert)

    def test_warning_line(self):
        line = alert_warning_line(self.one_alert())
        assert line.startswith("ALERT window=0 tcp ")
        assert "192.168.1.4:2222 <-> 192.168.1.5:443" in line
        assert "packets=6 bytes=3600" in line
