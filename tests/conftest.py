"""Shared builders: raw pcap bytes, packet records, synthetic datasets.

The pcap builder assembles files byte by byte with struct, independent
of the parser under test, so golden tests compare against a second
implementation of the format rather than the parser's own output.
"""

from __future__ import annotations

import contextlib
import ipaddress
import json
import signal
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rwdetect.capture import PACKET_CSV_HEADER, PacketRecord
from rwdetect.classifiers import ALL_KINDS, MODEL_MAGIC, default_hyperparams, save_model
from rwdetect.conversation import Conversation
from rwdetect.features import Dataset

settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")

#: (kind, key) of every integer hyperparameter but the seed.
INTEGER_HYPERPARAMS = [(kind, f.name) for kind in ALL_KINDS
                       for f in fields(default_hyperparams(kind))
                       if type(f.default) is int and f.name != "seed"]

#: Pairs of feature values ``a < b`` whose midpoint ``(a + b) / 2`` is not
#: below ``b``: adjacent doubles, where it rounds to ``b``, and a sum that
#: overflows to ``inf``.
CLOSE_VALUES = [(1.0 + 2.0**-52, 1.0 + 2.0**-51), (1e308, 1.7e308)]


def model_params(model) -> dict:
    """The ``params`` of a model's file: its JSON payload lies between
    the 14-byte header and the 32-byte digest."""
    return json.loads(save_model(model)[len(MODEL_MAGIC) + 6:-32])["params"]


def model_trees(model) -> list[list]:
    """The node rows of each tree in a J48 or forest model's file."""
    params = model_params(model)
    return [params["nodes"]] if "nodes" in params else params["trees"]


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once it has run ``seconds``, so a
    hang fails the test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D


def global_header(order: str = "<", magic: int = MAGIC_MICROS,
                  network: int = 1, snaplen: int = 65535) -> bytes:
    return struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, snaplen, network)


def record_header(order: str, ts_sec: int, ts_frac: int, incl_len: int,
                  orig_len: int) -> bytes:
    return struct.pack(order + "IIII", ts_sec, ts_frac, incl_len, orig_len)


def build_pcap(records, order: str = "<", magic: int = MAGIC_MICROS,
               network: int = 1) -> bytes:
    """Assemble a classic pcap file from (timestamp, frame[, orig_len]) tuples."""
    unit = 1e9 if magic == MAGIC_NANOS else 1e6
    out = [global_header(order, magic, network)]
    for record in records:
        ts, frame = record[0], record[1]
        orig_len = record[2] if len(record) > 2 else len(frame)
        sec = int(ts)
        frac = round((ts - sec) * unit)
        out.append(record_header(order, sec, frac, len(frame), orig_len))
        out.append(frame)
    return b"".join(out)


def ipv4_header(src: str, dst: str, protocol: int, payload_len: int,
                ihl_words: int = 5, flags_frag: int = 0,
                version: int = 4) -> bytes:
    ihl = ihl_words * 4
    header = struct.pack(
        ">BBHHHBBH4s4s",
        (version << 4) | ihl_words, 0, ihl + payload_len, 1, flags_frag,
        64, protocol, 0,
        bytes(int(p) for p in src.split(".")),
        bytes(int(p) for p in dst.split(".")),
    )
    return header + bytes(ihl - 20)


def ether_frame(payload: bytes, ethertype: int = 0x0800,
                vlan_tags: int = 0) -> bytes:
    head = b"\x02" * 6 + b"\x04" * 6
    for _ in range(vlan_tags):
        payload = struct.pack(">HH", 0, ethertype) + payload
        ethertype = 0x8100
    return head + struct.pack(">H", ethertype) + payload


def tcp_udp_frame(src: str, dst: str, protocol: int, sport: int, dport: int,
                  extra: int = 16, ihl_words: int = 5, flags_frag: int = 0,
                  vlan_tags: int = 0) -> bytes:
    transport = struct.pack(">HH", sport, dport) + bytes(extra)
    ip = ipv4_header(src, dst, protocol, len(transport),
                     ihl_words=ihl_words, flags_frag=flags_frag)
    return ether_frame(ip + transport, vlan_tags=vlan_tags)


def make_packet(t: float, src: str = "10.0.0.1", sport: int = 1000,
                dst: str = "10.0.0.2", dport: int = 80, protocol: int = 6,
                wire_bytes: int = 100) -> PacketRecord:
    return PacketRecord(timestamp=t, src_addr=src, src_port=sport,
                        dst_addr=dst, dst_port=dport, protocol=protocol,
                        wire_bytes=wire_bytes)


def packet_csv(records) -> str:
    """Packet CSV of ``records``, timestamps at full float precision."""
    lines = [",".join(PACKET_CSV_HEADER)]
    lines += [",".join([repr(r.timestamp), *map(str, r[1:])]) for r in records]
    return "\n".join(lines) + "\n"


def conversation_key(c: Conversation) -> tuple[int, int, int, int, int]:
    """Reference key of a conversation, the order
    ``ConversationTable.key_order`` sorts by: ``(address_lo, port_lo,
    address_hi, port_hi, protocol)``, addresses as u32 and the lower
    endpoint first, the same for A->B and B->A."""
    a = (int(ipaddress.IPv4Address(c.address_a)), c.port_a)
    b = (int(ipaddress.IPv4Address(c.address_b)), c.port_b)
    return (*min(a, b), *max(a, b), c.protocol)


def make_conversation(protocol: int = 6, address_a: str = "10.0.0.1",
                      port_a: int = 1000, address_b: str = "10.0.0.2",
                      port_b: int = 80, packets_ab: int = 2, bytes_ab: int = 200,
                      packets_ba: int = 1, bytes_ba: int = 80,
                      rel_start: float = 0.0, duration: float = 1.0,
                      ) -> Conversation:
    return Conversation(
        protocol=protocol, address_a=address_a, port_a=port_a,
        address_b=address_b, port_b=port_b,
        packets=packets_ab + packets_ba, bytes=bytes_ab + bytes_ba,
        packets_ab=packets_ab, bytes_ab=bytes_ab,
        packets_ba=packets_ba, bytes_ba=bytes_ba,
        rel_start=rel_start, duration=duration,
    )


def _huge_svm_weights(payload):
    payload["params"]["weights"] = [1.7e308] * 7 + [-1.7e308] * 6


def _huge_mlp_column(payload):
    for row in payload["params"]["w1"]:
        row[0] = 1.7e308


def _huge_knn_point(payload):
    payload["params"]["points"][0][0] = 1.7e308


def _huge_log_priors(payload):
    payload["params"].update(log_prior_pos=1.7e308, log_prior_neg=-1.7e308)


def _no_scaler(payload):
    payload["scaler"] = None


def _unit_scaler(payload):
    payload["scaler"] = {"fitted_on": "0" * 64, "maxs": [1.0] * 13, "mins": [0.0] * 13}


#: Edits that leave a model payload well-formed but unsafe to score: NaN
#: scores, overflow warnings, or queries scaled where the family was
#: trained on raw features or the reverse.  Id -> (kind alias, edit of
#: the parsed payload, what the load error says).
SCORING_HAZARDS = {
    "svm-nan-score": ("svm", _huge_svm_weights, "overflow"),
    "mlp-overflow-warning": ("mlp", _huge_mlp_column, "overflow"),
    "knn-overflow-warning": ("knn", _huge_knn_point, r"\[0, 1\]"),
    "bayes-positive-log-prior": ("bayes", _huge_log_priors, "at most 0"),
    "knn-without-scaler": ("knn", _no_scaler, "needs a scaler"),
    "svm-without-scaler": ("svm", _no_scaler, "needs a scaler"),
    "j48-with-scaler": ("j48", _unit_scaler, "takes no scaler"),
}


def gaussian_dataset(n_pos: int = 396, n_neg: int = 420, seed: int = 42,
                     pos_center: float = 0.75, neg_center: float = 0.25,
                     spread: float = 0.08) -> Dataset:
    """Two well-separated 13-dimensional Gaussian clusters."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pos = rng.normal(pos_center, spread, size=(n_pos, 13))
    neg = rng.normal(neg_center, spread, size=(n_neg, 13))
    return Dataset(np.vstack([pos, neg]),
                   np.r_[np.ones(n_pos, np.uint8), np.zeros(n_neg, np.uint8)])


def address_only_dataset(n_per_class: int = 40, seed: int = 5) -> Dataset:
    """Classes separable only through the two address features."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.uniform(0.0, 1.0, size=(2 * n_per_class, 13))
    y = np.r_[np.ones(n_per_class, np.uint8), np.zeros(n_per_class, np.uint8)]
    x[:, 1] = np.where(y == 1, 3_000_000_000.0, 100_000.0)
    x[:, 3] = np.where(y == 1, 3_100_000_000.0, 200_000.0)
    return Dataset(x, y)


@pytest.fixture
def small_dataset() -> Dataset:
    return gaussian_dataset(n_pos=40, n_neg=50, seed=11)
