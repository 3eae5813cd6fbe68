"""Seeded synthetic captures with their ground truth.

Frames are assembled here with ``struct`` in the layout the test suite
builds (Ethernet, IPv4, then the two transport ports), independently of
rwdetect's parser, so a replay can be checked against a second
implementation of the format.  Each capture carries its
own ground-truth table: every flow with its label, and every packet with
its microsecond timestamp, direction and wire size.

Two populations share one address space:

* benign: web, DNS, file-server SMB and SSH traffic from a pool of
  client hosts;
* ransomware: SMB/445 sweeps of the whole internal range (lateral
  movement), long SMB writes to the file servers (encryption of shares)
  and HTTPS beaconing to external hosts, all from a few infected hosts
  that also send benign traffic.

Sizes, timings and ports overlap between the two on purpose, so no
classifier separates them perfectly and tree learners grow real depth.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

TCP = 6
UDP = 17
ICMP = 1

#: Absolute time of the capture's first microsecond.
EPOCH_S = 1_700_000_000

#: (name, label, protocol, source pool, destination pool, port,
#:  mean wire bytes, share of replies, mean gap between packets in s)
FLOW_TYPES = (
    ("web", "benign", TCP, "clients", "external", 443, 620.0, 0.55, 0.40),
    ("dns", "benign", UDP, "clients", "dns", 53, 110.0, 0.50, 0.05),
    ("smb", "benign", TCP, "clients", "files", 445, 540.0, 0.50, 0.30),
    ("ssh", "benign", TCP, "clients", "servers", 22, 160.0, 0.45, 0.90),
    ("sweep", "ransomware", TCP, "infected", "internal", 445, 90.0, 0.35, 0.02),
    ("encrypt", "ransomware", TCP, "infected", "files", 445, 820.0, 0.40, 0.35),
    ("beacon", "ransomware", TCP, "infected", "external", 443, 300.0, 0.50, 0.60),
)

#: Relative frequency of each flow type within its population.
BENIGN_MIX = {"web": 0.45, "dns": 0.25, "smb": 0.20, "ssh": 0.10}
RANSOMWARE_MIX = {"sweep": 0.60, "encrypt": 0.25, "beacon": 0.15}

#: Packets per flow, inclusive range, for each flow-length profile.
PROFILES = {"short": (1, 3), "long": (60, 140)}

#: Client hosts of a site; the first ``N_INFECTED`` of them are infected.
N_CLIENTS = 300
N_INFECTED = 12

#: Flows start uniformly over this many seconds of capture.
CAPTURE_SECONDS = 600.0

#: ARP and ICMP frames mixed in, as a share of the TCP/UDP packets.
EXTRA_FRAME_SHARE = 0.01


@dataclass(frozen=True)
class Flow:
    """One conversation as generated: endpoint A sends its first packet."""

    protocol: int
    addr_a: int
    port_a: int
    addr_b: int
    port_b: int
    label: str


@dataclass
class Capture:
    """A classic pcap file and the ground truth it was written from.

    ``ts_us``, ``flow``, ``reverse`` and ``wire`` describe the TCP/UDP
    packets in file order; ``skipped`` counts the extra ARP and ICMP
    frames, which rwdetect must skip.
    """

    pcap: bytes
    flows: list[Flow]
    ts_us: np.ndarray
    flow: np.ndarray
    reverse: np.ndarray
    wire: np.ndarray
    skipped: int

    @property
    def frames(self) -> int:
        return len(self.ts_us) + self.skipped


def u32_to_dotted(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def dotted_to_u32(text: str) -> int:
    a, b, c, d = (int(part) for part in text.split("."))
    return (a << 24) | (b << 16) | (c << 8) | d


def _hosts(rng, base: int, count: int) -> np.ndarray:
    """``count`` distinct host addresses inside the /16 at ``base``."""
    return base + rng.choice(np.arange(1, 65535), size=count, replace=False)


def network(seed) -> dict[str, np.ndarray]:
    """Host pools of one site; captures of the same site share them.

    ``seed`` is anything ``numpy.random.PCG64`` accepts, here an int or a
    tuple of ints.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    internal = _hosts(rng, 0x0A140000, N_CLIENTS + 24)  # 10.20.0.0/16
    clients = internal[:N_CLIENTS]
    return {
        "clients": clients,
        "infected": clients[:N_INFECTED],
        "files": internal[N_CLIENTS:N_CLIENTS + 6],
        "servers": internal[N_CLIENTS + 6:N_CLIENTS + 22],
        "dns": internal[N_CLIENTS + 22:],
        "internal": internal,
        "external": _hosts(rng, 0x5DB80000, 80),  # 93.184.0.0/16
    }


def _assign(rng, shares: list[float], n: int) -> np.ndarray:
    """``n`` category indices in random order, each category ``n`` times its share.

    Counts are exact (largest remainder), not drawn, so captures of one
    size hold the same mix of flows, and so nearly the same packet count,
    whatever the seed.
    """
    want = np.array(shares, dtype=float) / sum(shares) * n
    counts = np.floor(want).astype(np.int64)
    counts[np.argsort(counts - want, kind="stable")[:n - counts.sum()]] += 1
    return rng.permutation(np.repeat(np.arange(len(counts)), counts))


def generate(pools: dict[str, np.ndarray], seed, *, benign_flows: int,
             ransomware_flows: int, profile: dict[str, float]) -> Capture:
    """Build one capture of the site ``pools`` from ``seed``.

    ``profile`` maps a flow-length profile name (``short``, ``long``) to
    its share of flows.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    names = [t[0] for t in FLOW_TYPES]
    kind = np.concatenate([
        _assign(rng, [mix.get(n, 0.0) for n in names], count)
        for mix, count in ((BENIGN_MIX, benign_flows),
                           (RANSOMWARE_MIX, ransomware_flows))])
    n_flows = len(kind)

    flows: list[Flow] = []
    used: set[tuple] = set()
    for k, a_pick, b_pick, eport in zip(
            kind.tolist(), rng.random(n_flows).tolist(),
            rng.random(n_flows).tolist(),
            rng.integers(49152, 65536, size=n_flows).tolist()):
        _name, label, proto, src, dst, port = FLOW_TYPES[k][:6]
        a = int(pools[src][int(a_pick * len(pools[src]))])
        b = int(pools[dst][int(b_pick * len(pools[dst]))])
        while a == b or (proto, a, eport, b) in used:
            b = int(rng.choice(pools[dst]))
            eport = int(rng.integers(49152, 65536))
        used.add((proto, a, eport, b))
        flows.append(Flow(proto, a, eport, b, port, label))

    table = np.array([t[6:] for t in FLOW_TYPES])   # size, reply, gap
    size, reply, gap = (table[kind, i] for i in range(3))
    bounds = np.array([PROFILES[p] for p in sorted(profile)])
    lengths = bounds[_assign(rng, [profile[p] for p in sorted(profile)], n_flows)]
    n = rng.integers(lengths[:, 0], lengths[:, 1] + 1)
    start = (rng.uniform(0.0, CAPTURE_SECONDS, size=n_flows) * 1e6).astype(np.int64)
    mean = size * rng.uniform(0.8, 1.25, size=n_flows)

    fid = np.repeat(np.arange(n_flows), n)
    first = np.concatenate(([0], np.cumsum(n)[:-1]))
    steps = np.maximum(1, (rng.exponential(gap[fid]) * 1e6).astype(np.int64))
    steps[first] = 0
    offsets = np.cumsum(steps)
    ts = start[fid] + offsets - offsets[first][fid]
    reverse = rng.random(len(fid)) < reply[fid]
    reverse[first] = False
    wire = np.clip(rng.normal(mean[fid], 0.25 * mean[fid]), 60, 1514).astype(np.int64)

    order = np.argsort(ts, kind="stable")
    n_extra = int(len(ts) * EXTRA_FRAME_SHARE)
    capture = Capture(pcap=b"", flows=flows, ts_us=ts[order], flow=fid[order],
                      reverse=reverse[order], wire=wire[order], skipped=n_extra)
    extra_ts = np.sort(rng.integers(int(ts.min()), int(ts.max()) + 1, size=n_extra))
    extra_kind = rng.random(n_extra) < 0.5   # True: ARP, False: ICMP
    capture.pcap = _write_pcap(capture, pools["internal"], extra_ts, extra_kind)
    return capture


_ETHER = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02"
_IPV4 = struct.Struct(">BBHHHBBH4s4s")
_RECORD = struct.Struct("<IIII")
_SNAPLEN = 96


def _ipv4(src: int, dst: int, protocol: int, total: int, ident: int) -> bytes:
    return _IPV4.pack(0x45, 0, total, ident & 0xFFFF, 0, 64, protocol, 0,
                      src.to_bytes(4, "big"), dst.to_bytes(4, "big"))


def _frame(flow: Flow, reverse: bool, wire: int, ident: int) -> bytes:
    src, sport, dst, dport = (
        (flow.addr_b, flow.port_b, flow.addr_a, flow.port_a) if reverse
        else (flow.addr_a, flow.port_a, flow.addr_b, flow.port_b))
    transport = struct.pack(">HH", sport, dport) + bytes(16 if flow.protocol == TCP else 4)
    return (_ETHER + b"\x08\x00"
            + _ipv4(src, dst, flow.protocol, wire - 14, ident) + transport)


def _extra_frame(arp: bool, hosts: np.ndarray, i: int) -> bytes:
    """An ARP request or an ICMP echo: frames rwdetect counts as skipped."""
    a, b = int(hosts[i % len(hosts)]), int(hosts[(7 * i + 3) % len(hosts)])
    if arp:
        body = struct.pack(">HHBBH6s4s6s4s", 1, 0x0800, 6, 4, 1, _ETHER[6:],
                           a.to_bytes(4, "big"), bytes(6), b.to_bytes(4, "big"))
        return _ETHER + b"\x08\x06" + body
    return _ETHER + b"\x08\x00" + _ipv4(a, b, ICMP, 28, i) + bytes(8)


def _write_pcap(capture: Capture, hosts: np.ndarray, extra_ts: np.ndarray,
                extra_kind: np.ndarray) -> bytes:
    """Merge flow packets and extra frames by time into pcap bytes.

    Flow packets go first on equal timestamps, so the file order of the
    TCP/UDP packets is exactly the order of ``capture.ts_us``.
    """
    out = [struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, _SNAPLEN, 1)]
    flows = capture.flows
    ts = capture.ts_us.tolist()
    fid = capture.flow.tolist()
    rev = capture.reverse.tolist()
    wire = capture.wire.tolist()
    ets = extra_ts.tolist()
    ekind = extra_kind.tolist()
    j = 0
    for i, t in enumerate(ts):
        while j < len(ets) and ets[j] < t:
            frame = _extra_frame(ekind[j], hosts, j)
            sec, frac = divmod(ets[j], 1_000_000)
            out.append(_RECORD.pack(EPOCH_S + sec, frac, len(frame), len(frame)))
            out.append(frame)
            j += 1
        frame = _frame(flows[fid[i]], rev[i], wire[i], i)
        sec, frac = divmod(t, 1_000_000)
        out.append(_RECORD.pack(EPOCH_S + sec, frac, len(frame), wire[i]))
        out.append(frame)
    for k in range(j, len(ets)):
        frame = _extra_frame(ekind[k], hosts, k)
        sec, frac = divmod(ets[k], 1_000_000)
        out.append(_RECORD.pack(EPOCH_S + sec, frac, len(frame), len(frame)))
        out.append(frame)
    return b"".join(out)


def timestamps(capture: Capture) -> list[float]:
    """Packet times as a pcap reader computes them: seconds + micros / 1e6."""
    return [EPOCH_S + sec + frac / 1e6
            for sec, frac in (divmod(t, 1_000_000) for t in capture.ts_us.tolist())]


def conversations(capture: Capture, interval: float | None = None
                  ) -> dict[tuple, tuple[tuple, str]]:
    """Ground-truth conversations and their labels.

    Keys are ``(window, protocol, low endpoint, high endpoint)`` with
    endpoints as ``(address as u32, port)``; the window is 0 throughout
    when ``interval`` is None.  Each value is the 13 conversation columns
    in CSV order (addresses dotted) and the flow's label.  Times are
    relative to the earliest TCP/UDP packet, and endpoint A is the sender
    of the first packet inside the window, as rwdetect defines them.
    """
    times = timestamps(capture)
    start = min(times)
    state: dict[tuple, list] = {}
    for t, fid, rev, wire in zip(times, capture.flow.tolist(),
                                 capture.reverse.tolist(), capture.wire.tolist()):
        w = 0 if interval is None else math.floor((t - start) / interval)
        key = (w, fid)
        st = state.get(key)
        if st is None:
            # [first_ts, last_ts, a_is_flow_a, pkts_ab, bytes_ab, pkts_ba, bytes_ba]
            st = state[key] = [t, t, not rev, 0, 0, 0, 0]
        st[1] = t
        if rev != st[2]:   # sent by this conversation's endpoint A
            st[3] += 1
            st[4] += wire
        else:
            st[5] += 1
            st[6] += wire
    out = {}
    for (w, fid), (first, last, a_is_a, pab, bab, pba, bba) in state.items():
        f = capture.flows[fid]
        ends = [(f.addr_a, f.port_a), (f.addr_b, f.port_b)]
        (a, pa), (b, pb) = ends if a_is_a else ends[::-1]
        row = (f.protocol, u32_to_dotted(a), pa, u32_to_dotted(b), pb,
               pab + pba, bab + bba, pab, bab, pba, bba, first - start, last - first)
        out[(w, f.protocol, *sorted(ends))] = (row, f.label)
    return out
