"""Acceptance gate: eight end-to-end guarantees, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import contextlib
import json
import time
from fractions import Fraction

import numpy as np

from rwdetect.capture import parse_pcap
from rwdetect.classifiers import (
    ALL_KINDS,
    ClassifierKind,
    ForestParams,
    default_hyperparams,
    predict_many,
    save_model,
    load_model,
    train,
)
from rwdetect.classifiers import mlp as mlp_mod
from rwdetect.cli import run
from rwdetect.conversation import aggregate, conversations_to_csv
from rwdetect.detect import WindowSpec, alert_to_json, detect_stream
from rwdetect.eval import (
    REPORT_CSV_HEADER,
    ConfusionCounts,
    SplitSpec,
    benchmark,
    confusion,
    metrics,
    render_report_csv,
    split,
)
from rwdetect.features import Dataset, Label, encode, label_and_merge

from conftest import (
    build_pcap,
    conversation_key,
    ether_frame,
    gaussian_dataset,
    make_conversation,
    make_packet,
    tcp_udp_frame,
)


@contextlib.contextmanager
def verdict(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}")
        raise
    else:
        print(f"PASS criterion {number}: {summary}")


def fraction_metrics(tp: int, fn: int, fp: int, tn: int):
    """Exact-arithmetic twin of the six metrics, None for 0 denominators."""
    def ratio(num, den):
        return Fraction(num, den) if den else None

    tpr = ratio(tp, tp + fn)
    fpr = ratio(fp, fp + tn)
    precision = ratio(tp, tp + fp)
    recall = tpr
    if precision is None or recall is None or precision + recall == 0:
        f_measure = None
    else:
        f_measure = 2 * precision * recall / (precision + recall)
    accuracy = ratio(tp + tn, tp + fn + fp + tn)
    return (tpr, fpr, precision, recall, f_measure, accuracy)


def test_01_metric_oracle_equivalence():
    started = time.perf_counter()
    with verdict(1, "six metrics match an exact-fraction oracle on 1000 "
                    "random confusion counts within 1e-12"):
        rng = np.random.Generator(np.random.PCG64(1001))
        cases = [
            (0, 0, 0, 0), (0, 0, 3, 7), (5, 9, 0, 0), (0, 4, 0, 6),
            (0, 4, 3, 0), (7, 0, 0, 9), (0, 1, 1, 0), (1, 0, 0, 0),
            (0, 0, 0, 1), (973, 27, 18, 982),
        ]
        while len(cases) < 1000:
            draw = rng.integers(0, 500, size=4)
            if rng.uniform() < 0.2:                 # keep degenerates common
                draw[rng.integers(0, 4)] = 0
                draw[rng.integers(0, 4)] = 0
            cases.append(tuple(int(v) for v in draw))

        for tp, fn, fp, tn in cases:
            got = metrics(ConfusionCounts(tp=tp, fn=fn, fp=fp, tn=tn))
            expected = fraction_metrics(tp, fn, fp, tn)
            pairs = zip(
                (got["tpr"], got["fpr"], got["precision"], got["recall"],
                 got["f_measure"], got["accuracy"]),
                expected,
            )
            for mine, oracle in pairs:
                if oracle is None:
                    assert mine is None, (tp, fn, fp, tn)
                else:
                    assert mine is not None, (tp, fn, fp, tn)
                    assert abs(mine - float(oracle)) < 1e-12, (tp, fn, fp, tn)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def golden_flow_records():
    """One 20-packet TCP conversation with hand-checkable totals."""
    a = ("192.168.1.4", 49252)
    b = ("192.168.1.5", 5357)
    ab_sizes = [175] * 6 + [173] * 2                # 1396 bytes a->b
    ba_sizes = [1145] * 11 + [1146]                 # 13741 bytes b->a
    order = ["ab"] * 8 + ["ba"] * 12
    order[1:5] = ["ba"] * 4
    order[8:12] = ["ab"] * 4
    times = [1.841135 + i * 0.001371 for i in range(19)] + [1.867189]
    records, ab_left, ba_left = [], list(ab_sizes), list(ba_sizes)
    for t, direction in zip(times, order):
        if direction == "ab":
            src, sport, dst, dport, size = (*a, *b, ab_left.pop(0))
        else:
            src, sport, dst, dport, size = (*b, *a, ba_left.pop(0))
        frame = tcp_udp_frame(src, dst, 6, sport, dport)
        records.append((t, frame, size))
    return records


def mixed_capture_records():
    """19 IP packets in three hand-computed flows, plus one ARP frame."""
    records = []
    arp = ether_frame(bytes(28), ethertype=0x0806)
    records.append((0.05, arp, 60))
    # flow 1: tcp, 5 a->b + 4 b->a
    for i, size in enumerate((100, 110, 120, 130, 140)):
        frame = tcp_udp_frame("10.0.0.5", "10.0.0.9", 6, 1200, 445)
        records.append((0.10 + 0.2 * i, frame, size))
    for i, size in enumerate((200, 210, 220, 230)):
        frame = tcp_udp_frame("10.0.0.9", "10.0.0.5", 6, 445, 1200)
        records.append((0.15 + 0.2 * i, frame, size))
    # flow 2: tcp, 4 a->b + 2 b->a
    for i in range(4):
        frame = tcp_udp_frame("172.16.2.3", "172.16.2.4", 6, 50000, 80)
        records.append((0.20 + 0.3 * i, frame, 60))
    for i, size in enumerate((1500, 1400)):
        frame = tcp_udp_frame("172.16.2.4", "172.16.2.3", 6, 80, 50000)
        records.append((0.45 + 0.3 * i, frame, size))
    # flow 3: udp, one-way
    for i in range(4):
        frame = tcp_udp_frame("192.168.1.4", "192.168.1.255", 17, 137, 137)
        records.append((2.0 + 0.1 * i, frame, 92))
    records.sort(key=lambda r: r[0])
    assert len(records) == 20
    return records


def test_02_conversation_oracle():
    started = time.perf_counter()
    with verdict(2, "hand-computed conversations reproduced from a 20-packet "
                    "capture and conservation held on 10000 random streams"):
        # crafted capture: two tcp flows, one udp flow, one arp packet
        packets, summary = parse_pcap(build_pcap(mixed_capture_records()))
        assert summary.packets_read == 19
        assert summary.packets_skipped_non_ip == 1
        assert summary.packets_read + summary.packets_skipped_non_ip == 20
        conversations = aggregate(packets, capture_start=0.0)
        rows = [
            (c.protocol, c.address_a, c.port_a, c.address_b, c.port_b,
             c.packets, c.bytes, c.packets_ab, c.bytes_ab, c.packets_ba,
             c.bytes_ba, c.rel_start, c.duration)
            for c in conversations
        ]
        assert rows == [
            (6, "10.0.0.5", 1200, "10.0.0.9", 445,
             9, 1460, 5, 600, 4, 860, 0.10, 0.90 - 0.10),
            (6, "172.16.2.3", 50000, "172.16.2.4", 80,
             6, 3140, 4, 240, 2, 2900, 0.20, 1.10 - 0.20),
            (17, "192.168.1.4", 137, "192.168.1.255", 137,
             4, 368, 4, 368, 0, 0, 2.0, 2.3 - 2.0),
        ]

        # row-1 reconstruction: the worked single-conversation example
        packets, summary = parse_pcap(build_pcap(golden_flow_records()))
        assert summary.packets_read == 20
        [golden] = aggregate(packets, capture_start=0.0)
        assert (golden.packets, golden.bytes) == (20, 15137)
        assert (golden.packets_ab, golden.bytes_ab) == (8, 1396)
        assert (golden.packets_ba, golden.bytes_ba) == (12, 13741)
        assert golden.rel_start == 1.841135
        assert abs(golden.duration - 0.026054) < 1e-9
        line = conversations_to_csv([golden]).strip().split("\n")[1]
        assert line == ("6,192.168.1.4,49252,192.168.1.5,5357,"
                        "20,15137,8,1396,12,13741,1.841135,0.026054")

        # conservation invariants across randomly generated streams
        rng = np.random.Generator(np.random.PCG64(2002))
        addresses = np.array(["10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"])
        ports = [80, 443, 5000]
        lengths = rng.integers(2, 7, size=10_000)
        # Every packet's fields drawn at once, each uniform as in a per-packet
        # draw: an ordered pair of distinct addresses, two ports, protocol,
        # time and size.
        total = int(lengths.sum())
        src = rng.integers(0, 4, size=total)
        dst = (src + rng.integers(1, 4, size=total)) % 4
        packets = list(map(
            make_packet, (rng.integers(0, 10_000_000, size=total) / 1e6).tolist(),
            addresses[src].tolist(), rng.choice(ports, size=total).tolist(),
            addresses[dst].tolist(), rng.choice(ports, size=total).tolist(),
            rng.choice([6, 17], size=total).tolist(),
            rng.integers(60, 1501, size=total).tolist()))
        for n, end in zip(lengths.tolist(), np.cumsum(lengths).tolist()):
            stream = packets[end - n:end]
            convs = list(aggregate(stream))     # rows built once, read four times
            assert sum(c.packets for c in convs) == n
            assert sum(c.bytes for c in convs) == sum(
                p.wire_bytes for p in stream)
            keys = [conversation_key(c) for c in convs]
            assert len(set(keys)) == len(keys)
            for c in convs:
                assert c.packets_ab + c.packets_ba == c.packets
                assert c.bytes_ab + c.bytes_ba == c.bytes
                assert c.packets_ab >= 1
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.3f}s"


def test_03_classifier_suite_on_separable_data():
    started = time.perf_counter()
    dataset = gaussian_dataset(n_pos=396, n_neg=420, seed=42)
    [(train_idx, test_idx)] = split(
        dataset, SplitSpec.holdout(train_ratio=0.8, seed=42))
    training = dataset.subset(train_idx)
    actual = dataset.y[test_idx]
    queries = dataset.x[test_idx]

    accuracies = {}
    for kind in ALL_KINDS:
        model = train(kind, training, default_hyperparams(kind, seed=42))
        predicted, _ = predict_many(model, queries)
        accuracies[kind.value] = float((predicted == actual).mean())

    elapsed = time.perf_counter() - started
    floor = min(accuracies.values())
    with verdict(3, "all six families >= 95% holdout accuracy on two "
                    f"gaussian clusters (min {floor:.4f}, {elapsed:.1f}s)"):
        for name, accuracy in accuracies.items():
            assert accuracy >= 0.95, f"{name}: {accuracy:.4f}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_04_mlp_gradient_check():
    with verdict(4, "analytic MLP gradients match central differences "
                    "within 1e-4 on every parameter of a 13-4-1 network"):
        rng = np.random.Generator(np.random.PCG64(404))
        x = rng.uniform(0.0, 1.0, size=(16, 13))
        y = (rng.uniform(size=16) > 0.5).astype(np.uint8)
        state = mlp_mod.init_state(13, 4, seed=405)
        analytic = mlp_mod.gradients(state, x, y)
        step = 1e-5
        worst = 0.0
        for arr, grad in zip((state["w1"], state["b1"], state["w2"], state["b2"]),
                             analytic):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                plus = mlp_mod.loss(state, x, y)
                flat[i] = keep - step
                minus = mlp_mod.loss(state, x, y)
                flat[i] = keep
                numeric = (plus - minus) / (2.0 * step)
                denom = max(abs(numeric), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(numeric - gflat[i]) / denom)
        assert worst < 1e-4, f"worst relative error {worst:.2e}"


def test_05_structural_equivalences():
    with verdict(5, "single-tree forest equals the plain decision tree on "
                    "500 queries and the unpruned tree fits training data "
                    "exactly"):
        dataset = gaussian_dataset(n_pos=396, n_neg=420, seed=42)
        solo_forest = train(
            ClassifierKind.RANDOM_FOREST, dataset,
            ForestParams(trees=1, bootstrap=False, features_per_split=13),
        )
        plain_tree = train(ClassifierKind.J48, dataset)
        rng = np.random.Generator(np.random.PCG64(505))
        queries = rng.uniform(-0.5, 1.5, size=(500, 13))
        forest_labels, forest_scores = predict_many(solo_forest, queries)
        tree_labels, tree_scores = predict_many(plain_tree, queries)
        assert np.array_equal(forest_labels, tree_labels)
        assert np.array_equal(forest_scores, tree_scores)

        predicted, _ = predict_many(plain_tree, dataset.x)
        assert np.array_equal(predicted, dataset.y)


def test_06_determinism_and_serialization():
    with verdict(6, "retraining is byte-identical and save/load preserves "
                    "predictions on 1000 random vectors for all six "
                    "families"):
        dataset = gaussian_dataset(n_pos=60, n_neg=60, seed=606)
        rng = np.random.Generator(np.random.PCG64(607))
        queries = rng.uniform(-0.5, 1.5, size=(1000, 13))
        for kind in ALL_KINDS:
            hp = default_hyperparams(kind, seed=42)
            first = train(kind, dataset, hp)
            second = train(kind, dataset, hp)
            blob = save_model(first)
            assert blob == save_model(second), kind.value

            loaded = load_model(blob)
            labels_a, scores_a = predict_many(first, queries)
            labels_b, scores_b = predict_many(loaded, queries)
            assert np.array_equal(labels_a, labels_b), kind.value
            assert np.array_equal(scores_a, scores_b), kind.value


def conversation_training_set() -> Dataset:
    rng = np.random.Generator(np.random.PCG64(707))
    heavy, light = [], []
    for i in range(30):
        packets_ab = int(rng.integers(20, 35))
        packets_ba = int(rng.integers(15, 30))
        heavy.append(make_conversation(
            port_a=40000 + i, packets_ab=packets_ab,
            bytes_ab=packets_ab * int(rng.integers(800, 1200)),
            packets_ba=packets_ba,
            bytes_ba=packets_ba * int(rng.integers(800, 1200)),
            rel_start=float(i), duration=float(rng.uniform(1, 8)),
        ))
        light.append(make_conversation(
            port_a=50000 + i, packets_ab=int(rng.integers(1, 4)),
            bytes_ab=int(rng.integers(60, 400)),
            packets_ba=int(rng.integers(1, 4)),
            bytes_ba=int(rng.integers(60, 400)),
            rel_start=float(i), duration=float(rng.uniform(0.01, 0.5)),
        ))
    return label_and_merge([(heavy, Label.RANSOMWARE),
                            (light, Label.BENIGN)])


def replay_flow(t0, src, sport, dst, dport, n, size, protocol=6):
    spacing = 4.0 / n          # confined to one 30s window
    return [
        make_packet(t0 + i * spacing, src=src, sport=sport, dst=dst,
                    dport=dport, protocol=protocol, wire_bytes=size)
        for i in range(n)
    ]


def replay_captures() -> list[list]:
    heavy, light = dict(n=30, size=1000), dict(n=3, size=120)
    one = (
        replay_flow(1.0, "10.0.1.1", 1111, "10.0.1.2", 445, **heavy)
        + replay_flow(2.0, "10.0.1.3", 1112, "10.0.1.4", 80, **light)
    )
    two = (
        replay_flow(1.0, "10.0.2.1", 2221, "10.0.2.2", 445, **heavy)
        + replay_flow(31.0, "10.0.2.3", 2222, "10.0.2.4", 53,
                      protocol=17, **light)
        + replay_flow(32.0, "10.0.2.5", 2223, "10.0.2.6", 445, **heavy)
    )
    three = (
        replay_flow(0.5, "10.0.3.1", 3331, "10.0.3.2", 80, **light)
        + replay_flow(1.5, "10.0.3.3", 3332, "10.0.3.4", 445, **heavy)
        + replay_flow(35.0, "10.0.3.5", 3333, "10.0.3.6", 445, **heavy)
        + replay_flow(36.0, "10.0.3.7", 3334, "10.0.3.8", 8080, **light)
        + replay_flow(65.0, "10.0.3.9", 3335, "10.0.3.10", 445, **heavy)
        + replay_flow(66.0, "10.0.3.11", 3336, "10.0.3.12", 17, **light)
    )
    return [one, two, three]


def test_07_detection_equivalence():
    with verdict(7, "streamed alert sets equal offline batch positives for "
                    "3 models x 3 captures, with byte-identical reruns"):
        dataset = conversation_training_set()
        models = [
            train(ClassifierKind.J48, dataset),
            train(ClassifierKind.KNN, dataset),
            train(ClassifierKind.BAYES, dataset),
        ]
        spec = WindowSpec(interval=30.0)
        for model in models:
            for packets in replay_captures():
                batch = aggregate(packets, capture_start=0.0)
                vectors = np.stack([encode(c) for c in batch])
                labels01, _ = predict_many(model, vectors)
                expected = {
                    (c.address_a, c.port_a, c.address_b, c.port_b,
                     c.protocol)
                    for c, hit in zip(batch, labels01) if hit
                }

                def alert_lines():
                    lines = []
                    detect_stream(packets, model, spec,
                                  lambda a: lines.append(alert_to_json(a)),
                                  capture_start=0.0)
                    return lines

                first = alert_lines()
                streamed = set()
                for line in first:
                    payload = json.loads(line)
                    streamed.add((
                        payload["address_a"], payload["port_a"],
                        payload["address_b"], payload["port_b"],
                        payload["protocol"],
                    ))
                assert streamed == expected
                assert first == alert_lines()       # rerun byte-identical


def test_08_report_shape(tmp_path, capsys):
    with verdict(8, "benchmark emits the 6-row table with the exact column "
                    "set and KNN trains faster than the MLP"):
        dataset = gaussian_dataset(n_pos=396, n_neg=420, seed=42)
        rows = benchmark(ALL_KINDS, dataset,
                         SplitSpec.holdout(train_ratio=0.8, seed=42))
        assert [r.classifier for r in rows] == [k.value for k in ALL_KINDS]

        text = render_report_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].split(",") == [
            "classifier", "TPR(%)", "FPR(%)", "Precision", "Recall",
            "F-measure", "Accuracy score", "training_time_s",
        ]
        assert lines[0] == ",".join(REPORT_CSV_HEADER)
        assert len(lines) == 7
        for line in lines[1:]:
            assert len(line.split(",")) == 8

        knn_row = next(r for r in rows if r.classifier == "KNearestNeighbor")
        mlp_row = next(r for r in rows
                       if r.classifier == "MultilayerPerceptron")
        assert knn_row.training_time_s < mlp_row.training_time_s

        # the same table shape through the command-line entry point
        heavy = [make_conversation(port_a=1000 + i, packets_ab=3,
                                   bytes_ab=3000 + i, packets_ba=2,
                                   bytes_ba=2000, rel_start=float(i))
                 for i in range(12)]
        light = [make_conversation(port_a=2000 + i, rel_start=float(i))
                 for i in range(12)]
        (tmp_path / "r.csv").write_text(conversations_to_csv(heavy))
        (tmp_path / "b.csv").write_text(conversations_to_csv(light))
        assert run(["label", "--ransomware", str(tmp_path / "r.csv"),
                    "--benign", str(tmp_path / "b.csv"),
                    "-o", str(tmp_path / "data.csv")]) == 0
        assert run(["bench", str(tmp_path / "data.csv"),
                    "--kinds", "all"]) == 0
        cli_lines = capsys.readouterr().out.strip().split("\n")
        assert cli_lines[0] == ",".join(REPORT_CSV_HEADER)
        assert len(cli_lines) == 7
        assert [l.split(",")[0] for l in cli_lines[1:]] == [
            k.value for k in ALL_KINDS]
