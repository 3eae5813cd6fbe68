"""The benchmark's workloads: set-up, one operation each, and its checks.

An operation calls rwdetect the way its command line does, through module
attributes resolved at call time, so a tracer installed on those
attributes sees every call:

* ``replay`` is ``rwdetect detect --model M capture.pcap -o alerts``:
  read the model and the capture, run windowed detection, write one JSON
  line per alert.
* ``compare`` is ``rwdetect extract`` for two labelled captures,
  ``rwdetect label``, ``rwdetect bench`` over every family with a
  holdout split, then a save and load of each family's model; it also
  builds the dataset through ``label_and_merge``, which must agree with
  the CSV path.

Any mismatch with the generator's ground truth raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

import gen
import rwdetect.capture as capture
import rwdetect.classifiers as classifiers
import rwdetect.conversation as conversation
import rwdetect.detect as detect
import rwdetect.eval as evaluation
import rwdetect.features as features
from rwdetect.features import Label

WINDOW_S = 60.0

#: Flow-length mix of the labelled training captures: mostly short flows
#: with a share of long ones, so one model serves both replays.
TRAINING_MIX = {"short": 0.9, "long": 0.1}

#: Labelled captures behind the replay model (flows per capture).  The
#: ransomware capture carries some benign background, as a capture from
#: an infected site would; its label still applies to every flow.
REPLAY_MODEL_FLOWS = {"ransomware": 200, "background": 10, "benign": 200}

#: Labelled captures of train-compare: about 1.5k conversations, so each
#: KNN query scans about 1.2k training points.  Sized so one comparison
#: takes about six seconds on a 2-vCPU VM and a run times three.
COMPARE_FLOWS = {"ransomware": 750, "background": 8, "benign": 750}

#: Labelled capture of the same site the compared families' loaded models
#: are scored on, outside the timing.  The holdout has only ~150 benign
#: conversations, so its false-positive rate moved by a fifth from seed to
#: seed; on this many the figures follow the models, not the draw.
SCORING_FLOWS = {"ransomware": 1000, "benign": 2000}

#: Seed of the site every workload watches (its hosts) and of the replay
#: model.  The workload seed varies the traffic only, so every replay
#: runs the same trees and the seed-to-seed spread is the traffic's alone.
SITE_SEED = 0

#: Replay captures: (benign flows, ransomware flows, flow-length profile).
#: Sized so one replay takes one to two seconds on a 2-vCPU VM: a run
#: then times several, and their median is steady between runs.
REPLAYS = {
    "replay-scan": (2_600, 1_300, "short"),
    "replay-bulk": (600, 300, "long"),
}


class CheckFailed(Exception):
    """An operation's output disagrees with the ground truth or a repeat."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def table_key(window: int, c) -> tuple:
    """Ground-truth key of a conversation: (window, protocol, endpoints)."""
    ends = sorted([(gen.dotted_to_u32(c.address_a), c.port_a),
                   (gen.dotted_to_u32(c.address_b), c.port_b)])
    return (window, c.protocol, *ends)


def truth_conversations(cap: gen.Capture) -> list[conversation.Conversation]:
    """A capture's ground-truth conversations in ``aggregate``'s order."""
    rows = [row for row, _label in gen.conversations(cap).values()]
    rows.sort(key=lambda r: (r[11], *sorted([(gen.dotted_to_u32(r[1]), r[2]),
                                             (gen.dotted_to_u32(r[3]), r[4])]),
                             r[0]))
    return [conversation.Conversation(*row) for row in rows]


def labelled_captures(pools, seed: tuple, flows: dict[str, int]):
    """The ransomware and the benign labelled capture of one site."""
    ransom = gen.generate(pools, (*seed, 1), benign_flows=flows["background"],
                          ransomware_flows=flows["ransomware"],
                          profile=TRAINING_MIX)
    benign = gen.generate(pools, (*seed, 2), benign_flows=flows["benign"],
                          ransomware_flows=0, profile=TRAINING_MIX)
    return ransom, benign


# -- replay -------------------------------------------------------------------

@dataclass
class ReplayInputs:
    pcap: Path
    model: Path
    alerts: Path
    frames: int
    packets: int
    skipped: int
    truth: dict            # table_key -> (13 columns, label)
    model_bytes: int
    model_sha: str
    training: tuple[Path, Path]   # labelled captures behind the model


def setup_replay(workload: str, seed: int, workdir: Path) -> ReplayInputs:
    """Generate the site, train the forest the replay uses, write the files.

    The model is trained as ``rwdetect label`` and ``rwdetect train
    --kind forest`` would train it from the labelled captures'
    conversations, through the dataset CSV.  ``seed`` drives the replayed
    capture.
    """
    pools = gen.network((SITE_SEED, 0))
    ransom, benign = labelled_captures(pools, (SITE_SEED, 1),
                                       REPLAY_MODEL_FLOWS)
    sets = [(truth_conversations(ransom), Label.RANSOMWARE),
            (truth_conversations(benign), Label.BENIGN)]
    dataset = features.read_dataset_csv(features.write_dataset_csv(sets))
    model = classifiers.train(classifiers.ClassifierKind.RANDOM_FOREST, dataset)
    blob = classifiers.save_model(model)

    n_benign, n_ransom, profile = REPLAYS[workload]
    cap = gen.generate(pools, (seed, 2), benign_flows=n_benign,
                       ransomware_flows=n_ransom, profile={profile: 1.0})
    inputs = ReplayInputs(
        pcap=workdir / "replay.pcap", model=workdir / "forest.model",
        alerts=workdir / "alerts.jsonl", frames=cap.frames,
        packets=len(cap.ts_us), skipped=cap.skipped,
        truth=gen.conversations(cap, WINDOW_S), model_bytes=len(blob),
        model_sha=hashlib.sha256(blob).hexdigest(),
        training=(workdir / "train-ransomware.pcap",
                  workdir / "train-benign.pcap"),
    )
    inputs.pcap.write_bytes(cap.pcap)
    inputs.model.write_bytes(blob)
    inputs.training[0].write_bytes(ransom.pcap)
    inputs.training[1].write_bytes(benign.pcap)
    return inputs


@dataclass
class ReplayResult:
    seconds: float
    first_alert_s: float
    summary: detect.DetectionSummary
    skipped: int


def replay(pcap: Path, model_path: Path, out: Path) -> ReplayResult:
    """``rwdetect detect``: model and capture in, one JSON line per alert out."""
    start = time.perf_counter()
    first = None
    model = classifiers.read_model(model_path)
    packets, malformed, unsupported = detect.read_packet_source(pcap)
    with open(out, "w") as fh:
        def sink(alert):
            nonlocal first
            if first is None:
                first = time.perf_counter()
            fh.write(detect.alert_to_json(alert) + "\n")

        summary = detect.detect_stream(packets, model, detect.WindowSpec(WINDOW_S),
                                       sink, skipped_malformed=malformed)
    seconds = time.perf_counter() - start
    expect(first is not None, "the replay raised no alert")
    return ReplayResult(seconds, first - start, summary, unsupported)


def check_replay(inputs: ReplayInputs, result: ReplayResult) -> None:
    """Counts at every boundary must match the ground truth."""
    s = result.summary
    windows = {key[0] for key in inputs.truth}
    expect(s.packets == inputs.packets,
           f"{s.packets} packets detected, capture holds {inputs.packets}")
    expect(result.skipped == inputs.skipped,
           f"{result.skipped} frames skipped, capture holds {inputs.skipped}")
    expect(s.windows == len(windows),
           f"{s.windows} windows, ground truth has {len(windows)}")
    expect(s.conversations == len(inputs.truth),
           f"{s.conversations} conversations, ground truth has {len(inputs.truth)}")


def score_alerts(inputs: ReplayInputs, alerts_path: Path) -> dict[str, float]:
    """Recall, false-positive rate and accuracy per (window, conversation).

    Every alerted conversation must equal its ground-truth row in all 13
    features, and no pair may alert twice.
    """
    seen = set()
    tp = fp = 0
    for line in alerts_path.read_text().splitlines():
        alert = json.loads(line)
        f = alert["features"]
        ends = sorted([(int(f["address_a"]), alert["port_a"]),
                       (int(f["address_b"]), alert["port_b"])])
        key = (alert["window"], alert["protocol"], *ends)
        expect(key not in seen, f"two alerts for {key}")
        seen.add(key)
        expect(key in inputs.truth, f"alert for {key}, not a ground-truth conversation")
        row, label = inputs.truth[key]
        values = [f[name] for name in features.FEATURE_NAMES]
        expected = list(row)
        expected[1] = gen.dotted_to_u32(row[1])
        expected[3] = gen.dotted_to_u32(row[3])
        expect(values == expected, f"alert {key} features {values} != {expected}")
        if label == "ransomware":
            tp += 1
        else:
            fp += 1
    positives = sum(1 for _row, label in inputs.truth.values() if label == "ransomware")
    negatives = len(inputs.truth) - positives
    return {
        "alert_recall": tp / positives,
        "alert_fpr": fp / negatives,
        "accuracy_mean": (tp + negatives - fp) / len(inputs.truth),
        "alerts": tp + fp,
    }


def check_conversations(inputs: ReplayInputs) -> None:
    """Every per-window conversation rwdetect builds equals the ground truth."""
    records, _summary = capture.parse_pcap(inputs.pcap.read_bytes())
    start = min(r.timestamp for r in records)
    got = {}
    for w, bucket in detect.window_packets(records, detect.WindowSpec(WINDOW_S), start):
        for c in conversation.aggregate(bucket, capture_start=start):
            got[table_key(w, c)] = astuple(c)
    expected = {key: row for key, (row, _label) in inputs.truth.items()}
    expect(got == expected, "per-window conversations differ from the ground truth")


# -- train-compare ------------------------------------------------------------

@dataclass
class CompareInputs:
    pcaps: tuple[Path, Path]      # ransomware, benign
    frames: int
    truth: tuple[dict, dict]      # table_key -> 13 columns, per capture
    workdir: Path
    scoring: np.ndarray           # encoded conversations of SCORING_FLOWS
    scoring_labels: np.ndarray    # 1 for ransomware


def setup_compare(seed: int, workdir: Path) -> CompareInputs:
    """Generate the two labelled captures and write them.

    Also builds the scoring conversations (``SCORING_FLOWS``) straight
    from the generator's ground truth.
    """
    pools = gen.network((SITE_SEED, 0))
    caps = labelled_captures(pools, (seed, 3), COMPARE_FLOWS)
    scoring = gen.generate(pools, (seed, 4), benign_flows=SCORING_FLOWS["benign"],
                           ransomware_flows=SCORING_FLOWS["ransomware"],
                           profile=TRAINING_MIX)
    rows = list(gen.conversations(scoring).values())
    inputs = CompareInputs(
        pcaps=(workdir / "ransomware.pcap", workdir / "benign.pcap"),
        frames=sum(c.frames for c in caps),
        truth=tuple({key: row for key, (row, _l) in gen.conversations(c).items()}
                    for c in caps),
        workdir=workdir,
        scoring=np.stack([features.encode(conversation.Conversation(*row))
                          for row, _label in rows]),
        scoring_labels=np.array([label == "ransomware" for _row, label in rows],
                                dtype=np.uint8),
    )
    for path, cap in zip(inputs.pcaps, caps):
        path.write_bytes(cap.pcap)
    return inputs


@dataclass
class CompareResult:
    seconds: float
    first_row_s: float
    conversations: list[list]
    dataset: features.Dataset
    merged: features.Dataset
    rows: list
    models: dict[str, bytes]
    loaded: dict[str, object]


@contextmanager
def recording_models(models: list, row_times: list):
    """Keep each model ``benchmark`` evaluates, and when its row is done."""
    original = evaluation.evaluate_model

    def recorder(model, dataset, test_idx):
        values = original(model, dataset, test_idx)
        models.append(model)
        row_times.append(time.perf_counter())
        return values

    evaluation.evaluate_model = recorder
    try:
        yield
    finally:
        evaluation.evaluate_model = original


def compare(pcaps: tuple[Path, Path], work: Path) -> CompareResult:
    """extract x2, label, bench (all families, holdout), save/load each model.

    ``pcaps`` are the ransomware and the benign labelled capture; every
    intermediate file goes to ``work``.
    """
    labels = (Label.RANSOMWARE, Label.BENIGN)
    csvs = (work / "ransomware.csv", work / "benign.csv")
    start = time.perf_counter()
    extracted = []
    for pcap, csv_path in zip(pcaps, csvs):
        records, _summary = capture.read_pcap(pcap)
        convs = conversation.aggregate(records)
        csv_path.write_text(conversation.conversations_to_csv(convs))
        extracted.append(convs)

    sets = [(conversation.csv_to_conversations(p.read_text()), label)
            for p, label in zip(csvs, labels)]
    dataset_path = work / "dataset.csv"
    dataset_path.write_text(features.write_dataset_csv(sets))
    dataset = features.read_dataset_csv(dataset_path.read_text())
    merged = features.label_and_merge(sets)

    models, row_times = [], []
    with recording_models(models, row_times):
        rows = evaluation.benchmark(classifiers.ALL_KINDS, dataset,
                                    evaluation.SplitSpec.holdout())
    blobs, loaded = {}, {}
    for model in models:
        path = work / f"{model.kind.name.lower()}.model"
        blobs[model.kind.value] = classifiers.save_model(model)
        path.write_bytes(blobs[model.kind.value])
        loaded[model.kind.value] = classifiers.read_model(path)
    seconds = time.perf_counter() - start
    return CompareResult(seconds, row_times[0] - start, extracted,
                         dataset, merged, rows, blobs, loaded)


def check_compare(inputs: CompareInputs, result: CompareResult) -> None:
    for i, (convs, truth) in enumerate(zip(result.conversations, inputs.truth)):
        got = {table_key(0, c): astuple(c) for c in convs}
        expect(got == truth, f"capture {i}: conversations differ from the ground truth")
    n = sum(len(t) for t in inputs.truth)
    expect(len(result.dataset) == n, f"dataset has {len(result.dataset)} rows, expected {n}")
    expect(features.dataset_fingerprint(result.dataset)
           == features.dataset_fingerprint(result.merged),
           "label_and_merge and the dataset CSV disagree")
    kinds = [k.value for k in classifiers.ALL_KINDS]
    expect([r.classifier for r in result.rows] == kinds, "report rows out of order")
    expect(sorted(result.models) == sorted(kinds), "a family's model was not kept")
    for row in result.rows:
        expect(row.accuracy is not None and row.tpr is not None
               and row.fpr is not None, f"{row.classifier}: undefined metric")
    for kind, blob in result.models.items():
        expect(classifiers.save_model(result.loaded[kind]) == blob,
               f"{kind}: model changed in a save/load round trip")


def score_compare(inputs: CompareInputs, result: CompareResult) -> dict[str, float]:
    """Means across the six families: recall and false-positive rate of
    each loaded model on the scoring conversations, and the comparison
    table's holdout accuracy."""
    ransomware = inputs.scoring_labels == 1
    recall, fpr = [], []
    for model in result.loaded.values():
        alerted = classifiers.predict_many(model, inputs.scoring)[0] == 1
        recall.append(float(alerted[ransomware].mean()))
        fpr.append(float(alerted[~ransomware].mean()))
    return {
        "alert_recall": statistics.fmean(recall),
        "alert_fpr": statistics.fmean(fpr),
        "accuracy_mean": statistics.fmean(r.accuracy for r in result.rows),
    }
