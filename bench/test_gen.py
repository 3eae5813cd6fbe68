"""The generator's ground truth is exactly what rwdetect reads back.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_gen.py
"""

from __future__ import annotations

import sys
from dataclasses import astuple
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import workloads  # noqa: E402
from rwdetect.capture import parse_pcap  # noqa: E402
from rwdetect.classifiers import ClassifierKind, train  # noqa: E402
from rwdetect.conversation import aggregate  # noqa: E402
from rwdetect.detect import WindowSpec, window_packets  # noqa: E402
from rwdetect.eval import SplitSpec, evaluate  # noqa: E402
from rwdetect.features import Label, label_and_merge  # noqa: E402


def small_capture(profile: str, seed: int = 8) -> gen.Capture:
    return gen.generate(gen.network(7), seed, benign_flows=300,
                        ransomware_flows=150, profile={profile: 1.0})


@pytest.mark.parametrize("profile", ["short", "long"])
def test_parse_and_aggregate_reproduce_ground_truth(profile):
    cap = small_capture(profile)
    records, summary = parse_pcap(cap.pcap)
    assert summary.packets_read == len(cap.ts_us)
    assert (summary.packets_skipped_non_ip
            + summary.packets_skipped_unsupported_protocol) == cap.skipped > 0
    got = {workloads.table_key(0, c): astuple(c) for c in aggregate(records)}
    assert got == {key: row for key, (row, _label) in gen.conversations(cap).items()}


def test_windowed_conversations_match_ground_truth():
    cap = small_capture("long")
    records, _summary = parse_pcap(cap.pcap)
    start = min(r.timestamp for r in records)
    got = {}
    for w, bucket in window_packets(records, WindowSpec(60.0), start):
        for c in aggregate(bucket, capture_start=start):
            got[workloads.table_key(w, c)] = astuple(c)
    truth = gen.conversations(cap, 60.0)
    assert got == {key: row for key, (row, _label) in truth.items()}
    # long flows cross window boundaries, so some flows appear twice
    assert len(truth) > len(cap.flows)


def test_truth_conversations_come_in_aggregate_order():
    cap = small_capture("short")
    records, _summary = parse_pcap(cap.pcap)
    assert workloads.truth_conversations(cap) == aggregate(records)


def test_same_seed_same_capture():
    assert small_capture("short").pcap == small_capture("short").pcap
    assert small_capture("short").pcap != small_capture("short", seed=9).pcap


def test_populations_overlap():
    pools = gen.network(3)
    ransom, benign = workloads.labelled_captures(pools, (3,), workloads.REPLAY_MODEL_FLOWS)
    dataset = label_and_merge([
        (workloads.truth_conversations(ransom), Label.RANSOMWARE),
        (workloads.truth_conversations(benign), Label.BENIGN)])
    result = evaluate(ClassifierKind.J48, dataset, SplitSpec.holdout())
    assert 0.7 < result.mean.accuracy < 1.0
    # a near-separable set would give a handful of nodes
    assert len(train(ClassifierKind.J48, dataset).state) > 50
