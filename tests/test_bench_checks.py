"""The benchmark's workloads pass their own checks at a tenth of their size.

``bench/run.py`` runs each workload as set-up, operation, check and
scoring, and refuses a run whose check fails.  This runs the same steps
on captures shrunk through the size constants of ``bench/workloads.py``,
so a change that breaks a check fails here, not first in a benchmark run.
The replays' model and alert streams are also pinned at full size.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

from rwdetect import cli  # noqa: E402

SEED = 301


def assert_rates(quality: dict) -> None:
    for name in ("alert_recall", "alert_fpr", "accuracy_mean"):
        assert 0.0 <= quality[name] <= 1.0 and math.isfinite(quality[name]), name


@pytest.mark.parametrize("workload", ["replay-scan", "replay-bulk"])
def test_replay_passes_its_checks(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "REPLAYS", {"replay-scan": (260, 130, "short"),
                                               "replay-bulk": (60, 30, "long")})
    inputs = workloads.setup_replay(workload, SEED, tmp_path)
    result = workloads.replay(inputs.pcap, inputs.model, inputs.alerts)
    workloads.check_replay(inputs, result)
    quality = workloads.score_alerts(inputs, inputs.alerts)
    assert quality["alerts"] == result.summary.alerts
    assert_rates(quality)
    workloads.check_conversations(inputs)


def test_compare_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "COMPARE_FLOWS",
                        {"ransomware": 75, "background": 2, "benign": 75})
    monkeypatch.setattr(workloads, "SCORING_FLOWS", {"ransomware": 100, "benign": 200})
    inputs = workloads.setup_compare(SEED, tmp_path)
    result = workloads.compare(inputs.pcaps, inputs.workdir)
    workloads.check_compare(inputs, result)
    assert_rates(workloads.score_compare(inputs, result))


#: SHA-256 of each replay's model, and of its seed-301 ``detect`` output as
#: JSON lines and as ``--text``.  They pin the benchmark's replays at full
#: size, so a change to detection that moves a byte of them fails here.  A
#: change under ``bench/`` to the generator or to ``REPLAYS`` must update them.
REPLAY_MODEL_SHA256 = "cee7a47e5ea1386792c72de1d8784074e3653324a2a7d38d5efc6d70cacd4c32"
REPLAY_STREAM_SHA256 = {
    "replay-scan": ("b9f85ef980a4b5095184546cd3827b443a49b62cd7cfe363bae69772390ff13e",
                    "38991ba6f344494d565cec6b9b6d5659f3aa284bb259c427a92f49396f97837b"),
    "replay-bulk": ("758092a91abea6720da9deb25352ee1d2fd3629f8e61f9ffe309edc23b6d8008",
                    "1adfcc4781d9eda07b139e38b274d9ed440b0b14911bb82b90317681ff7b0bfc"),
}


@pytest.mark.parametrize("workload", sorted(REPLAY_STREAM_SHA256))
def test_replay_outputs_are_pinned(workload, tmp_path, capsys):
    inputs = workloads.setup_replay(workload, SEED, tmp_path)
    assert inputs.model_sha == REPLAY_MODEL_SHA256
    digests = []
    for text in ([], ["--text"]):
        out = tmp_path / "alerts.out"
        assert cli.run(["detect", str(inputs.pcap), "--model", str(inputs.model),
                        "-o", str(out), *text]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    capsys.readouterr()
    assert tuple(digests) == REPLAY_STREAM_SHA256[workload]
