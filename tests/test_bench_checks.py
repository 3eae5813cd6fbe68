"""The benchmark's workloads pass their own checks at a tenth of their size.

``bench/run.py`` runs each workload as set-up, operation, check and
scoring, and refuses a run whose check fails.  This runs the same steps
on captures shrunk through the size constants of ``bench/workloads.py``,
so a change that breaks a check fails here, not first in a benchmark run.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

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
