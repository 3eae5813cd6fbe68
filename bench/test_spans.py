"""The tracer sees calls where the pipeline resolves them, and restores them.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_spans.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import spans  # noqa: E402
import rwdetect.capture as capture  # noqa: E402
import rwdetect.detect as detect  # noqa: E402
from rwdetect.errors import BadMagic  # noqa: E402


def test_self_times_split_each_root_by_layer():
    recorded = [
        ["bench.op", 0.0, 10.0, -1, None],
        ["capture.parse_pcap", 1.0, 4.0, 0, None],
        ["detect.detect_stream", 4.0, 9.0, 0, None],
        ["conversation.aggregate", 5.0, 7.0, 2, None],
        ["bench.op", 20.0, 25.0, -1, None],
        ["eval.split", 21.0, 22.0, 4, None],
    ]
    assert spans.self_times(recorded, [0, 4]) == {
        "bench": 6.0, "capture": 3.0, "detect": 3.0, "conversation": 2.0,
        "eval": 1.0}
    assert spans.self_times(recorded, [4]) == {"bench": 4.0, "eval": 1.0}


def test_install_wraps_every_binding_and_uninstall_restores():
    original = capture.parse_pcap
    assert detect.parse_pcap is original
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert detect.parse_pcap is capture.parse_pcap
        assert detect.parse_pcap is not original
        assert not hasattr(capture.ip_to_u32, "__wrapped__")
        with tracer.span("bench.op"), pytest.raises(BadMagic):
            detect.parse_pcap(b"")
    finally:
        tracer.uninstall()
    assert detect.parse_pcap is original and capture.parse_pcap is original
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.op", "capture.parse_pcap"]
    assert tracer.spans[1][3] == 0   # parent is the op span


def test_model_figures_of_a_kind_come_from_one_model():
    probe = {f"classifiers.{figure}.{kind}": value
             for kind in ("forest", "knn")
             for figure, value in (("fit_s", 1.0), ("save_ms", 2.0), ("load_ms", 3.0),
                                   ("model_bytes", 4), ("predict_us_per_query", 5.0))}
    replay = {"classifiers.load_ms.forest": 30.0, "classifiers.model_bytes.forest": 40,
              "classifiers.predict_us_per_query.forest": 50.0}
    merged = {**probe, **layers.operation_first(probe, replay)}
    assert merged == {**probe, "classifiers.predict_us_per_query.forest": 50.0}

    compare = {"classifiers.fit_s.forest": 10.0, "classifiers.load_ms.forest": 30.0}
    merged = {**probe, **layers.operation_first(probe, compare)}
    assert merged == {**probe, **compare}
