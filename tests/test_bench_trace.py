"""The benchmark's traced accounting still finds every span it reads.

``bench/layers.py`` builds its per-layer metrics from spans named after
rwdetect's public functions.  This runs the two traced operations of
``bench/run.py --trace 1`` on small generated captures: a comparison of
every family, then a replay through the forest it trained.  Renaming a
function a metric reads, or calling it from another place, then fails
here rather than in the next traced benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Flows per labelled capture, about a twelfth of train-compare's.
FLOWS = {"ransomware": 60, "background": 2, "benign": 60}


def test_traced_operations_measure_every_layer_metric(tmp_path):
    pools = gen.network(11)
    captures = workloads.labelled_captures(pools, (11, 1), FLOWS)
    pcaps = (tmp_path / "ransomware.pcap", tmp_path / "benign.pcap")
    for path, cap in zip(pcaps, captures):
        path.write_bytes(cap.pcap)
    replayed = gen.generate(pools, (11, 2), benign_flows=40, ransomware_flows=20,
                            profile={"short": 0.5, "long": 0.5})
    (tmp_path / "replay.pcap").write_bytes(replayed.pcap)
    work = tmp_path / "work"
    work.mkdir()

    tracer = spans.Tracer()
    roots = []

    def traced(operation, *args):
        roots.append(len(tracer.spans))
        tracer.install()
        try:
            with tracer.span("bench.op"):
                return operation(*args)
        finally:
            tracer.uninstall()

    traced(workloads.compare, pcaps, work)
    traced(workloads.replay, tmp_path / "replay.pcap", work / "random_forest.model",
           tmp_path / "alerts.jsonl")

    measured = layers.layer_metrics(tracer.spans, roots)
    expected = {name for name in layers.PER_LAYER
                if not name.startswith("trace.") and not name.endswith(".peak_mb")}
    assert sorted(expected - measured.keys()) == []
    streams = [i for i, span in enumerate(tracer.spans)
               if span[0] == "detect.detect_stream"]
    assert layers.window_seconds(tracer.spans, streams)
