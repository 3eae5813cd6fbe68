"""Traced run: per-layer metrics from spans around rwdetect's calls.

Per-layer metrics come from the spans under the traced operations; a
metric whose layer those operations never call comes from the probe (see
``run.py``).  Every metric in ``PER_LAYER`` must be measured: a layer
that recorded no span, say after an upstream rename, fails the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import rwdetect.classifiers as classifiers
import rwdetect.detect as detect

import spans as spanlib

KINDS = {kind.value: alias for alias, kind in classifiers.KIND_ALIASES.items()}
LAYERS = ("capture", "conversation", "features", "classifiers", "detect", "eval")

#: Layers whose self time is reported per operation.  ``driver`` is the
#: layer that runs the operation's pipeline: ``detect`` on a replay,
#: ``eval`` on train-compare; ``bench`` is the benchmark's own code.
SELF_LAYERS = ("capture", "conversation", "features", "classifiers",
               "driver", "bench")

#: Every per-layer metric and its unit, in report order.
PER_LAYER = {
    "capture.parse_us_per_pkt": "us",
    "capture.packets_read": "count",
    "capture.skipped": "count",
    "capture.peak_mb": "MB",
    "conversation.aggregate_us_per_pkt": "us",
    "conversation.conversations": "count",
    "conversation.pkts_per_conv": "count",
    "conversation.csv_read_s": "s",
    "features.dataset_csv_read_s": "s",
    "features.label_and_merge_s": "s",
    "features.encode_us_per_conv": "us",
    **{f"classifiers.{m}.{k}": unit
       for m, unit in (("predict_us_per_query", "us"), ("fit_s", "s"),
                       ("save_ms", "ms"), ("load_ms", "ms"),
                       ("model_bytes", "bytes"))
       for k in KINDS.values()},
    "detect.windows": "count",
    "detect.window_s.median": "s",
    "detect.window_s.max": "s",
    "detect.alerts": "count",
    "detect.alert_json_us": "us",
    "detect.peak_mb": "MB",
    "eval.split_s": "s",
    **{f"trace.self_s.{layer}": "s" for layer in SELF_LAYERS},
    "trace.op_untraced_s": "s",
    "trace.op_traced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans_per_op": "count",
    "trace.span_cost_us": "us",
    "trace.overhead_est_s": "s",
}

#: Figures of one trained model; see ``operation_first``.
MODEL_FIGURES = ("fit_s", "save_ms", "load_ms", "model_bytes")

#: Untraced/traced pairs of a traced run: at least ``MIN_PAIRS`` while
#: they fit in ``PAIR_BUDGET_S``, and never fewer than two.
MIN_PAIRS = 3
PAIR_BUDGET_S = 120.0


def collect(spans: list[list], roots: list[int]) -> dict[str, list[tuple]]:
    """Span name -> [(duration, attrs, index)] for everything under ``roots``."""
    out = defaultdict(list)
    for root in roots:
        for i in spanlib.descendants(spans, root):
            name, start, end, _parent, attrs = spans[i]
            out[name].append((end - start, attrs, i))
    return out


def layer_metrics(spans: list[list], roots: list[int]) -> dict[str, float]:
    """Per-layer metrics from the spans under ``roots``, per operation.

    Only metrics whose spans exist under the roots are returned.
    """
    n = len(roots)
    by = collect(spans, roots)
    out: dict[str, float] = {}

    def total(name):
        return sum(d for d, _a, _i in by[name])

    def attr_sum(name, key):
        return sum(a[key] for _d, a, _i in by[name])

    if by["capture.parse_pcap"]:
        packets = attr_sum("capture.parse_pcap", "packets")
        skipped = attr_sum("capture.parse_pcap", "skipped")
        out["capture.parse_us_per_pkt"] = 1e6 * total("capture.parse_pcap") / (packets + skipped)
        out["capture.packets_read"] = packets / n
        out["capture.skipped"] = skipped / n
    if by["conversation.aggregate"]:
        packets = attr_sum("conversation.aggregate", "packets")
        convs = attr_sum("conversation.aggregate", "conversations")
        out["conversation.aggregate_us_per_pkt"] = 1e6 * total("conversation.aggregate") / packets
        out["conversation.conversations"] = convs / n
        out["conversation.pkts_per_conv"] = packets / convs
    for name, key in (("conversation.csv_to_conversations", "conversation.csv_read_s"),
                      ("features.read_dataset_csv", "features.dataset_csv_read_s"),
                      ("features.label_and_merge", "features.label_and_merge_s"),
                      ("eval.split", "eval.split_s")):
        if by[name]:
            out[key] = total(name) / n
    if by["features.encode"]:
        out["features.encode_us_per_conv"] = 1e6 * total("features.encode") / len(by["features.encode"])

    per_kind = defaultdict(lambda: defaultdict(list))
    for name in ("classifiers.base.predict_many", "classifiers.base.train",
                 "classifiers.model_io.save_model", "classifiers.model_io.load_model"):
        for d, attrs, _i in by[name]:
            per_kind[KINDS[attrs["kind"]]][name].append((d, attrs))
    for kind, calls in per_kind.items():
        if calls["classifiers.base.predict_many"]:
            queries = sum(a["queries"] for _d, a in calls["classifiers.base.predict_many"])
            seconds = sum(d for d, _a in calls["classifiers.base.predict_many"])
            out[f"classifiers.predict_us_per_query.{kind}"] = 1e6 * seconds / queries
        if calls["classifiers.base.train"]:
            out[f"classifiers.fit_s.{kind}"] = statistics.fmean(
                d for d, _a in calls["classifiers.base.train"])
        for name, key in (("classifiers.model_io.save_model", "save_ms"),
                          ("classifiers.model_io.load_model", "load_ms")):
            if calls[name]:
                out[f"classifiers.{key}.{kind}"] = 1e3 * statistics.fmean(d for d, _a in calls[name])
                out[f"classifiers.model_bytes.{kind}"] = calls[name][-1][1]["bytes"]

    if by["detect.detect_stream"]:
        out["detect.windows"] = attr_sum("detect.detect_stream", "windows") / n
        out["detect.alerts"] = attr_sum("detect.detect_stream", "alerts") / n
        windows = window_seconds(spans, [i for _d, _a, i in by["detect.detect_stream"]])
        out["detect.window_s.median"] = statistics.median(windows)
        out["detect.window_s.max"] = max(windows)
    if by["detect.alert_to_json"]:
        out["detect.alert_json_us"] = 1e6 * total("detect.alert_to_json") / len(by["detect.alert_to_json"])
    return out


def window_seconds(spans: list[list], streams: list[int]) -> list[float]:
    """Per-window time of each ``detect_stream`` call.

    A window starts when ``detect_stream`` aggregates its packets and ends
    where the next window starts, or where the call returns.
    """
    out = []
    for stream in streams:
        starts = [spans[i][1] for i in range(stream + 1, len(spans))
                  if spans[i][3] == stream and spans[i][0] == "conversation.aggregate"]
        ends = starts[1:] + [spans[stream][2]]
        out.extend(end - start for start, end in zip(starts, ends))
    return out


@contextmanager
def peak_memory(peaks: dict[str, float]):
    """Record tracemalloc peaks of the capture parse and of ``detect_stream``."""
    targets = (("parse_pcap", "capture.peak_mb"), ("detect_stream", "detect.peak_mb"))
    originals = {attr: getattr(detect, attr) for attr, _key in targets}

    def measured(fn, key):
        def call(*args, **kwargs):
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                peaks[key] = max(peaks.get(key, 0.0), peak)
        return call

    for attr, key in targets:
        setattr(detect, attr, measured(originals[attr], key))
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        for attr, fn in originals.items():
            setattr(detect, attr, fn)


def run_traced(args, runner, measure, out_dir):
    """Untraced and traced operations in turn, then a probe and a memory pass.

    ``measure`` is the benchmark's operation loop; spans go to ``out_dir``.
    Pairs of operations run for ``--seconds`` and at least ``MIN_PAIRS``
    pairs unless that would pass ``PAIR_BUDGET_S`` (train-compare).  The
    tracing overhead is the median of the paired differences, so drift in
    the machine's speed between pairs cancels; it is reported next to the
    spans' count times a calibrated per-span cost.  Returns (per-layer
    values, attempted, correct, samples).
    """
    wl = runner.wl
    inputs = runner.setup()
    untraced, traced = [], []
    tracer = spanlib.Tracer()
    roots = []

    @contextmanager
    def op_span():
        roots.append(len(tracer.spans))
        tracer.install()
        try:
            with tracer.span("bench.op"):
                yield
        finally:
            tracer.uninstall()

    attempted = 0
    started = time.perf_counter()
    while True:
        attempted += measure(runner, 0.0, untraced, min_ops=1)
        attempted += measure(runner, 0.0, traced, wrap=op_span, min_ops=1)
        pairs = min(len(untraced), len(traced))
        elapsed = time.perf_counter() - started
        if runner.errors:
            break
        if pairs >= MIN_PAIRS and elapsed >= args.seconds:
            break
        if pairs >= 2 and elapsed * (pairs + 1) / pairs > PAIR_BUDGET_S:
            break

    probe_dir = runner.workdir / "probe"
    probe_dir.mkdir()
    probe_root = len(tracer.spans)
    tracer.install()
    try:
        with tracer.span("bench.probe"):
            if runner.replay:
                wl.compare(inputs.training, probe_dir)
            else:
                wl.replay(inputs.pcaps[0], inputs.workdir / "random_forest.model",
                          probe_dir / "alerts.jsonl")
    finally:
        tracer.uninstall()

    peaks: dict[str, float] = {}
    with peak_memory(peaks):
        if runner.replay:
            wl.replay(inputs.pcap, inputs.model, inputs.alerts)
        else:
            wl.replay(inputs.pcaps[0], inputs.workdir / "random_forest.model",
                      probe_dir / "alerts.jsonl")

    values = layer_metrics(tracer.spans, [probe_root])
    values.update(operation_first(values, layer_metrics(tracer.spans, roots)))
    values.update(peaks)
    selfs = spanlib.self_times(tracer.spans, roots)
    selfs["driver"] = selfs.get("detect" if runner.replay else "eval", 0.0)
    for layer in SELF_LAYERS:
        values[f"trace.self_s.{layer}"] = selfs.get(layer, 0.0) / len(roots)
    # Means, as the per-layer self times are: together they add up to the
    # mean traced operation.
    op_untraced = statistics.fmean(s["compare_s"] for s in untraced)
    op_traced = statistics.fmean(s["compare_s"] for s in traced)
    overhead = statistics.median(t["compare_s"] - u["compare_s"]
                                 for u, t in zip(untraced, traced))
    spans_per_op = sum(len(spanlib.descendants(tracer.spans, r))
                       for r in roots) / len(roots)
    span_cost = span_cost_s()
    values["trace.op_untraced_s"] = op_untraced
    values["trace.op_traced_s"] = op_traced
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / op_untraced
    values["trace.spans_per_op"] = spans_per_op
    values["trace.span_cost_us"] = 1e6 * span_cost
    values["trace.overhead_est_s"] = spans_per_op * span_cost

    missing = [name for name in PER_LAYER if name not in values]
    if missing:
        raise RuntimeError(f"no spans recorded for per-layer metrics {missing}")
    for layer in LAYERS:
        if not selfs.get(layer) and not layer_has_spans(tracer.spans, probe_root, layer):
            raise RuntimeError(f"layer {layer} recorded no spans")
    print(f"trace: {op_traced:.3f}s traced = " + " + ".join(
        f"{layer} {selfs.get(layer, 0.0) / len(roots):.3f}s"
        for layer in (*LAYERS, "bench")) + f"; untraced {op_untraced:.3f}s, "
        f"overhead {overhead:+.3f}s over {min(len(untraced), len(traced))} "
        f"pairs, {spans_per_op * span_cost:.3f}s from {spans_per_op:.0f} "
        f"spans at {1e6 * span_cost:.2f}us", file=sys.stderr)

    write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.json",
                tracer.spans, roots, probe_root)
    samples = ([dict(s, traced=False) for s in untraced]
               + [dict(s, traced=True) for s in traced])
    return values, attempted, not runner.errors, samples


def operation_first(probe: dict, op: dict) -> dict:
    """The operation's values, less model figures the probe has in full.

    A kind's fit, save, load and size figures all come from one model:
    the operation's when it trains that kind (train-compare), otherwise
    the probe's, so a replay's load of its own forest never mixes with
    the probe's fit and save.
    """
    out = dict(op)
    for kind in KINDS.values():
        if f"classifiers.fit_s.{kind}" in op or f"classifiers.fit_s.{kind}" not in probe:
            continue
        for figure in MODEL_FIGURES:
            out.pop(f"classifiers.{figure}.{kind}", None)
    return out


def span_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a traced call costs over a plain one, median of ``repeats``."""
    def plain(x):
        return x

    tracer = spanlib.Tracer()
    wrapped = tracer.wrap(plain)
    costs = []
    for _ in range(repeats):
        began = time.perf_counter()
        for i in range(calls):
            plain(i)
        middle = time.perf_counter()
        with tracer.span("bench.calibrate"):
            for i in range(calls):
                wrapped(i)
        costs.append((time.perf_counter() - middle - (middle - began)) / calls)
        tracer.spans.clear()
    return statistics.median(costs)


def layer_has_spans(spans, root, layer) -> bool:
    return any(spanlib.layer_of(spans[i][0]) == layer
               for i in spanlib.descendants(spans, root))


def write_spans(path, spans, roots, probe_root) -> None:
    """Every span as ``[name, start_s, end_s, parent, attrs]``, times from the first."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        json.dump({"operation_roots": roots, "probe_root": probe_root,
                   "spans": [[n, s - origin, e - origin, p, a]
                             for n, s, e, p, a in spans]}, fh)
