"""In-memory span tracing around rwdetect's public functions.

``Tracer.install`` replaces every public function of the pipeline modules
with a timing wrapper, at every module attribute that refers to it, so the
unchanged pipeline calls the wrappers wherever it resolves those names
(``rwdetect.detect.parse_pcap`` as well as ``rwdetect.capture.parse_pcap``).
A span is ``[name, start, end, parent index, attrs]``; ``attrs`` holds the
counts a few boundaries report, such as the model kind and query count of
a ``predict_many`` call.  Nothing is written until the benchmark ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable

#: Modules whose public functions are traced; the first name component
#: after ``rwdetect`` is the layer.
TRACED_MODULES = (
    "rwdetect.capture",
    "rwdetect.conversation",
    "rwdetect.features",
    "rwdetect.classifiers.base",
    "rwdetect.classifiers.model_io",
    "rwdetect.classifiers.bayes",
    "rwdetect.classifiers.forest",
    "rwdetect.classifiers.knn",
    "rwdetect.classifiers.mlp",
    "rwdetect.classifiers.svm",
    "rwdetect.classifiers.tree",
    "rwdetect.detect",
    "rwdetect.eval",
)

#: Address codecs run once or twice per packet inside ``aggregate`` and
#: ``encode``; a span each would cost more than the call, so their time
#: stays in the caller's self time.
UNTRACED = frozenset({"rwdetect.capture.ip_to_u32", "rwdetect.capture.u32_to_ip"})


def _kind(model) -> str:
    return model.kind.value


#: Counts recorded at a boundary: span name -> f(args, result) -> attrs.
ATTRS: dict[str, Callable] = {
    "capture.parse_pcap": lambda a, r: {
        "packets": r[1].packets_read,
        "skipped": r[1].packets_skipped_non_ip
        + r[1].packets_skipped_unsupported_protocol},
    "conversation.aggregate": lambda a, r: {"packets": len(a[0]),
                                            "conversations": len(r)},
    "classifiers.base.train": lambda a, r: {"kind": _kind(r)},
    "classifiers.base.predict_many": lambda a, r: {"kind": _kind(a[0]),
                                                   "queries": len(a[1])},
    "classifiers.model_io.save_model": lambda a, r: {"kind": _kind(a[0]),
                                                     "bytes": len(r)},
    "classifiers.model_io.load_model": lambda a, r: {"kind": _kind(r),
                                                     "bytes": len(a[0])},
    "detect.detect_stream": lambda a, r: {"windows": r.windows,
                                          "alerts": r.alerts},
}


def span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('rwdetect.')}.{fn.__name__}"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans from wrapped functions and from ``span()`` blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn):
        """``fn`` wrapped to record a span into this tracer on each call."""
        name = span_name(fn)
        attrs = ATTRS.get(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            rec = opened(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(rec)
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function at every rwdetect attribute bound to it."""
        wrappers = {}
        for modname in TRACED_MODULES:
            module = sys.modules[modname]
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == modname
                        and not attr.startswith("_")
                        and f"{modname}.{attr}" not in UNTRACED):
                    wrappers[fn] = self.wrap(fn)
        for modname, module in list(sys.modules.items()):
            if modname != "rwdetect" and not modname.startswith("rwdetect."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[list], roots: list[int]) -> dict[str, float]:
    """Seconds each layer spent in its own code under the given root spans.

    A span's self time is its duration minus its children's durations;
    a layer's is the sum over its spans.  All layers together add up to
    the roots' total duration.
    """
    totals: dict[str, float] = {}
    for root in roots:
        under = descendants(spans, root)
        child_time = dict.fromkeys(under, 0.0)
        for i in under[1:]:
            child_time[spans[i][3]] += spans[i][2] - spans[i][1]
        for i in under:
            name, start, end = spans[i][:3]
            layer = layer_of(name)
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time[i]
    return totals


def descendants(spans: list[list], root: int) -> list[int]:
    """Indices of the spans under ``root``, root included, in start order."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)
