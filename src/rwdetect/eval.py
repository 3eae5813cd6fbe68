"""Evaluation: confusion counts, metrics, splits, benchmarks, reports.

Metrics with a zero denominator are undefined, carried as ``None`` and
rendered as ``n/a`` (CSV) or ``null`` (JSON) rather than coerced to 0.
Splits are always stratified and derive entirely from (labels, spec),
so every classifier evaluated under the same spec sees identical folds.
A fold is its test indices, and it trains on every other row.
``evaluate`` and ``benchmark`` train each family's defaults seeded by ``spec.seed``;
other hyperparameters are scored by ``split``, then ``train``, then ``evaluate_model``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capture import _csv_text
from .classifiers import (
    ClassifierKind,
    TrainedModel,
    default_hyperparams,
    predict_many,
    train,
)
from .classifiers.base import check_seed, check_types
from .errors import EmptyInput, InvalidHyperparams, LengthMismatch, TooFewSamples
from .features import Dataset, _labels01

REPORT_CSV_HEADER = [
    "classifier", "TPR(%)", "FPR(%)", "Precision", "Recall",
    "F-measure", "Accuracy score", "training_time_s",
]


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


def confusion(actual, predicted) -> ConfusionCounts:
    """Count the four outcomes of two 0/1 label lists or arrays; 1
    (ransomware) is the positive class, any other label a ValueError."""
    a = _labels01(actual)
    p = _labels01(predicted)
    if len(a) != len(p):
        raise LengthMismatch(f"{len(a)} actual labels vs {len(p)} predicted")
    if len(a) == 0:
        raise EmptyInput("cannot build a confusion matrix from zero labels")
    tn, fp, fn, tp = np.bincount(2 * a + p, minlength=4).tolist()
    return ConfusionCounts(tp=tp, fn=fn, fp=fp, tn=tn)


@dataclass(frozen=True)
class MetricsReport:
    classifier: str
    tpr: float | None
    fpr: float | None
    precision: float | None
    recall: float | None
    f_measure: float | None
    accuracy: float | None
    training_time_s: float
    train_fingerprint: str | None = None


#: The six rates, in report order.
_METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(MetricsReport)[1:7])


def metrics(counts: ConfusionCounts) -> dict[str, float | None]:
    """The six rates in ``_METRIC_FIELDS`` order; a zero-denominator one is None."""
    tp, fn, fp, tn = counts.tp, counts.fn, counts.fp, counts.tn
    tpr = tp / (tp + fn) if tp + fn else None
    fpr = fp / (fp + tn) if fp + tn else None
    precision = tp / (tp + fp) if tp + fp else None
    recall = tpr
    if precision is None or recall is None or precision + recall == 0:
        f_measure = None
    else:
        f_measure = 2 * precision * recall / (precision + recall)
    accuracy = (tp + tn) / counts.total if counts.total else None
    return dict(tpr=tpr, fpr=fpr, precision=precision, recall=recall,
                f_measure=f_measure, accuracy=accuracy)


@dataclass(frozen=True)
class SplitSpec:
    """Stratified split recipe: one holdout fold or k cross-validation folds."""
    method: str            # "holdout" | "kfold"
    train_ratio: float = 0.8
    k: int = 10
    seed: int = 42

    def __post_init__(self):
        if self.method not in ("holdout", "kfold"):
            raise InvalidHyperparams(f"unknown split method: {self.method!r}")
        check_types(self)
        if not 0.0 < self.train_ratio < 1.0:
            raise InvalidHyperparams("train_ratio must be in (0, 1)")
        if self.k < 2:
            raise InvalidHyperparams("k must be at least 2")
        check_seed(self.seed)

    @classmethod
    def holdout(cls, train_ratio: float = 0.8, seed: int = 42) -> "SplitSpec":
        return cls(method="holdout", train_ratio=train_ratio, seed=seed)

    @classmethod
    def kfold(cls, k: int = 10, seed: int = 42) -> "SplitSpec":
        return cls(method="kfold", k=k, seed=seed)


def split(dataset: Dataset, spec: SplitSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fold list of (train_indices, test_indices), each sorted ascending."""
    counts = dataset.class_counts()
    need, name = (2, "holdout") if spec.method == "holdout" else (spec.k, f"{spec.k}-fold")
    if min(counts) < need:
        raise TooFewSamples(
            f"{name} needs at least {need} samples of each class, got "
            f"{counts[0]} positive / {counts[1]} negative"
        )
    # Positive then negative index permutations from one seeded generator.
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    perms = [rng.permutation(np.flatnonzero(dataset.y == value)) for value in (1, 0)]
    if spec.method == "holdout":
        # Each class trains on its rounded share, clamped to 1..n-1, and tests on the rest.
        cuts = [min(max(round(spec.train_ratio * len(perm)), 1), len(perm) - 1)
                for perm in perms]
        tests = [np.concatenate([perm[cut:] for perm, cut in zip(perms, cuts)])]
    else:
        tests = [np.concatenate([perm[f::spec.k] for perm in perms])
                 for f in range(spec.k)]
    every = np.arange(len(dataset.y))
    return [(np.delete(every, test), np.sort(test)) for test in tests]


def evaluate_model(model: TrainedModel, dataset: Dataset,
                   test_idx: np.ndarray) -> dict[str, float | None]:
    """``metrics`` of a trained model on one test slice of a dataset."""
    predicted, _scores = predict_many(model, dataset.x[test_idx])
    actual = dataset.y[test_idx]
    return metrics(confusion(actual, predicted))


@dataclass(frozen=True)
class EvaluationResult:
    classifier: str
    folds: list[MetricsReport]
    mean: MetricsReport

    @property
    def row(self) -> MetricsReport:
        """The report row: the one fold of a holdout, else the k-fold mean."""
        return self.folds[0] if len(self.folds) == 1 else self.mean


def _mean_report(classifier: str, folds: list[MetricsReport]) -> MetricsReport:
    rates = {}
    for name in _METRIC_FIELDS:
        values = [getattr(f, name) for f in folds]
        rates[name] = None if None in values else float(np.mean(values))
    time_mean = float(np.mean([f.training_time_s for f in folds]))
    return MetricsReport(classifier, **rates, training_time_s=time_mean)


def evaluate(kind: ClassifierKind, dataset: Dataset, spec: SplitSpec, *,
             zero_addresses: bool = False) -> EvaluationResult:
    """Train and score one family's defaults, seeded by ``spec.seed``, on every fold.

    The mean row averages fold metrics without weighting; an undefined
    metric in any fold leaves the mean undefined.
    """
    hyperparams = default_hyperparams(kind, seed=spec.seed)
    folds = []
    for train_idx, test_idx in split(dataset, spec):
        model = train(kind, dataset.subset(train_idx), hyperparams,
                      zero_addresses=zero_addresses)
        rates = evaluate_model(model, dataset, test_idx)
        folds.append(MetricsReport(
            kind.value, **rates, training_time_s=model.training_time,
            train_fingerprint=model.train_fingerprint,
        ))
    return EvaluationResult(classifier=kind.value, folds=folds,
                            mean=_mean_report(kind.value, folds))


def benchmark(kinds: Sequence[ClassifierKind], dataset: Dataset,
              spec: SplitSpec, *, zero_addresses: bool = False) -> list[MetricsReport]:
    """One report row per kind, all kinds sharing the identical folds."""
    return [evaluate(kind, dataset, spec, zero_addresses=zero_addresses).row
            for kind in kinds]


def _fmt(value: float | None, pattern: str, scale: float = 1.0) -> str:
    if value is None:
        return "n/a"
    return pattern % (value * scale)


def render_report_csv(rows: Sequence[MetricsReport]) -> str:
    """Fixed-decimal report: rates in percent, scores on [0, 1]."""
    return _csv_text(REPORT_CSV_HEADER, ([
        row.classifier,
        _fmt(row.tpr, "%.2f", 100.0),
        _fmt(row.fpr, "%.2f", 100.0),
        _fmt(row.precision, "%.4f"),
        _fmt(row.recall, "%.4f"),
        _fmt(row.f_measure, "%.4f"),
        _fmt(row.accuracy, "%.4f"),
        "%.6f" % row.training_time_s,
    ] for row in rows))


def render_report_json(rows: Sequence[MetricsReport]) -> str:
    """Lossless report: raw float values, undefined metrics as null."""
    out = []
    for row in rows:
        entry = dataclasses.asdict(row)
        if row.train_fingerprint is None:
            del entry["train_fingerprint"]
        out.append(entry)
    return json.dumps(out, indent=2) + "\n"
