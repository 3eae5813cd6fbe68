"""Confusion counts, metric definitions, stratified splits, and reports."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from rwdetect.classifiers import ALL_KINDS, ClassifierKind, KnnParams, train
from rwdetect.errors import (
    EmptyInput,
    InvalidHyperparams,
    LengthMismatch,
    TooFewSamples,
)
from rwdetect.eval import (
    REPORT_CSV_HEADER,
    ConfusionCounts,
    MetricsReport,
    SplitSpec,
    benchmark,
    confusion,
    evaluate,
    evaluate_model,
    metrics,
    render_report_csv,
    render_report_json,
    split,
)
from rwdetect.eval import _METRIC_FIELDS, _mean_report
from rwdetect.features import Dataset, Label

from conftest import gaussian_dataset


def written(row: MetricsReport) -> dict:
    """The JSON object ``render_report_json`` should write for a row: every
    field as it is, ``train_fingerprint`` only when set."""
    fields = dataclasses.asdict(row)
    if fields["train_fingerprint"] is None:
        del fields["train_fingerprint"]
    return fields


class TestConfusion:
    def test_hand_counts(self):
        actual = [1, 1, 1, 0, 0, 0, 0]
        predicted = [1, 1, 0, 1, 0, 0, 0]
        counts = confusion(actual, predicted)
        assert counts == ConfusionCounts(tp=2, fn=1, fp=1, tn=3)
        assert counts.total == 7

    def test_rejects_labels_other_than_0_and_1(self):
        """Lists and arrays pass one check, the rule ``Dataset`` applies."""
        for bad in ([Label.RANSOMWARE, Label.BENIGN], [2, 1], np.array([2, 1]),
                    np.array([1.7, 0.0])):
            with pytest.raises(ValueError, match="0 .benign. or 1"):
                confusion(bad, [1, 0])
            with pytest.raises(ValueError, match="0 .benign. or 1"):
                confusion(np.array([1, 0]), bad)

    def test_accepts_numpy_arrays(self):
        counts = confusion(np.array([1, 0, 1]), np.array([1, 1, 1]))
        assert counts == ConfusionCounts(tp=2, fn=0, fp=1, tn=0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([1, 0], [1])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            confusion([], [])


class TestMetrics:
    def test_worked_example(self):
        values = metrics(ConfusionCounts(tp=973, fn=27, fp=18, tn=982))
        assert values["tpr"] == pytest.approx(0.973, abs=1e-15)
        assert values["fpr"] == pytest.approx(0.018, abs=1e-15)
        assert values["precision"] == pytest.approx(973 / 991, abs=1e-15)
        assert values["recall"] == values["tpr"]
        p, r = Fraction(973, 991), Fraction(973, 1000)
        assert values["f_measure"] == pytest.approx(
            float(2 * p * r / (p + r)), abs=1e-12)
        assert values["accuracy"] == pytest.approx(1955 / 2000, abs=1e-15)
        assert tuple(values) == _METRIC_FIELDS

    def test_no_actual_positives(self):
        values = metrics(ConfusionCounts(tp=0, fn=0, fp=5, tn=5))
        assert values["tpr"] is None
        assert values["recall"] is None
        assert values["f_measure"] is None
        assert values["fpr"] == 0.5
        assert values["precision"] == 0.0
        assert values["accuracy"] == 0.5

    def test_no_actual_negatives(self):
        values = metrics(ConfusionCounts(tp=5, fn=5, fp=0, tn=0))
        assert values["fpr"] is None
        assert values["precision"] == 1.0
        assert values["recall"] == 0.5
        assert values["f_measure"] == pytest.approx(2 / 3)

    def test_no_predicted_positives(self):
        values = metrics(ConfusionCounts(tp=0, fn=5, fp=0, tn=5))
        assert values["precision"] is None
        assert values["recall"] == 0.0
        assert values["f_measure"] is None

    def test_zero_precision_and_recall(self):
        values = metrics(ConfusionCounts(tp=0, fn=5, fp=5, tn=0))
        assert values["precision"] == 0.0
        assert values["recall"] == 0.0
        assert values["f_measure"] is None     # P + R denominator is zero
        assert values["accuracy"] == 0.0

    def test_perfect_classifier(self):
        values = metrics(ConfusionCounts(tp=7, fn=0, fp=0, tn=9))
        assert (values["tpr"], values["fpr"]) == (1.0, 0.0)
        assert values["f_measure"] == 1.0
        assert values["accuracy"] == 1.0


class TestSplitSpec:
    def test_holdout_validators(self):
        assert SplitSpec.holdout().train_ratio == 0.8
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(InvalidHyperparams):
                SplitSpec.holdout(train_ratio=bad)

    def test_kfold_validators(self):
        assert SplitSpec.kfold().k == 10
        with pytest.raises(InvalidHyperparams):
            SplitSpec.kfold(k=1)

    @pytest.mark.parametrize("fields, message", [
        (dict(method="bogus", k=4), "unknown split method: 'bogus'"),
        (dict(method="holdout", train_ratio=1.5), "train_ratio must be in (0, 1)"),
        (dict(method="holdout", seed=-1), "seed must fit an unsigned 64-bit int"),
        (dict(method="kfold", seed=2**64), "seed must fit an unsigned 64-bit int"),
    ])
    def test_direct_construction_is_checked(self, fields, message):
        # The checks once lived only in holdout()/kfold(): SplitSpec("bogus",
        # k=4) ran 4-fold and train_ratio=1.5 split 38/2.
        with pytest.raises(InvalidHyperparams, match=re.escape(message)):
            SplitSpec(**fields)

    @pytest.mark.parametrize("fields, message", [
        (dict(method="kfold", k=2.5), "k must be int, got float"),
        (dict(method="kfold", k=True), "k must be int, got bool"),
        (dict(method="holdout", seed=1.5), "seed must be int, got float"),
        (dict(method="holdout", seed=True), "seed must be int, got bool"),
        (dict(method="holdout", train_ratio="0.5"), "train_ratio must be float, got str"),
        (dict(method="holdout", train_ratio=np.float64(0.5)),
         "train_ratio must be float, got float64"),
    ])
    def test_fields_of_other_types_are_refused(self, fields, message):
        # These once constructed, then failed in ``split`` with an untyped
        # TypeError or in a comparison; a True seed was taken as 1.
        with pytest.raises(InvalidHyperparams, match=f"^{re.escape(message)}$"):
            SplitSpec(**fields)

    def test_int_train_ratio_stands_for_float(self):
        with pytest.raises(InvalidHyperparams, match=re.escape("train_ratio must be in (0, 1)")):
            SplitSpec.holdout(train_ratio=1)


class TestSplit:
    def test_holdout_counts_and_stratification(self):
        ds = gaussian_dataset(n_pos=396, n_neg=420, seed=42)
        [(train_idx, test_idx)] = split(ds, SplitSpec.holdout(seed=42))
        labels01 = ds.y
        assert len(train_idx) == 653 and len(test_idx) == 163
        assert labels01[train_idx].sum() == 317     # round(0.8 * 396)
        assert labels01[test_idx].sum() == 79

    def test_disjoint_and_covering(self):
        ds = gaussian_dataset(n_pos=37, n_neg=41, seed=1)
        [(train_idx, test_idx)] = split(ds, SplitSpec.holdout(seed=3))
        merged = np.concatenate([train_idx, test_idx])
        assert np.array_equal(np.sort(merged), np.arange(78))
        assert np.array_equal(train_idx, np.sort(train_idx))
        assert np.array_equal(test_idx, np.sort(test_idx))

    def test_deterministic_by_seed(self):
        ds = gaussian_dataset(n_pos=30, n_neg=30, seed=2)
        a = split(ds, SplitSpec.holdout(seed=5))
        b = split(ds, SplitSpec.holdout(seed=5))
        c = split(ds, SplitSpec.holdout(seed=6))
        assert np.array_equal(a[0][0], b[0][0])
        assert not np.array_equal(a[0][0], c[0][0])

    # Digests of the folds as little-endian int64 bytes, ``train|test/`` per fold.
    @pytest.mark.parametrize("spec, digest", [
        (SplitSpec.holdout(0.8, seed=7), "7b7ba0218ebd40ba"),
        (SplitSpec.holdout(0.3, seed=2**64 - 1), "ff0591db7635adc2"),
        (SplitSpec.kfold(5, seed=11), "e843fa8e48d89ae1"),
    ], ids=["holdout-0.8", "holdout-0.3", "kfold-5"])
    def test_folds_are_pinned(self, spec, digest):
        ds = Dataset(np.zeros((57, 13)), np.arange(57) % 3 == 0)
        h = hashlib.sha256()
        for train_idx, test_idx in split(ds, spec):
            assert train_idx.dtype == test_idx.dtype == np.int64
            h.update(train_idx.astype("<i8").tobytes() + b"|"
                     + test_idx.astype("<i8").tobytes() + b"/")
        assert h.hexdigest()[:16] == digest

    def test_holdout_clamps_to_leave_one_out(self):
        ds = gaussian_dataset(n_pos=2, n_neg=2, seed=4)
        [(train_idx, test_idx)] = split(
            ds, SplitSpec.holdout(train_ratio=0.99))
        labels01 = ds.y
        assert len(train_idx) == len(test_idx) == 2
        assert labels01[train_idx].sum() == 1
        assert labels01[test_idx].sum() == 1

    def test_holdout_needs_two_per_class(self):
        ds = gaussian_dataset(n_pos=1, n_neg=10, seed=5)
        with pytest.raises(TooFewSamples, match="^holdout needs at least 2 samples of each "
                                                "class, got 1 positive / 10 negative$"):
            split(ds, SplitSpec.holdout())

    def test_kfold_sizes(self):
        ds = gaussian_dataset(n_pos=396, n_neg=420, seed=42)
        folds = split(ds, SplitSpec.kfold(k=5))
        sizes = [len(test_idx) for _, test_idx in folds]
        assert sizes == [164, 163, 163, 163, 163]
        labels01 = ds.y
        positives = [int(labels01[test_idx].sum()) for _, test_idx in folds]
        assert positives == [80, 79, 79, 79, 79]

    def test_kfold_partitions_everything(self):
        ds = gaussian_dataset(n_pos=13, n_neg=17, seed=6)
        folds = split(ds, SplitSpec.kfold(k=4))
        all_test = np.concatenate([test_idx for _, test_idx in folds])
        assert np.array_equal(np.sort(all_test), np.arange(30))
        for train_idx, test_idx in folds:
            assert len(np.intersect1d(train_idx, test_idx)) == 0
            assert len(train_idx) + len(test_idx) == 30

    def test_kfold_needs_k_per_class(self):
        ds = gaussian_dataset(n_pos=4, n_neg=40, seed=7)
        with pytest.raises(TooFewSamples, match="^5-fold needs at least 5 samples of each "
                                                "class, got 4 positive / 40 negative$"):
            split(ds, SplitSpec.kfold(k=5))


class TestEvaluate:
    def test_holdout_on_separable_data(self):
        ds = gaussian_dataset(n_pos=40, n_neg=40, seed=8)
        result = evaluate(ClassifierKind.KNN, ds, SplitSpec.holdout())
        assert result.classifier == "KNearestNeighbor"
        assert len(result.folds) == 1
        assert result.folds[0].accuracy == 1.0
        assert result.mean.accuracy == 1.0
        assert result.folds[0].train_fingerprint is not None
        assert result.mean.train_fingerprint is None

    def test_kfold_produces_k_folds(self):
        ds = gaussian_dataset(n_pos=30, n_neg=30, seed=9)
        result = evaluate(ClassifierKind.J48, ds, SplitSpec.kfold(k=3))
        assert len(result.folds) == 3
        assert all(f.accuracy is not None for f in result.folds)
        expected = np.mean([f.accuracy for f in result.folds])
        assert result.mean.accuracy == pytest.approx(float(expected))

    def test_row_is_the_holdout_fold_or_the_kfold_mean(self):
        ds = gaussian_dataset(n_pos=30, n_neg=30, seed=9)
        holdout = evaluate(ClassifierKind.KNN, ds, SplitSpec.holdout())
        assert holdout.row is holdout.folds[0]
        kfold = evaluate(ClassifierKind.KNN, ds, SplitSpec.kfold(k=3))
        assert kfold.row is kfold.mean

    def test_split_seed_seeds_every_fold_model(self, trained_models):
        # Every fold's model was once trained with seed 42, whatever the spec.
        ds = gaussian_dataset(n_pos=15, n_neg=15, seed=9)
        evaluate(ClassifierKind.RANDOM_FOREST, ds, SplitSpec.kfold(k=3, seed=7))
        assert [model.hyperparams.seed for model in trained_models] == [7, 7, 7]
        benchmark([ClassifierKind.KNN, ClassifierKind.J48], ds, SplitSpec.holdout(seed=8))
        assert [model.hyperparams.seed for model in trained_models[3:]] == [8, 8]

    def test_evaluate_model_direct(self):
        ds = gaussian_dataset(n_pos=20, n_neg=20, seed=10)
        [(train_idx, test_idx)] = split(ds, SplitSpec.holdout(seed=11))
        model = train(ClassifierKind.KNN, ds.subset(train_idx), KnnParams(k=3))
        values = evaluate_model(model, ds, test_idx)
        assert values["accuracy"] == 1.0

    def test_mean_report_propagates_none(self):
        def fold(tpr):
            return MetricsReport("x", tpr, 0.5, 0.5, 0.5, 0.5, 0.5, training_time_s=1.0)
        assert _mean_report("x", [fold(0.25), fold(0.75)]).tpr == 0.5
        assert _mean_report("x", [fold(0.25), fold(None)]).tpr is None


class TestBenchmark:
    def test_rows_one_per_kind_in_order(self):
        ds = gaussian_dataset(n_pos=30, n_neg=30, seed=12)
        rows = benchmark(ALL_KINDS, ds, SplitSpec.holdout())
        assert [r.classifier for r in rows] == [k.value for k in ALL_KINDS]

    def test_all_kinds_share_the_split(self):
        ds = gaussian_dataset(n_pos=30, n_neg=30, seed=13)
        rows = benchmark(ALL_KINDS, ds, SplitSpec.holdout())
        prints = {r.train_fingerprint for r in rows}
        assert len(prints) == 1 and None not in prints

    def test_deterministic_apart_from_timing(self):
        ds = gaussian_dataset(n_pos=30, n_neg=30, seed=14)
        kinds = [ClassifierKind.J48, ClassifierKind.BAYES]
        first = benchmark(kinds, ds, SplitSpec.holdout())
        second = benchmark(kinds, ds, SplitSpec.holdout())
        for a, b in zip(first, second):
            assert a.classifier == b.classifier
            for name in ("tpr", "fpr", "precision", "recall",
                         "f_measure", "accuracy", "train_fingerprint"):
                assert getattr(a, name) == getattr(b, name)

    def test_kfold_benchmark_uses_mean_rows(self):
        ds = gaussian_dataset(n_pos=30, n_neg=30, seed=15)
        rows = benchmark([ClassifierKind.KNN], ds, SplitSpec.kfold(k=3))
        assert rows[0].train_fingerprint is None    # mean of 3 folds


class TestRendering:
    def worked_row(self) -> MetricsReport:
        values = metrics(ConfusionCounts(tp=973, fn=27, fp=18, tn=982))
        return MetricsReport("MultilayerPerceptron", **values, training_time_s=461.5)

    def test_header_exact(self):
        assert REPORT_CSV_HEADER == [
            "classifier", "TPR(%)", "FPR(%)", "Precision", "Recall",
            "F-measure", "Accuracy score", "training_time_s",
        ]

    def test_csv_worked_example(self):
        text = render_report_csv([self.worked_row()])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(REPORT_CSV_HEADER)
        assert lines[1] == ("MultilayerPerceptron,97.30,1.80,"
                            "0.9818,0.9730,0.9774,0.9775,461.500000")

    def test_csv_undefined_cells(self):
        values = metrics(ConfusionCounts(tp=0, fn=0, fp=5, tn=5))
        row = MetricsReport("BayesNetwork", **values, training_time_s=0.25)
        line = render_report_csv([row]).strip().split("\n")[1]
        assert line == "BayesNetwork,n/a,50.00,0.0000,n/a,n/a,0.5000,0.250000"

    def test_csv_quotes_a_name_with_a_comma(self):
        # Once written unquoted, splitting the row into nine fields.
        row = dataclasses.replace(self.worked_row(), classifier="a,b")
        header, fields = csv.reader(io.StringIO(render_report_csv([row])))
        assert len(fields) == 8 and fields[0] == "a,b"

    def test_json_null_for_undefined(self):
        values = metrics(ConfusionCounts(tp=0, fn=5, fp=0, tn=5))
        row = MetricsReport("DecisionTreeJ48", **values, training_time_s=1.0)
        payload = json.loads(render_report_json([row]))
        assert payload[0]["precision"] is None
        assert payload[0]["f_measure"] is None
        assert payload[0]["recall"] == 0.0

    def test_json_round_trip(self):
        ds = gaussian_dataset(n_pos=20, n_neg=20, seed=16)
        rows = benchmark([ClassifierKind.KNN, ClassifierKind.BAYES], ds,
                         SplitSpec.holdout())
        assert json.loads(render_report_json(rows)) == [written(r) for r in rows]

    def test_round_trip_keeps_undefined(self):
        row = MetricsReport(
            classifier="KNearestNeighbor", tpr=None, fpr=0.25,
            precision=None, recall=None, f_measure=None, accuracy=0.75,
            training_time_s=0.5)
        assert json.loads(render_report_json([row])) == [written(row)]
