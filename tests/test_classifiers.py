"""Per-family behavior oracles and the shared train/predict contract."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import struct
import warnings
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rwdetect import classifiers
from rwdetect.classifiers import (
    ALL_KINDS,
    SCALED_KINDS,
    BayesParams,
    ClassifierKind,
    ForestParams,
    KnnParams,
    MlpParams,
    SvmParams,
    TrainedModel,
    TreeParams,
    default_hyperparams,
    kind_from_name,
    load_model,
    model_fingerprint,
    predict_many,
    save_model,
    train,
    validate_hyperparams,
)
from rwdetect.classifiers import forest as forest_mod
from rwdetect.classifiers import knn as knn_mod
from rwdetect.classifiers import mlp as mlp_mod
from rwdetect.classifiers import model_io
from rwdetect.classifiers import tree as tree_mod
from rwdetect.classifiers.base import FAMILIES, MAX_COUNT
from rwdetect.classifiers.model_io import MODEL_FORMAT_VERSION, MODEL_MAGIC
from rwdetect.errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidHyperparams,
    MalformedModel,
    NonFiniteFeature,
    SingleClassDataset,
)
from rwdetect.features import N_FEATURES, Dataset, Label

from conftest import (
    CLOSE_VALUES,
    INTEGER_HYPERPARAMS,
    address_only_dataset,
    deadline,
    gaussian_dataset,
    model_params,
    model_trees,
)


def vec13(**positions) -> np.ndarray:
    out = np.zeros(13)
    for key, value in positions.items():
        out[int(key[1:])] = value
    return out


class TreeNode(NamedTuple):
    """A model-file node row."""
    feature: int        # -1 marks a leaf
    threshold: float
    left: int           # child index within the tree, -1 for leaves
    right: int
    pos: int
    total: int


def j48_rows(model: TrainedModel) -> list[TreeNode]:
    """A J48 model's nodes as the model file's rows."""
    return [TreeNode(*row) for row in model_params(model)["nodes"]]


def predict_one(model: TrainedModel, vector: np.ndarray) -> tuple[int, float]:
    """(0/1 label, score) of one feature vector, scored as a one-row batch."""
    labels01, scores = predict_many(model, np.reshape(vector, (1, -1)))
    return int(labels01[0]), float(scores[0])


def toy_dataset(rows: list[tuple[np.ndarray, Label]]) -> Dataset:
    return Dataset([v for v, _ in rows], [label is Label.RANSOMWARE for _, label in rows])


class TestKindRegistry:
    def test_canonical_order(self):
        assert [k.value for k in ALL_KINDS] == [
            "KNearestNeighbor", "MultilayerPerceptron", "DecisionTreeJ48",
            "RandomForest", "SupportVectorMachine", "BayesNetwork",
        ]

    def test_aliases(self):
        assert kind_from_name("knn") is ClassifierKind.KNN
        assert kind_from_name("forest") is ClassifierKind.RANDOM_FOREST
        assert kind_from_name("BayesNetwork") is ClassifierKind.BAYES
        with pytest.raises(InvalidHyperparams):
            kind_from_name("perceptron")

    def test_default_hyperparams_seeded(self):
        hp = default_hyperparams(ClassifierKind.MLP, seed=7)
        assert hp == MlpParams(seed=7)
        assert default_hyperparams(ClassifierKind.KNN).k == 5

    @pytest.mark.parametrize("kind,bad", [
        (ClassifierKind.KNN, KnnParams(k=0)),
        (ClassifierKind.KNN, KnnParams(seed=-1)),
        (ClassifierKind.MLP, MlpParams(hidden_units=0)),
        (ClassifierKind.MLP, MlpParams(learning_rate=0.0)),
        (ClassifierKind.MLP, MlpParams(epochs=0)),
        (ClassifierKind.J48, TreeParams(min_leaf=0)),
        (ClassifierKind.RANDOM_FOREST, ForestParams(trees=0)),
        (ClassifierKind.RANDOM_FOREST, ForestParams(features_per_split=0)),
        (ClassifierKind.RANDOM_FOREST, ForestParams(features_per_split=14)),
        (ClassifierKind.SVM, SvmParams(c=0.0)),
        (ClassifierKind.SVM, SvmParams(iterations=0)),
        (ClassifierKind.BAYES, BayesParams(var_smoothing=-1e-9)),
    ])
    def test_invalid_values(self, kind, bad):
        with pytest.raises(InvalidHyperparams):
            validate_hyperparams(kind, bad)

    @pytest.mark.parametrize("kind,bad", [
        (ClassifierKind.KNN, KnnParams(k=2.5)),
        (ClassifierKind.KNN, KnnParams(k=True)),
        (ClassifierKind.RANDOM_FOREST, ForestParams(bootstrap=1)),
        (ClassifierKind.SVM, SvmParams(c="1.0")),
        (ClassifierKind.MLP, MlpParams(seed=7.0)),
    ])
    def test_wrong_value_types(self, kind, bad):
        with pytest.raises(InvalidHyperparams, match="must be"):
            validate_hyperparams(kind, bad)

    def test_wrong_dataclass_type(self):
        with pytest.raises(InvalidHyperparams):
            validate_hyperparams(ClassifierKind.KNN, MlpParams())

    @pytest.mark.parametrize("kind,key", INTEGER_HYPERPARAMS,
                             ids=lambda v: getattr(v, "value", v))
    def test_integer_above_the_bound(self, kind, key):
        # Only validated: a fit this large would exhaust the host's time or memory.
        hp = dataclasses.replace(default_hyperparams(kind), **{key: MAX_COUNT + 1})
        with pytest.raises(InvalidHyperparams, match=f"{key} must be at most {MAX_COUNT}"):
            validate_hyperparams(kind, hp)
        with pytest.raises(InvalidHyperparams, match=f"{key} must be at most {MAX_COUNT}"):
            train(kind, gaussian_dataset(n_pos=3, n_neg=3, seed=1), hp)
        if key != "features_per_split":     # that one stops at 13
            validate_hyperparams(kind, dataclasses.replace(hp, **{key: MAX_COUNT}))

    def test_seed_keeps_its_64_bit_range(self):
        validate_hyperparams(ClassifierKind.KNN, KnnParams(seed=2 ** 64 - 1))
        with pytest.raises(InvalidHyperparams, match="seed"):
            validate_hyperparams(ClassifierKind.KNN, KnnParams(seed=2 ** 64))


class TestKnn:
    def test_three_point_vote(self):
        ds = toy_dataset([
            (vec13(f5=0.0, f6=0.0), Label.BENIGN),
            (vec13(f5=0.0, f6=1.0), Label.BENIGN),
            (vec13(f5=5.0, f6=5.0), Label.RANSOMWARE),
        ])
        model = train(ClassifierKind.KNN, ds, KnnParams(k=3))
        label, score = predict_one(model, vec13(f5=0.0, f6=0.5))
        assert score == pytest.approx(1.0 / 3.0)
        assert label == 0

    def test_distance_tie_prefers_lower_index(self):
        rows = [
            (vec13(f5=0.0), Label.RANSOMWARE),
            (vec13(f5=2.0), Label.BENIGN),
        ]
        model = train(ClassifierKind.KNN, toy_dataset(rows), KnnParams(k=1))
        assert predict_one(model, vec13(f5=1.0))[0] == 1
        flipped = train(ClassifierKind.KNN, toy_dataset(rows[::-1]), KnnParams(k=1))
        assert predict_one(flipped, vec13(f5=1.0))[0] == 0

    def test_params_in_rejects_a_label_other_than_0_or_1(self):
        obj = {"labels": [0, 2], "points": [[0.5] * 13] * 2}
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            knn_mod.params_in(obj, KnnParams(k=1))

    def test_scale_invariance(self):
        ds = gaussian_dataset(n_pos=30, n_neg=30, seed=8)
        queries = gaussian_dataset(n_pos=10, n_neg=10, seed=9).x
        base = predict_many(train(ClassifierKind.KNN, ds), queries)[1]

        blown = Dataset(ds.x * np.array([1e6] + [1.0] * 12), ds.y)
        blown_queries = queries * np.array([1e6] + [1.0] * 12)
        scaled = predict_many(train(ClassifierKind.KNN, blown), blown_queries)[1]
        assert np.allclose(base, scaled)

    def test_scores_do_not_depend_on_the_block_size(self, monkeypatch):
        model = train(ClassifierKind.KNN, gaussian_dataset(n_pos=40, n_neg=40, seed=13))
        queries = gaussian_dataset(n_pos=30, n_neg=30, seed=14).x
        want = predict_many(model, queries)[1]
        for block_bytes in (1, 8 * 80 * 13 * 7, 1 << 30):   # 1, 7 and all 60 queries a block
            monkeypatch.setattr(knn_mod, "_BLOCK_BYTES", block_bytes)
            assert np.array_equal(predict_many(model, queries)[1], want)

    def test_k_larger_than_training_set(self):
        ds = gaussian_dataset(n_pos=3, n_neg=3, seed=1)
        with pytest.raises(InvalidHyperparams, match="k cannot exceed the training-set size"):
            train(ClassifierKind.KNN, ds, KnnParams(k=7))

    def test_k_equal_training_set_scores_base_rate(self):
        ds = gaussian_dataset(n_pos=2, n_neg=6, seed=1)
        model = train(ClassifierKind.KNN, ds, KnnParams(k=8))
        _, scores = predict_many(model, ds.x)
        assert np.allclose(scores, 0.25)


class TestMlp:
    def test_init_matches_seeded_generator(self):
        state = mlp_mod.init_state(13, 4, seed=77)
        rng = np.random.Generator(np.random.PCG64(77))
        assert np.array_equal(state["w1"], rng.uniform(-0.5, 0.5, size=(13, 4)))
        assert np.array_equal(state["w2"], rng.uniform(-0.5, 0.5, size=(4, 1)))
        assert np.array_equal(state["b1"], np.zeros(4))
        assert np.array_equal(state["b2"], np.zeros(1))

    def test_training_reduces_loss(self):
        ds = gaussian_dataset(n_pos=40, n_neg=40, seed=10)
        x = ds.x
        y = ds.y
        from rwdetect.features import apply_scaler, fit_scaler
        x = apply_scaler(fit_scaler(ds), x)
        before = mlp_mod.loss(mlp_mod.init_state(13, 16, 42), x, y)
        state = mlp_mod.params_in(mlp_mod.fit(x, y, MlpParams()), MlpParams())
        after = mlp_mod.loss(state, x, y)
        assert after < before / 4

    def test_gradient_check_small_network(self):
        rng = np.random.Generator(np.random.PCG64(5))
        x = rng.uniform(0, 1, size=(12, 13))
        y = (rng.uniform(size=12) > 0.5).astype(np.uint8)
        state = mlp_mod.init_state(13, 3, seed=6)
        analytic = mlp_mod.gradients(state, x, y)
        arrays = [state["w1"], state["b1"], state["w2"], state["b2"]]
        step = 1e-5
        worst = 0.0
        for arr, grad in zip(arrays, analytic):
            flat = arr.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + step
                plus = mlp_mod.loss(state, x, y)
                flat[i] = keep - step
                minus = mlp_mod.loss(state, x, y)
                flat[i] = keep
                numeric = (plus - minus) / (2 * step)
                denom = max(abs(numeric), abs(grad.ravel()[i]), 1e-8)
                worst = max(worst, abs(numeric - grad.ravel()[i]) / denom)
        assert worst < 1e-4

    def test_separable_data_learned(self):
        ds = gaussian_dataset(n_pos=50, n_neg=50, seed=11)
        model = train(ClassifierKind.MLP, ds)
        labels01, _ = predict_many(model, ds.x)
        assert (labels01 == ds.y).mean() >= 0.99

    def test_scores_are_probabilities(self):
        ds = gaussian_dataset(n_pos=20, n_neg=20, seed=12)
        model = train(ClassifierKind.MLP, ds)
        _, scores = predict_many(model, ds.x)
        assert np.all((scores > 0.0) & (scores < 1.0))


class TestTree:
    def test_nodes_in_rejects_a_tree_without_nodes(self):
        with pytest.raises(ValueError, match="empty tree"):
            tree_mod.nodes_in([[]])

    def test_perfect_single_split(self):
        rows = [
            (vec13(f0=1.0), Label.BENIGN),
            (vec13(f0=2.0), Label.BENIGN),
            (vec13(f0=3.0), Label.RANSOMWARE),
            (vec13(f0=4.0), Label.RANSOMWARE),
        ]
        model = train(ClassifierKind.J48, toy_dataset(rows))
        nodes = j48_rows(model)
        root = nodes[0]
        assert root.feature == 0
        assert root.threshold == 2.5
        left, right = nodes[root.left], nodes[root.right]
        assert (left.feature, right.feature) == (-1, -1)
        assert (left.pos, left.total) == (0, 2)
        assert (right.pos, right.total) == (2, 2)
        assert predict_one(model, vec13(f0=2.4))[0] == 0
        assert predict_one(model, vec13(f0=2.6))[0] == 1
        assert predict_one(model, vec13(f0=2.5))[0] == 0  # <= goes left

    def test_threshold_is_midpoint_of_distinct_values(self):
        rows = [
            (vec13(f2=10.0), Label.BENIGN),
            (vec13(f2=10.0), Label.BENIGN),
            (vec13(f2=30.0), Label.RANSOMWARE),
        ]
        model = train(ClassifierKind.J48, toy_dataset(rows), TreeParams(min_leaf=1))
        assert j48_rows(model)[0].threshold == 20.0

    def test_threshold_tie_prefers_smallest(self):
        # cuts 1.5 and 3.5 have the same gain ratio; 2.5 has no gain
        rows = [
            (vec13(f0=1.0), Label.BENIGN),
            (vec13(f0=2.0), Label.RANSOMWARE),
            (vec13(f0=3.0), Label.RANSOMWARE),
            (vec13(f0=4.0), Label.BENIGN),
        ]
        model = train(ClassifierKind.J48, toy_dataset(rows), TreeParams(min_leaf=1))
        assert j48_rows(model)[0].threshold == 1.5

    def test_feature_tie_prefers_lower_index(self):
        rows = [
            (vec13(f4=0.0, f7=0.0), Label.BENIGN),
            (vec13(f4=1.0, f7=1.0), Label.RANSOMWARE),
        ]
        model = train(ClassifierKind.J48, toy_dataset(rows), TreeParams(min_leaf=1))
        assert j48_rows(model)[0].feature == 4

    def test_zero_gain_stops_growth(self):
        rows = [
            (vec13(f5=0.0, f6=0.0), Label.BENIGN),
            (vec13(f5=0.0, f6=1.0), Label.RANSOMWARE),
            (vec13(f5=1.0, f6=0.0), Label.RANSOMWARE),
            (vec13(f5=1.0, f6=1.0), Label.BENIGN),
        ]
        model = train(ClassifierKind.J48, toy_dataset(rows))
        assert len(j48_rows(model)) == 1        # xor: no single split gains
        leaf = j48_rows(model)[0]
        assert (leaf.pos, leaf.total) == (2, 4)
        label, score = predict_one(model, vec13(f5=0.5, f6=0.5))
        assert score == 0.5
        assert label == 1     # ties fail safe

    def test_min_leaf_stops_splitting(self):
        rows = [
            (vec13(f0=1.0), Label.BENIGN),
            (vec13(f0=2.0), Label.RANSOMWARE),
            (vec13(f0=3.0), Label.RANSOMWARE),
        ]
        model = train(ClassifierKind.J48, toy_dataset(rows), TreeParams(min_leaf=4))
        assert len(j48_rows(model)) == 1

    def test_pure_dataset_is_single_leaf(self):
        ds = gaussian_dataset(n_pos=5, n_neg=5, seed=13)
        # force purity below the root by training on one class plus one outlier
        model = train(ClassifierKind.J48, ds)
        # every leaf must be pure on separable data
        for node in j48_rows(model):
            if node.feature == -1:
                assert node.pos in (0, node.total)

    def test_full_training_accuracy_on_distinct_data(self):
        rng = np.random.Generator(np.random.PCG64(20))
        x = rng.uniform(0, 1, size=(60, 13))
        y = (rng.uniform(size=60) > 0.5)
        rows = [
            (x[i], Label.RANSOMWARE if y[i] else Label.BENIGN)
            for i in range(60)
        ]
        model = train(ClassifierKind.J48, toy_dataset(rows))
        labels01, _ = predict_many(model, x)
        assert (labels01 == y.astype(np.uint8)).all()

    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        arrays(np.float64, (n, 5), elements=st.integers(0, 3).map(float)),
        arrays(np.uint8, n, elements=st.integers(0, 1)))))
    def test_split_matches_per_feature_search(self, sample):
        x, y = sample
        found = search_node(x, y)
        assert (found and found[:2]) == reference_split(x, y)

    def test_gain_ratio_hand_value(self):
        # values [1,2,3,4,5,6], labels [0,0,0,0,1,1]: cut after index 3
        values = np.array([1.0, 2, 3, 4, 5, 6])
        labels = np.array([0, 0, 0, 0, 1, 1], dtype=np.uint8)
        n_left = np.arange(1.0, 6.0)
        pos_left = np.cumsum(labels)[:-1].astype(np.float64)
        entropy = tree_mod._binary_entropy
        gains, ratios = tree_mod._gain_ratio(
            6.0, n_left, entropy(2.0, 6.0), entropy(pos_left, n_left),
            entropy(2.0 - pos_left, 6.0 - n_left))
        cut = int(np.argmax(ratios))
        ratio, gain = ratios[cut], gains[cut]
        assert cut == 3
        assert search_node(values[:, None], labels)[:2] == (0, 4.5)
        # parent H = H(1/3); perfect split -> gain = parent entropy
        parent = -(2 / 6) * math.log2(2 / 6) - (4 / 6) * math.log2(4 / 6)
        split_info = -(4 / 6) * math.log2(4 / 6) - (2 / 6) * math.log2(2 / 6)
        assert gain == pytest.approx(parent, abs=1e-12)
        assert ratio == pytest.approx(parent / split_info, abs=1e-12)

    @pytest.mark.parametrize("a, b", CLOSE_VALUES, ids=["adjacent", "overflow"])
    @pytest.mark.parametrize("kind", [ClassifierKind.J48, ClassifierKind.RANDOM_FOREST],
                             ids=["j48", "forest"])
    def test_cut_between_close_values_separates(self, kind, a, b):
        # (a + b) / 2 rounds to b, or overflows to inf: the threshold is a.
        x = np.zeros((4, 13))
        x[:, 12] = [a, a, b, b]
        with deadline(30):
            model = load_model(save_model(train(kind, Dataset(x, [0, 0, 1, 1]))))
        assert predict_many(model, x)[0].tolist() == [0, 0, 1, 1]
        splits = [TreeNode(*row) for rows in model_trees(model) for row in rows if row[0] >= 0]
        assert splits and all(s.feature == 12 and s.threshold == a for s in splits)


def search_node(x: np.ndarray, y: np.ndarray):
    """``tree._search`` of one node holding every row, every column a candidate."""
    [found] = tree_mod._search(x, tree_mod._order_codes(x), y, [np.arange(len(y))],
                               [np.arange(x.shape[1])], [int(y.sum())])
    return found


def reference_split(x: np.ndarray, y: np.ndarray):
    """Best (feature, threshold) by a search one feature at a time: the first
    maximum within a feature, a strict ``>`` across features.  The threshold
    is the midpoint of the cut's two values when it lies between them, else
    the lower value."""
    best = None
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        v, cum = x[order, f], np.cumsum(y[order].astype(np.float64))
        cuts = np.nonzero(v[1:] != v[:-1])[0]
        if cuts.size == 0:
            continue
        n = len(v)
        n_left, pos_left = cuts + 1.0, cum[cuts]
        frac_left, frac_right = n_left / n, (n - n_left) / n
        gain = tree_mod._binary_entropy(cum[-1], float(n)) \
            - frac_left * tree_mod._binary_entropy(pos_left, n_left) \
            - frac_right * tree_mod._binary_entropy(cum[-1] - pos_left, n - n_left)
        split_info = -(frac_left * np.log2(frac_left) + frac_right * np.log2(frac_right))
        ratio = np.where(gain > 0.0, gain / split_info, -np.inf)
        i = int(np.argmax(ratio))
        if ratio[i] > -np.inf and (best is None or ratio[i] > best[0]):
            a, b = v[cuts[i]].item(), v[cuts[i] + 1].item()
            mid = (a + b) / 2.0
            best = (ratio[i], f, mid if a <= mid < b else a)
    return None if best is None else best[1:]


def reference_build(x: np.ndarray, y: np.ndarray, min_leaf: int,
                    rng=None, features_per_split: int = 13) -> list[list]:
    """One tree's model-file rows, grown a node at a time in preorder, each
    node searched over its own rows by ``reference_split``: the oracle of
    ``tree.grow``.  A node draws its feature subset from ``rng`` only when
    it is searched."""
    raw: list[list] = []
    stack = [(np.arange(len(y)), -1, 0)]
    while stack:
        idx, parent, side = stack.pop()
        if parent >= 0:
            raw[parent][2 + side] = len(raw)
        pos, total = int(y[idx].sum()), len(idx)
        raw.append([-1, 0.0, -1, -1, pos, total])
        if total < min_leaf or not 0 < pos < total:
            continue
        candidates = np.arange(13)
        if rng is not None and features_per_split < 13:
            candidates = np.sort(rng.choice(13, size=features_per_split, replace=False))
        split = reference_split(x[idx][:, candidates], y[idx])
        if split is None:
            continue
        feature, threshold = int(candidates[split[0]]), split[1]
        raw[-1][:2] = feature, threshold
        mask = x[idx, feature] <= threshold
        stack.append((idx[~mask], len(raw) - 1, 1))
        stack.append((idx[mask], len(raw) - 1, 0))
    return raw


def reference_forest(x: np.ndarray, y: np.ndarray, hp: ForestParams) -> list[list]:
    """Each tree of the forest by ``reference_build`` over a copy of its
    bootstrap sample; each tree's generator draws the sample first."""
    trees = []
    for child in np.random.SeedSequence(hp.seed).spawn(hp.trees):
        rng = np.random.Generator(np.random.PCG64(child))
        picks = rng.integers(0, len(y), size=len(y)) if hp.bootstrap else np.arange(len(y))
        trees.append(reference_build(x[picks], y[picks], hp.min_leaf, rng,
                                     hp.features_per_split))
    return trees


@st.composite
def tie_heavy_samples(draw):
    """Up to 30 rows of 13 features over four levels, and 0/1 labels."""
    n = draw(st.integers(1, 30))
    x = draw(arrays(np.float64, (n, 13), elements=st.sampled_from([0.0, 1.0, 2.5, -1.0])))
    return x, draw(arrays(np.uint8, n, elements=st.integers(0, 1)))


class TestLockstepGrowth:
    """``tree.grow`` grows every tree at once, batching one step's split
    searches; its rows must equal the per-node oracle's."""

    @given(tie_heavy_samples(), st.integers(1, 5), st.booleans(), st.integers(1, 13),
           st.integers(1, 4), st.integers(0, 2**32 - 1), st.integers(1, 120))
    def test_forest_matches_per_node_build(self, sample, trees, bootstrap,
                                           features_per_split, min_leaf, seed, chunk):
        x, y = sample
        hp = ForestParams(trees=trees, bootstrap=bootstrap, seed=seed, min_leaf=min_leaf,
                          features_per_split=features_per_split)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_mod, "CHUNK_CELLS", chunk)
            got = forest_mod.fit(x, y, hp)
        assert got["trees"] == reference_forest(x, y, hp)

    @given(tie_heavy_samples(), st.integers(1, 4))
    def test_j48_matches_per_node_build(self, sample, min_leaf):
        x, y = sample
        got = tree_mod.fit(x, y, TreeParams(min_leaf=min_leaf))
        assert got["nodes"] == reference_build(x, y, min_leaf)


def tie_dataset() -> Dataset:
    """Features of four integer levels, noisy labels: many equal values
    per column, so split ties are common and unpruned trees grow deep."""
    rng = np.random.Generator(np.random.PCG64(7))
    x = rng.integers(0, 4, size=(300, 13)).astype(np.float64)
    noise = rng.integers(0, 3, size=300)
    return Dataset(x, (x[:, 0] + x[:, 1] * x[:, 2] + noise) % 2)


class TestPinnedTrees:
    """Model bytes stay the same across rewrites of the split search, of
    each family's state and of the model file's writer."""

    @pytest.mark.parametrize("kind, make_dataset, hp, digest", [
        (ClassifierKind.J48, lambda: gaussian_dataset(n_pos=200, n_neg=200, seed=1), None,
         "dd9479fad36f175318bfe48139fcb9a42ec8aa37663ff19778655d63202ca313"),
        (ClassifierKind.RANDOM_FOREST,
         lambda: gaussian_dataset(n_pos=200, n_neg=200, seed=1), None,
         "7298e25c5a47b3dad85affa994ef079f8631f604c93ef793bbe3cdcdff1a8978"),
        (ClassifierKind.J48, tie_dataset, None,
         "efc8847396db74c6831f70b369d6e9b1a48ba9fcdedd6d61f28c2afba93edaae"),
        (ClassifierKind.RANDOM_FOREST, tie_dataset, ForestParams(trees=10),
         "bf4745330f6a159ec45c1829ab5a71c0be7e2e5a481781ee40a7bf0e0f281346"),
        (ClassifierKind.RANDOM_FOREST, tie_dataset,
         ForestParams(trees=3, bootstrap=False, features_per_split=13),
         "005cf1a319f230faf2299439fe9b70de230065eab9d6f08e5638869a069a45ae"),
        (ClassifierKind.RANDOM_FOREST, tie_dataset, ForestParams(trees=10, min_leaf=1),
         "8484f674b237f8795e038eb990500d90a83406b63784030e98747aad7ad61227"),
        (ClassifierKind.RANDOM_FOREST,
         lambda: gaussian_dataset(n_pos=200, n_neg=200, seed=1),
         ForestParams(trees=10, bootstrap=False, features_per_split=4),
         "a2fdcc199ce969d34344aeb82d6d55bdede1057d843730080b2bd3ce8616c21e"),
        (ClassifierKind.J48, tie_dataset, TreeParams(min_leaf=5),
         "929156c270cfdc9931a105d74508f0094f5ed2f02d19397cdedae63f756c895d"),
        (ClassifierKind.KNN, lambda: gaussian_dataset(n_pos=200, n_neg=200, seed=1), None,
         "401b11e395718cbf02190147443965a100f9d7694f17b5fc661933214e16e75c"),
        (ClassifierKind.MLP, lambda: gaussian_dataset(n_pos=200, n_neg=200, seed=1), None,
         "753cfb2eb443eb904d8188140d9e013c1037c3a2918984c308b98fbd8dfe20a1"),
        (ClassifierKind.SVM, lambda: gaussian_dataset(n_pos=200, n_neg=200, seed=1), None,
         "3e7de75c375658e81996088c7fe89834fb5ea60758aba8b5916a652b3933fd58"),
        (ClassifierKind.BAYES, lambda: gaussian_dataset(n_pos=200, n_neg=200, seed=1), None,
         "5dae3bcb2bb1b941dea9e2a5a0bae05b472df1309ee5895743ac037d8cca2505"),
    ], ids=["j48-gaussian", "forest-gaussian", "j48-ties", "forest-ties",
            "forest-ties-all-features", "forest-ties-min-leaf-1",
            "forest-gaussian-no-bootstrap", "j48-ties-min-leaf-5",
            "knn-gaussian", "mlp-gaussian", "svm-gaussian", "bayes-gaussian"])
    def test_model_sha256(self, kind, make_dataset, hp, digest):
        assert model_fingerprint(train(kind, make_dataset(), hp)) == digest


def reference_walk(trees: list[list], queries: np.ndarray) -> np.ndarray:
    """Tree scores the slow way: each query walks each tree's file rows.

    Leaf fractions are added tree by tree from zero, then divided by the
    tree count, the summation order ``tree.scores`` keeps.
    """
    total = np.zeros(len(queries))
    for rows in trees:
        for i, query in enumerate(queries.tolist()):
            node = TreeNode(*rows[0])
            while node.feature >= 0:
                child = node.left if query[node.feature] <= node.threshold else node.right
                node = TreeNode(*rows[child])
            total[i] += node.pos / node.total
    return total / len(trees)


#: Thresholds and query values of the random trees, so queries often
#: equal a threshold.
LEVELS = (-1.5, 0.0, 0.25, 1.0, 3.0)


def random_tree(rng: np.random.Generator, splits: int, levels=LEVELS) -> list[list]:
    """A random tree of file rows with ``splits`` split nodes, in preorder,
    its thresholds drawn from ``levels``.

    Leaves carry arbitrary finite thresholds, which routing ignores.
    """
    rows: list[list] = []

    def grow(budget: int) -> int:
        i = len(rows)
        total = int(rng.integers(1, 50))
        pos = int(rng.integers(0, total + 1))
        if budget == 0:
            rows.append([-1, float(rng.choice(levels)), -1, -1, pos, total])
            return i
        rows.append([int(rng.integers(0, 13)), float(rng.choice(levels)), -1, -1, pos, total])
        on_left = int(rng.integers(0, budget))
        rows[i][2] = grow(on_left)
        rows[i][3] = grow(budget - 1 - on_left)
        return i

    grow(splits)
    return rows


def chain_tree(depth: int) -> list[list]:
    """Split nodes whose left child is a leaf and right child the next split."""
    rows: list[list] = []
    for d in range(depth):
        rows.append([d % 13, float(d % 7) / 2.0, len(rows) + 1, len(rows) + 2, d, 2 * d + 1])
        rows.append([-1, 0.0, -1, -1, d % 2, 1])
    rows.append([-1, 0.0, -1, -1, 1, 3])
    return rows


def level_queries(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.choice(LEVELS, size=(n, 13)) + np.where(
        rng.random((n, 13)) < 0.3, rng.normal(size=(n, 13)), 0.0)


def scored_by_walk(trees: list[list], queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``tree.scores``, ``reference_walk``) of the trees: J48 for one tree."""
    model = load_model(sealed_trees(trees))
    return predict_many(model, queries)[1], reference_walk(trees, queries)


def features_used(trees: list[list]) -> list[list[int]]:
    return [sorted({row[0] for row in rows if row[0] >= 0}) for rows in trees]


def sealed_trees(trees: list[list]) -> bytes:
    """A model file holding the trees, J48 for one tree, sealed as the
    writer seals one, but with rows the reader has not checked."""
    if len(trees) == 1:
        kind, hp, params = ClassifierKind.J48, None, {"nodes": trees[0]}
    else:
        kind, hp = ClassifierKind.RANDOM_FOREST, ForestParams(trees=len(trees))
        params = {"trees": trees, "features_used": features_used(trees)}
    blob = save_model(train(kind, gaussian_dataset(n_pos=6, n_neg=6, seed=3), hp))
    start = len(MODEL_MAGIC) + 6
    payload = json.loads(blob[start:-32])
    payload["params"] = params
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    head = MODEL_MAGIC + struct.pack(">HI", MODEL_FORMAT_VERSION, len(body)) + body
    return head + hashlib.sha256(head).digest()


def balanced_tree(rng: np.random.Generator, depth: int) -> list[list]:
    """A full tree of ``2 ** depth`` leaves in preorder, with thresholds
    that are all distinct."""
    rows: list[list] = []

    def grow(level: int) -> int:
        i = len(rows)
        if level == depth:
            rows.append([-1, 0.0, -1, -1, int(rng.integers(0, 3)), 2])
            return i
        rows.append([int(rng.integers(0, 13)), float(rng.normal()), -1, -1, 1, 2])
        rows[i][2] = grow(level + 1)
        rows[i][3] = grow(level + 1)
        return i

    grow(0)
    return rows


def split_over(left: list[list], right: list[list]) -> list[list]:
    """A split on feature 0 at 0.5 over two trees of file rows, in preorder."""
    def shifted(rows, by):
        return [[f, t, -1 if a < 0 else a + by, -1 if b < 0 else b + by, p, n]
                for f, t, a, b, p, n in rows]
    total = left[0][5] + right[0][5]
    return [[0, 0.5, 1, 1 + len(left), left[0][4] + right[0][4], total],
            *shifted(left, 1), *shifted(right, 1 + len(left))]


#: Thresholds of the differential test's random trees: the tie-heavy
#: levels and both zeros.
SIGNED_LEVELS = (*LEVELS, -0.0)


@st.composite
def forests_and_queries(draw):
    """Trees in canonical preorder, one to five, and queries at their
    thresholds.

    A tree is a random shape over ``SIGNED_LEVELS``, a lone leaf, a
    random shape of 65 to 200 leaves over 40 normal draws, or a 400-split
    chain.  A query value is a threshold, a ``nextafter`` either side of
    one, or a zero of either sign.
    """
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    trees = []
    for shape in draw(st.lists(st.sampled_from(["random", "lone", "wide", "chain"]),
                               min_size=1, max_size=5)):
        if shape == "random":
            trees.append(random_tree(rng, int(rng.integers(0, 40)), SIGNED_LEVELS))
        elif shape == "lone":
            trees.append([[-1, 0.5, -1, -1, int(rng.integers(0, 4)), 3]])
        elif shape == "wide":
            trees.append(random_tree(rng, int(rng.integers(64, 200)), rng.normal(size=40)))
        else:
            trees.append(chain_tree(400))
    thresholds = np.array([row[1] for rows in trees for row in rows])
    values = np.concatenate([thresholds, np.nextafter(thresholds, -np.inf),
                             np.nextafter(thresholds, np.inf), [0.0, -0.0]])
    return trees, rng.choice(values, size=(draw(st.integers(0, 40)), 13))


class TestTreeRouting:
    """``tree.scores`` finds each (query, tree) pair's exit leaf from the
    exit tables; it must give the per-node walk's scores bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n_trees", [1, 7])
    def test_random_trees_match_walk(self, seed, n_trees):
        rng = np.random.Generator(np.random.PCG64(seed))
        trees = [random_tree(rng, int(rng.integers(0, 40))) for _ in range(n_trees)]
        got, want = scored_by_walk(trees, level_queries(rng, 300))
        assert np.array_equal(got, want)

    # (slots per fragment, fragments per block, exits per chunk): the
    # defaults, then small fragments that hop many times, one fragment
    # per block, and a chunk of one query or a few.
    @given(forests_and_queries(), st.sampled_from([
        (64, 128, 1 << 15), (5, 4, 1 << 15), (64, 1, 1 << 15), (64, 128, 7), (3, 2, 50)]))
    def test_matches_walk_on_any_trees(self, sample, sizes):
        trees, queries = sample
        with pytest.MonkeyPatch.context() as patch:
            for name, value in zip(("FRAGMENT_SLOTS", "BLOCK_FRAGMENTS", "CHUNK_EXITS"), sizes):
                patch.setattr(tree_mod, name, value)
            got, want = scored_by_walk(trees, queries)
        assert got.tobytes() == want.tobytes()

    def test_query_equal_to_threshold_goes_left(self):
        trees = [[[3, 0.25, 1, 2, 1, 2], [-1, 0.0, -1, -1, 0, 1], [-1, 0.0, -1, -1, 1, 1]]]
        queries = np.zeros((3, 13))
        queries[:, 3] = [0.25, np.nextafter(0.25, 1.0), np.nextafter(0.25, 0.0)]
        got, want = scored_by_walk(trees, queries)
        assert got.tolist() == want.tolist() == [0.0, 1.0, 0.0]

    def test_lone_leaf_and_deep_chain(self):
        rng = np.random.Generator(np.random.PCG64(40))
        queries = level_queries(rng, 200)
        lone = [[-1, 2.5, -1, -1, 3, 7]]
        for trees in ([lone], [chain_tree(400)], [lone, chain_tree(60), lone]):
            got, want = scored_by_walk(trees, queries)
            assert np.array_equal(got, want)

    def test_sixty_four_leaves_beside_one(self):
        # 65 slots under the root: the 64-leaf side becomes a fragment of
        # its own, on either side.
        rng = np.random.Generator(np.random.PCG64(46))
        wide, lone = balanced_tree(rng, 6), [[-1, 0.0, -1, -1, 1, 2]]
        queries = level_queries(rng, 300)
        for trees in ([split_over(wide, lone)], [split_over(lone, wide)],
                      [split_over(wide, lone), chain_tree(3)]):
            got, want = scored_by_walk(trees, queries)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("lone_leaves", [0, 1, 2, 5, 20])
    def test_lone_leaves_among_deep_chains(self, lone_leaves):
        # Chains of more than 64 leaves hop between fragments, shorter
        # ones and lone leaves do not.
        rng = np.random.Generator(np.random.PCG64(45 + lone_leaves))
        trees = [[[-1, 0.5, -1, -1, 1, 4]]] * lone_leaves + [
            chain_tree(d) for d in (1, 3, 8, 30, 120)]
        trees = [trees[i] for i in rng.permutation(len(trees))]
        got, want = scored_by_walk(trees, level_queries(rng, 300))
        assert np.array_equal(got, want)

    def test_shared_children(self):
        # Both children of every split are the next node: a 400-level
        # ladder, whose 2**400 root-to-leaf paths no exit table could number.
        ladder = [[d % 13, float(d % 7) / 2.0, d + 1, d + 1, d, 2 * d + 1] for d in range(400)]
        ladder.append([-1, 0.0, -1, -1, 1, 3])
        # Two splits whose right child is one subtree (rows 4-6).
        shared = [
            [0, 0.25, 1, 4, 5, 10],
            [1, 0.0, 2, 3, 2, 6],
            [-1, 0.0, -1, -1, 0, 3],
            [2, 1.0, 4, 4, 2, 3],
            [3, 0.0, 5, 6, 3, 4],
            [-1, 0.0, -1, -1, 1, 2],
            [-1, 0.0, -1, -1, 2, 2],
        ]
        for trees in ([ladder], [shared], [shared, ladder, shared]):
            with deadline(1.0):
                with pytest.raises(ValueError, match="^node 0 is not in canonical preorder$"):
                    tree_mod.nodes_in(trees)
                with pytest.raises(MalformedModel, match="node 0 is not in canonical preorder"):
                    load_model(sealed_trees(trees))

    @pytest.mark.parametrize("trees, bad_row", [
        # Row 3 follows a complete tree of rows 0-2.
        ([[[0, 0.5, 1, 2, 1, 2], [-1, 0.0, -1, -1, 0, 1], [-1, 0.0, -1, -1, 1, 1],
           [-1, 0.0, -1, -1, 1, 1]]], 3),
        # Row 0's right child, row 3, comes before the end of its left
        # subtree, rows 1, 2 and 4.
        ([[[0, 0.5, 1, 3, 2, 4], [1, 0.5, 2, 4, 1, 2], [-1, 0.0, -1, -1, 0, 1],
           [-1, 0.0, -1, -1, 1, 2], [-1, 0.0, -1, -1, 1, 1]]], 0),
        # The same, as a forest's second tree.
        ([[[-1, 0.0, -1, -1, 1, 1]],
          [[0, 0.5, 1, 3, 2, 4], [1, 0.5, 2, 4, 1, 2], [-1, 0.0, -1, -1, 0, 1],
           [-1, 0.0, -1, -1, 1, 2], [-1, 0.0, -1, -1, 1, 1]]], 0),
    ], ids=["unreachable-row", "right-child-inside-left-subtree", "in-second-tree"])
    def test_rows_out_of_canonical_preorder(self, trees, bad_row):
        message = f"node {bad_row} is not in canonical preorder"
        with pytest.raises(ValueError, match=f"^{message}$"):
            tree_mod.nodes_in(trees)
        with pytest.raises(MalformedModel, match=message):
            load_model(sealed_trees(trees))

    @pytest.mark.parametrize("n_trees", [1, 3])
    def test_batches_across_the_chunk_size(self, monkeypatch, n_trees):
        monkeypatch.setattr(tree_mod, "CHUNK_EXITS", 40)
        chunk = 40 // n_trees    # each tree is one fragment
        rng = np.random.Generator(np.random.PCG64(41))
        trees = [random_tree(rng, 12) for _ in range(n_trees)]
        queries = level_queries(rng, chunk + 1)
        for n in (0, 1, chunk - 1, chunk, chunk + 1):
            got, want = scored_by_walk(trees, queries[:n])
            assert got.shape == (n,)
            assert np.array_equal(got, want)

    def test_default_chunk_boundary(self):
        rng = np.random.Generator(np.random.PCG64(42))
        trees = [random_tree(rng, 20) for _ in range(16)]
        chunk = tree_mod.CHUNK_EXITS // 16    # each tree is one fragment
        queries = level_queries(rng, chunk + 1)
        nodes = tree_mod.nodes_in(trees)
        want = reference_walk(trees, queries)   # each query's walk is its own
        for n in (0, 1, chunk - 1, chunk, chunk + 1):
            assert np.array_equal(tree_mod.scores(nodes, queries[:n]), want[:n])

    @pytest.mark.parametrize("kind, hp", [
        (ClassifierKind.J48, None), (ClassifierKind.RANDOM_FOREST, ForestParams(trees=10)),
    ], ids=["j48", "forest"])
    def test_trained_models_match_walk(self, kind, hp):
        ds = tie_dataset()
        model = train(kind, ds, hp)
        queries = level_queries(np.random.Generator(np.random.PCG64(43)), 500)
        queries[:250] = ds.x[:250]
        assert np.array_equal(predict_many(model, queries)[1],
                              reference_walk(model_trees(model), queries))


def replay_shaped_forest(rng: np.random.Generator, n_trees: int) -> list[list]:
    """Trees of 34 to 66 leaves, as in the benchmark's replay forest, with
    thresholds drawn from a normal, so that nearly every split has a cut
    of its own."""
    return [random_tree(rng, int(rng.integers(33, 66)), rng.normal(size=1000))
            for _ in range(n_trees)]


class TestExitTables:
    """The exit tables take at most twice the bytes that the six fields of
    the nodes' rows read into: 48 per node, as int64 and float64 columns,
    before ``nodes_in`` stores each column in its smallest type."""

    @staticmethod
    def within_bound(nodes: tree_mod.Nodes) -> bool:
        tables = sum(getattr(nodes, name).nbytes
                     for name in ("exit", "masks", "base", "first_slot")) + sum(
            getattr(block, name).nbytes for block in nodes.blocks
            for name in ("cuts", "cut_start", "counts"))
        return tables <= 2 * 48 * len(nodes)

    @pytest.mark.parametrize("make", [
        lambda rng: replay_shaped_forest(rng, 100),
        lambda rng: [balanced_tree(rng, 12)],
        lambda rng: [chain_tree(400)],
    ], ids=["replay-forest", "balanced-4096-leaves", "400-split-chain"])
    def test_tables_at_most_twice_the_columns(self, make):
        assert self.within_bound(tree_mod.nodes_in(make(np.random.Generator(np.random.PCG64(50)))))

    def test_fragments_split_into_blocks(self):
        # One table over 600 fragments would hold a row per cut of the
        # whole forest for each of them.
        nodes = tree_mod.nodes_in(replay_shaped_forest(np.random.Generator(np.random.PCG64(50)),
                                                       600))
        widths = [block.counts.shape[1] for block in nodes.blocks]
        assert len(widths) > 4 and set(widths[:-1]) == {tree_mod.BLOCK_FRAGMENTS}
        assert self.within_bound(nodes)

    def test_masks_stored_once_per_forest(self):
        # A word per split, a head per (fragment, feature) group with
        # splits, and the one all-ones word of the groups without.
        trees = replay_shaped_forest(np.random.Generator(np.random.PCG64(50)), 600)
        nodes = tree_mod.nodes_in(trees)
        assert len(nodes.blocks) > 4
        assert nodes.base.shape == (N_FEATURES, len(nodes.first_slot))
        split_rows = [row for rows in trees for row in rows if row[0] != -1]
        groups = {(fragment, feature) for fragment in range(len(nodes.first_slot))
                  for feature in range(N_FEATURES) if nodes.base[feature, fragment]}
        assert len(groups) >= sum(len({row[0] for row in rows} - {-1}) for rows in trees)
        assert len(nodes.masks) == len(split_rows) + len(groups) + 1
        assert np.iinfo(nodes.base.dtype).max >= len(nodes.masks) - 1


class TestForest:
    def stub_model(self, leaf_scores):
        """A forest of one-leaf trees, a tree per score."""
        return load_model(sealed_trees([[[-1, 0.0, -1, -1, int(s), 1]] for s in leaf_scores]))

    def test_vote_average_three_quarters(self):
        model = self.stub_model([1, 1, 1, 0])
        label, score = predict_one(model, np.zeros(13))
        assert score == 0.75
        assert label == 1

    def test_half_vote_is_ransomware(self):
        model = self.stub_model([1, 1, 0, 0])
        label, score = predict_one(model, np.zeros(13))
        assert score == 0.5
        assert label == 1

    def test_minority_vote_is_benign(self):
        model = self.stub_model([1, 0, 0, 0])
        assert predict_one(model, np.zeros(13))[0] == 0

    def test_single_tree_no_bootstrap_equals_j48(self):
        ds = gaussian_dataset(n_pos=25, n_neg=25, seed=14)
        solo = train(
            ClassifierKind.RANDOM_FOREST, ds,
            ForestParams(trees=1, bootstrap=False, features_per_split=13),
        )
        plain = train(ClassifierKind.J48, ds)
        rng = np.random.Generator(np.random.PCG64(15))
        queries = rng.uniform(-1, 2, size=(100, 13))
        assert np.array_equal(
            predict_many(solo, queries)[1], predict_many(plain, queries)[1]
        )

    def test_per_tree_feature_records(self):
        ds = gaussian_dataset(n_pos=25, n_neg=25, seed=16)
        model = train(ClassifierKind.RANDOM_FOREST, ds, ForestParams(trees=10))
        params = model_params(model)
        features_used = params["features_used"]
        assert len(features_used) == 10
        for used, rows in zip(features_used, params["trees"]):
            nodes = [TreeNode(*row) for row in rows]
            assert used == sorted({n.feature for n in nodes if n.feature >= 0})
            assert all(0 <= f < 13 for f in used)

    def test_seed_changes_forest(self):
        ds = gaussian_dataset(n_pos=25, n_neg=25, seed=17)
        a = train(ClassifierKind.RANDOM_FOREST, ds, ForestParams(seed=1))
        b = train(ClassifierKind.RANDOM_FOREST, ds, ForestParams(seed=2))
        assert save_model(a) != save_model(b)

    def test_bootstrap_resamples(self):
        ds = gaussian_dataset(n_pos=25, n_neg=25, seed=18)
        on = train(ClassifierKind.RANDOM_FOREST, ds,
                   ForestParams(trees=3, bootstrap=True))
        off = train(ClassifierKind.RANDOM_FOREST, ds,
                    ForestParams(trees=3, bootstrap=False))
        assert save_model(on) != save_model(off)


class TestSvm:
    def test_separable_data_fit(self):
        ds = gaussian_dataset(n_pos=60, n_neg=60, seed=19)
        model = train(ClassifierKind.SVM, ds, SvmParams(iterations=5000))
        labels01, scores = predict_many(model, ds.x)
        assert (labels01 == ds.y).mean() == 1.0
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_score_monotone_in_decision(self):
        ds = gaussian_dataset(n_pos=30, n_neg=30, seed=21)
        model = train(ClassifierKind.SVM, ds, SvmParams(iterations=2000))
        from rwdetect.features import apply_scaler
        queries = gaussian_dataset(n_pos=8, n_neg=8, seed=22).x
        scaled = apply_scaler(model.scaler, queries)
        decisions = scaled @ model.state["weights"] + model.state["bias"]
        _, scores = predict_many(model, queries)
        order = np.argsort(decisions)
        assert np.all(np.diff(scores[order]) >= 0)
        assert np.array_equal(scores >= 0.5, decisions >= 0.0)

    def test_deterministic_without_seed_use(self):
        ds = gaussian_dataset(n_pos=15, n_neg=15, seed=23)
        a = train(ClassifierKind.SVM, ds, SvmParams(iterations=500, seed=1))
        b = train(ClassifierKind.SVM, ds, SvmParams(iterations=500, seed=2))
        # full-batch subgradient descent never draws randomness
        assert np.array_equal(a.state["weights"], b.state["weights"])


class TestBayes:
    def two_cluster_rows(self):
        return [
            (vec13(f0=4.0), Label.RANSOMWARE),
            (vec13(f0=6.0), Label.RANSOMWARE),
            (vec13(f0=0.0), Label.BENIGN),
            (vec13(f0=2.0), Label.BENIGN),
        ]

    def test_symmetric_query_is_exactly_half(self):
        model = train(ClassifierKind.BAYES, toy_dataset(self.two_cluster_rows()))
        label, score = predict_one(model, vec13(f0=3.0))
        assert score == 0.5
        assert label == 1

    def test_sides_of_the_midpoint(self):
        model = train(ClassifierKind.BAYES, toy_dataset(self.two_cluster_rows()))
        assert predict_one(model, vec13(f0=5.0))[1] > 0.9
        assert predict_one(model, vec13(f0=1.0))[1] < 0.1

    def test_hand_computed_posterior(self):
        model = train(ClassifierKind.BAYES, toy_dataset(self.two_cluster_rows()))
        state = model.state
        x = 4.2
        eps = 1e-9 * 5.0     # largest overall variance is feature 0's: 5.0
        var = 1.0 + eps
        # identical priors and identical constant-feature terms cancel
        ll_pos = -0.5 * (math.log(2 * math.pi * var) + (x - 5.0) ** 2 / var)
        ll_neg = -0.5 * (math.log(2 * math.pi * var) + (x - 1.0) ** 2 / var)
        expected = 1.0 / (1.0 + math.exp(ll_neg - ll_pos))
        assert predict_one(model, vec13(f0=x))[1] == pytest.approx(expected, abs=1e-9)
        assert state["var_pos"][0] == pytest.approx(var)

    def test_population_variance_used(self):
        model = train(ClassifierKind.BAYES, toy_dataset(self.two_cluster_rows()))
        # {4, 6}: population variance 1.0, sample variance would be 2.0
        assert model.state["var_pos"][0] == pytest.approx(1.0, abs=1e-6)

    def test_prior_shifts_posterior(self):
        rows = self.two_cluster_rows() + [
            (vec13(f0=0.5), Label.BENIGN),
            (vec13(f0=1.5), Label.BENIGN),
        ]
        model = train(ClassifierKind.BAYES, toy_dataset(rows))
        assert model.state["log_prior_neg"] > model.state["log_prior_pos"]

    def test_all_constant_features_survive(self):
        rows = [
            (np.zeros(13), Label.BENIGN),
            (np.zeros(13), Label.BENIGN),
            (np.ones(13), Label.RANSOMWARE),
            (np.ones(13), Label.RANSOMWARE),
        ]
        model = train(ClassifierKind.BAYES, toy_dataset(rows))
        assert predict_one(model, np.ones(13) * 0.9)[0] == 1
        assert predict_one(model, np.ones(13) * 0.1)[0] == 0

    def underflow_model(self):
        """30 ransomware and 10 benign rows whose feature 5 is constant,
        trained without smoothing: feature 5's variance is the floor."""
        x = np.random.Generator(np.random.PCG64(5)).normal(size=(40, 13))
        x[:, 5] = 3.0
        y = np.r_[np.ones(30), np.zeros(10)]
        return train(ClassifierKind.BAYES, Dataset(x, y), BayesParams(var_smoothing=0.0))

    def assert_prior_scores(self, model, queries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = predict_many(model, queries)[1]
        assert np.isfinite(scores).all()
        assert ((scores >= 0.0) & (scores <= 1.0)).all()
        assert scores == pytest.approx(0.75)    # the positive prior alone

    def test_both_densities_underflow_at_the_variance_floor(self):
        model = self.underflow_model()
        queries = np.random.Generator(np.random.PCG64(6)).normal(size=(5, 13))
        queries[:, 5] = 10.0
        self.assert_prior_scores(model, queries)

    def test_both_densities_underflow_at_subnormal_variances(self):
        model = self.underflow_model()
        model.state["var_pos"][0] = model.state["var_neg"][0] = 1e-320
        queries = np.random.Generator(np.random.PCG64(7)).normal(size=(64, 13))
        queries[:, 0] += 5.0    # off both class means of feature 0
        self.assert_prior_scores(model, queries)


class TestSharedContract:
    @pytest.fixture(params=ALL_KINDS, ids=lambda k: k.value)
    def kind(self, request):
        return request.param

    def fast_params(self, kind):
        if kind is ClassifierKind.SVM:
            return SvmParams(iterations=200)
        if kind is ClassifierKind.MLP:
            return MlpParams(epochs=30)
        if kind is ClassifierKind.RANDOM_FOREST:
            return ForestParams(trees=5)
        return default_hyperparams(kind)

    def test_single_class_rejected(self, kind):
        ds = Dataset(np.arange(13, dtype=float) + np.arange(6)[:, None],
                     np.zeros(6))
        with pytest.raises(SingleClassDataset):
            train(kind, ds, self.fast_params(kind))

    def test_empty_dataset_rejected(self, kind):
        with pytest.raises(EmptyDataset):
            train(kind, Dataset(np.empty((0, 13)), []), self.fast_params(kind))

    def test_non_finite_features_rejected(self, kind):
        ds = gaussian_dataset(n_pos=4, n_neg=4, seed=24)
        ds.x[2, 5] = np.nan
        with pytest.raises(NonFiniteFeature):
            train(kind, ds, self.fast_params(kind))

    def test_predict_validates_queries(self, kind):
        ds = gaussian_dataset(n_pos=6, n_neg=6, seed=25)
        model = train(kind, ds, self.fast_params(kind))
        with pytest.raises(DimensionMismatch):
            predict_one(model, np.zeros(12))
        with pytest.raises(DimensionMismatch):
            predict_many(model, np.zeros((2, 14)))
        bad = np.zeros(13)
        bad[3] = np.inf
        with pytest.raises(NonFiniteFeature):
            predict_one(model, bad)

    def test_scores_bounded_and_consistent(self, kind):
        ds = gaussian_dataset(n_pos=20, n_neg=20, seed=26)
        model = train(kind, ds, self.fast_params(kind))
        labels01, scores = predict_many(model, ds.x)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        assert np.array_equal(labels01, (scores >= 0.5).astype(np.uint8))
        # batch and single-row matmuls may differ in the last bit
        label, score = predict_one(model, ds.x[0])
        assert score == pytest.approx(scores[0], rel=1e-12, abs=1e-15)
        assert label == (score >= 0.5)

    # MLP scores through BLAS matmuls, whose kernel, and so summation order,
    # depends on the batch shape: its scores can differ in the last bits with
    # batch size (ROADMAP item 13), so it is left out here.
    @pytest.mark.parametrize("batch_kind", [ClassifierKind.KNN, ClassifierKind.J48,
                                            ClassifierKind.RANDOM_FOREST,
                                            ClassifierKind.SVM,
                                            ClassifierKind.BAYES], ids=lambda k: k.value)
    def test_scores_independent_of_batching(self, batch_kind):
        model = train(batch_kind, gaussian_dataset(n_pos=150, n_neg=150, seed=28))
        queries = gaussian_dataset(n_pos=200, n_neg=200, seed=29, spread=0.25).x
        together = predict_many(model, queries)[1]
        one_by_one = np.concatenate([predict_many(model, row[None])[1] for row in queries])
        bounds = np.cumsum([1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144])
        uneven = np.concatenate([predict_many(model, part)[1]
                                 for part in np.split(queries, bounds)])
        assert np.array_equal(together, one_by_one)
        assert np.array_equal(together, uneven)

    def test_scaler_presence(self, kind):
        ds = gaussian_dataset(n_pos=6, n_neg=6, seed=27)
        model = train(kind, ds, self.fast_params(kind))
        if kind in SCALED_KINDS:
            assert model.scaler is not None
            assert model.scaler.fitted_on == model.train_fingerprint
        else:
            assert model.scaler is None

    def test_training_time_recorded(self, kind):
        ds = gaussian_dataset(n_pos=6, n_neg=6, seed=28)
        model = train(kind, ds, self.fast_params(kind))
        assert model.training_time >= 0.0
        assert math.isfinite(model.training_time)

    def test_fingerprint_matches_training_data(self, kind):
        from rwdetect.features import dataset_fingerprint
        ds = gaussian_dataset(n_pos=6, n_neg=6, seed=29)
        model = train(kind, ds, self.fast_params(kind))
        assert model.train_fingerprint == dataset_fingerprint(ds)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_train_builds_its_state_with_the_model_file_reader(kind, monkeypatch):
    """``train`` builds a state as ``load_model`` does, from the ``params``
    that ``fit`` returns: one ``tree.nodes_in`` per tree fit."""
    calls = Counter()

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(tree_mod, "nodes_in", counted("nodes_in", tree_mod.nodes_in))
    train(kind, gaussian_dataset(n_pos=10, n_neg=10, seed=33),
          TestSharedContract().fast_params(kind))
    assert calls == Counter(
        nodes_in=int(kind in (ClassifierKind.J48, ClassifierKind.RANDOM_FOREST)))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_train_seals_the_model_file_once(kind, monkeypatch):
    """``train`` writes the model file once; ``save_model`` returns it and
    ``model_fingerprint`` hashes it, neither writing it again."""
    seals = []
    seal = model_io.seal
    monkeypatch.setattr(model_io, "seal", lambda *args: seals.append(args) or seal(*args))
    model = train(kind, gaussian_dataset(n_pos=10, n_neg=10, seed=33),
                  TestSharedContract().fast_params(kind))
    assert len(seals) == 1
    blob = save_model(model)
    assert blob == model.blob == save_model(model)
    assert model_fingerprint(model) == hashlib.sha256(blob).hexdigest()
    assert len(seals) == 1


#: The names the package docstring's contract asks of each family module.
FAMILY_CONTRACT = ("ALIAS", "SCALED", "Params", "CHECKS", "fit", "params_in", "scores", "KEYS")


def test_every_family_keeps_the_contract():
    """Each ``base.FAMILIES`` module defines every name of the contract in
    the package docstring, and no ``*_out`` writer of a state back to
    ``params``: a model keeps its file instead."""
    assert all(f"``{name}``" in classifiers.__doc__ or f"``{name}(" in classifiers.__doc__
               for name in FAMILY_CONTRACT)
    for family in FAMILIES.values():
        assert [name for name in FAMILY_CONTRACT if not hasattr(family, name)] == []
        assert [name for name in vars(family) if name.endswith("_out")] == []


#: Hyperparameters that pass ``validate_hyperparams`` but fit a state the
#: model file cannot hold: SVM's lambda ``1 / (c * n)`` is 0 or infinite,
#: the MLP's weights diverge, Bayes variances overflow.  Id -> (kind,
#: hyperparameters, what the error says).
UNLOADABLE_FITS = {
    "svm-huge-c": (ClassifierKind.SVM, SvmParams(c=1e308, iterations=50),
                   "c=1e+308 gives the SVM no finite positive lambda"),
    "svm-tiny-c": (ClassifierKind.SVM, SvmParams(c=1e-320, iterations=50),
                   "c=1e-320 gives the SVM no finite positive lambda"),
    "mlp-huge-rate": (ClassifierKind.MLP, MlpParams(learning_rate=1e308, epochs=25),
                      "MultilayerPerceptron fitted no loadable model: non-finite number"),
    "bayes-huge-smoothing": (ClassifierKind.BAYES, BayesParams(var_smoothing=1e308),
                             "BayesNetwork fitted no loadable model: non-finite number"),
}


@pytest.mark.parametrize("kind,hp,message", UNLOADABLE_FITS.values(), ids=UNLOADABLE_FITS)
def test_fit_the_model_file_cannot_hold_is_invalid(kind, hp, message):
    ds = gaussian_dataset(n_pos=20, n_neg=20, seed=30)
    ds = Dataset(ds.x * 100.0, ds.y)    # feature variances above 1
    with pytest.raises(InvalidHyperparams, match=re.escape(message)):
        train(kind, ds, hp)


#: Each float hyperparameter: (kind, field, hyperparameters fast to fit).
FLOAT_HYPERPARAMS = [
    (ClassifierKind.SVM, "c", SvmParams(iterations=200)),
    (ClassifierKind.MLP, "learning_rate", MlpParams(epochs=25)),
    (ClassifierKind.BAYES, "var_smoothing", BayesParams()),
]


@pytest.mark.parametrize("kind,key,hp", FLOAT_HYPERPARAMS, ids=lambda v: getattr(v, "value", v))
def test_int_for_a_float_hyperparam_seals_as_that_float(kind, key, hp):
    # An equal int once sealed as ``"c":1`` where the float sealed ``"c":1.0``.
    ds = gaussian_dataset(n_pos=12, n_neg=12, seed=31)
    as_int, as_float = (train(kind, ds, dataclasses.replace(hp, **{key: value}))
                        for value in (1, 1.0))
    assert type(getattr(as_int.hyperparams, key)) is float
    assert save_model(as_int) == save_model(as_float)


@pytest.mark.parametrize("digits", [401, 5001])
@pytest.mark.parametrize("kind,key,hp", FLOAT_HYPERPARAMS, ids=lambda v: getattr(v, "value", v))
def test_int_past_the_float_range_is_invalid(kind, key, hp, digits):
    # Once an OverflowError; past 4,300 digits the int cannot even be repr'd.
    hp = dataclasses.replace(hp, **{key: 10 ** (digits - 1)})
    with pytest.raises(InvalidHyperparams, match=f"^{key} is an int past the float range$"):
        train(kind, gaussian_dataset(n_pos=3, n_neg=3, seed=1), hp)


class TestZeroAddresses:
    def test_predictions_ignore_addresses(self):
        ds = address_only_dataset()
        model = train(ClassifierKind.KNN, ds, KnnParams(k=1),
                      zero_addresses=True)
        q1 = ds.x[0].copy()
        q2 = q1.copy()
        q2[1], q2[3] = 0.0, 12345.0
        assert predict_one(model, q1)[1] == predict_one(model, q2)[1]

    def test_without_flag_addresses_dominate(self):
        ds = address_only_dataset()
        model = train(ClassifierKind.KNN, ds, KnnParams(k=1))
        q_pos = ds.x[0].copy()
        q_neg = q_pos.copy()
        q_neg[1], q_neg[3] = 100_000.0, 200_000.0   # the benign address block
        assert predict_one(model, q_pos)[0] == 1
        assert predict_one(model, q_neg)[0] == 0

    def test_flag_recorded_on_model(self):
        ds = gaussian_dataset(n_pos=6, n_neg=6, seed=30)
        model = train(ClassifierKind.J48, ds, zero_addresses=True)
        assert model.zero_addresses

    def test_fingerprint_is_pre_zeroing(self):
        from rwdetect.features import dataset_fingerprint
        ds = address_only_dataset()
        model = train(ClassifierKind.J48, ds, zero_addresses=True)
        assert model.train_fingerprint == dataset_fingerprint(ds)
