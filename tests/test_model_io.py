"""Model container format: round trips, tampering, and error precedence."""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import re
import struct
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwdetect.classifiers import (
    ALL_KINDS,
    KIND_ALIASES,
    ClassifierKind,
    ForestParams,
    KnnParams,
    MlpParams,
    SvmParams,
    load_model,
    model_fingerprint,
    predict_many,
    read_model,
    save_model,
    train,
)
from rwdetect.classifiers import model_io
from rwdetect.classifiers.base import FAMILIES, MAX_COUNT
from rwdetect.classifiers.model_io import MODEL_FORMAT_VERSION, MODEL_MAGIC
from rwdetect.errors import ChecksumFailure, MalformedModel, VersionMismatch
from rwdetect.features import Dataset

from conftest import (
    INTEGER_HYPERPARAMS,
    SCORING_HAZARDS,
    address_only_dataset,
    gaussian_dataset,
)

FAST = {
    ClassifierKind.MLP: MlpParams(epochs=25),
    ClassifierKind.SVM: SvmParams(iterations=200),
    ClassifierKind.RANDOM_FOREST: ForestParams(trees=4),
}


def quick_model(kind, seed=31, **train_kw):
    ds = gaussian_dataset(n_pos=12, n_neg=12, seed=seed)
    return train(kind, ds, FAST.get(kind), **train_kw)


def container(payload: bytes, version: int = MODEL_FORMAT_VERSION) -> bytes:
    head = MODEL_MAGIC + struct.pack(">HI", version, len(payload)) + payload
    return head + hashlib.sha256(head).digest()


def valid_payload_dict(kind=ClassifierKind.KNN, model=None) -> dict:
    blob = save_model(model or quick_model(kind))
    start = len(MODEL_MAGIC) + 6
    (length,) = struct.unpack(">I", blob[start - 4:start])
    return json.loads(blob[start:start + length])


TREE_KINDS = (ClassifierKind.J48, ClassifierKind.RANDOM_FOREST)


def first_tree(payload: dict) -> list:
    """The node rows of a J48 payload, or of a forest payload's first tree."""
    return tree_rows(payload)[0]


def tree_rows(payload: dict) -> list[list]:
    """The node rows of each tree of a J48 or forest payload."""
    params = payload["params"]
    return [params["nodes"]] if "nodes" in params else params["trees"]


def sealed(payload: dict) -> bytes:
    """A container around the payload as the writer formats it."""
    return container(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_bytes_stable_and_predictions_exact(self, kind):
        model = quick_model(kind)
        blob = save_model(model)
        loaded = load_model(blob)
        assert loaded.blob == save_model(loaded) == blob
        rng = np.random.Generator(np.random.PCG64(32))
        queries = rng.uniform(-2, 3, size=(50, 13))
        assert np.array_equal(
            predict_many(model, queries)[1], predict_many(loaded, queries)[1]
        )

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_retrain_is_byte_identical(self, kind):
        assert save_model(quick_model(kind)) == save_model(quick_model(kind))

    def test_training_time_not_serialized(self, kind=ClassifierKind.MLP):
        model = quick_model(kind)
        assert model.training_time > 0.0
        loaded = load_model(save_model(model))
        assert loaded.training_time == 0.0
        assert b"training_time" not in save_model(model)

    def test_metadata_preserved(self):
        model = quick_model(ClassifierKind.SVM)
        loaded = load_model(save_model(model))
        assert loaded.kind is ClassifierKind.SVM
        assert loaded.hyperparams == model.hyperparams
        assert loaded.train_fingerprint == model.train_fingerprint
        assert np.array_equal(loaded.scaler.mins, model.scaler.mins)
        assert np.array_equal(loaded.scaler.maxs, model.scaler.maxs)
        assert loaded.scaler.fitted_on == model.scaler.fitted_on

    @pytest.mark.parametrize("kind", TREE_KINDS, ids=lambda k: k.value)
    def test_leaf_thresholds_round_trip(self, kind):
        # In memory a leaf routes to itself, whatever its threshold; the
        # file's leaf threshold is kept as read and written back.
        payload = valid_payload_dict(kind)
        for rows in tree_rows(payload):
            for i, row in enumerate(rows):
                if row[0] == -1:
                    row[1] = 0.5 + i
        blob = sealed(payload)
        loaded = load_model(blob)
        assert save_model(loaded) == blob
        assert model_fingerprint(loaded) == hashlib.sha256(blob).hexdigest()
        queries = np.random.Generator(np.random.PCG64(33)).uniform(-1, 2, size=(50, 13))
        assert np.array_equal(predict_many(loaded, queries)[1],
                              predict_many(quick_model(kind), queries)[1])

    def test_unscaled_kind_keeps_null_scaler(self):
        loaded = load_model(save_model(quick_model(ClassifierKind.J48)))
        assert loaded.scaler is None

    def test_zero_address_flag_round_trips(self):
        ds = address_only_dataset()
        model = train(ClassifierKind.KNN, ds, KnnParams(k=1),
                      zero_addresses=True)
        loaded = load_model(save_model(model))
        assert loaded.zero_addresses
        q = ds.x[0].copy()
        swapped = q.copy()
        swapped[1], swapped[3] = 9.0, 9.0
        assert (
            predict_many(loaded, q[None, :])[1][0]
            == predict_many(loaded, swapped[None, :])[1][0]
        )

    def test_file_helpers(self, tmp_path):
        model = quick_model(ClassifierKind.BAYES)
        path = tmp_path / "bayes.rwdmodel"
        path.write_bytes(save_model(model))
        loaded = read_model(path)
        assert save_model(loaded) == save_model(model)


class TestFingerprint:
    def test_is_sha256_of_serialized_bytes(self):
        model = quick_model(ClassifierKind.J48)
        expected = hashlib.sha256(save_model(model)).hexdigest()
        assert model_fingerprint(model) == expected

    def test_differs_across_kinds(self):
        prints = {model_fingerprint(quick_model(k)) for k in ALL_KINDS}
        assert len(prints) == len(ALL_KINDS)

    def test_loaded_model_takes_the_hash_of_its_file(self, monkeypatch):
        blob = save_model(quick_model(ClassifierKind.RANDOM_FOREST))
        model = load_model(blob)
        monkeypatch.setattr(model_io, "save_model", None)   # not serialized again
        assert model_fingerprint(model) == hashlib.sha256(blob).hexdigest()

    def test_respaced_file_loads_with_its_own_hash(self):
        # A sealed file whose JSON is not canonical is kept as read: it
        # saves as itself, and its fingerprint is the hash of those bytes.
        payload = valid_payload_dict(ClassifierKind.SVM)
        blob = container(json.dumps(payload, indent=2).encode())
        assert blob != sealed(payload)
        model = load_model(blob)
        assert save_model(model) == blob
        assert model_fingerprint(model) == hashlib.sha256(save_model(model)).hexdigest()


class TestTampering:
    def test_wrong_magic(self):
        blob = save_model(quick_model(ClassifierKind.KNN))
        with pytest.raises(MalformedModel):
            load_model(b"XWDMODEL" + blob[8:])

    def test_empty_input_reads_as_truncation(self):
        with pytest.raises(ChecksumFailure):
            load_model(b"")

    def test_magic_prefix_reads_as_truncation(self):
        with pytest.raises(ChecksumFailure):
            load_model(MODEL_MAGIC[:5])
        with pytest.raises(ChecksumFailure):
            load_model(MODEL_MAGIC)

    def test_garbage_bytes(self):
        with pytest.raises(MalformedModel):
            load_model(b"\x00" * 64)

    def test_short_input_without_the_magic_prefix(self):
        with pytest.raises(MalformedModel, match="bad model magic"):
            load_model(b"abc")

    def test_truncated_before_the_length(self):
        head = MODEL_MAGIC + struct.pack(">H", MODEL_FORMAT_VERSION) + b"\x00\x00"
        assert len(head) == 12
        with pytest.raises(ChecksumFailure, match="truncated before the length"):
            load_model(head)

    def test_unknown_version(self):
        payload = json.dumps(valid_payload_dict()).encode()
        with pytest.raises(VersionMismatch):
            load_model(container(payload, version=2))

    def test_version_checked_before_checksum(self):
        payload = json.dumps(valid_payload_dict()).encode()
        blob = bytearray(container(payload, version=3))
        blob[-1] ^= 0xFF
        with pytest.raises(VersionMismatch):
            load_model(bytes(blob))

    def test_flipped_payload_byte(self):
        blob = bytearray(save_model(quick_model(ClassifierKind.SVM)))
        blob[len(blob) // 2] ^= 0x01
        with pytest.raises(ChecksumFailure):
            load_model(bytes(blob))

    def test_truncated_tail(self):
        blob = save_model(quick_model(ClassifierKind.MLP))
        with pytest.raises(ChecksumFailure):
            load_model(blob[:-1])

    def test_appended_junk(self):
        blob = save_model(quick_model(ClassifierKind.KNN))
        with pytest.raises(ChecksumFailure):
            load_model(blob + b"!")

    def test_invalid_json_payload(self):
        with pytest.raises(MalformedModel):
            load_model(container(b"{not json"))

    #: Sealed JSON that ``json.loads`` cannot parse: nested past the
    #: recursion limit, and an integer past Python's digit limit.
    @pytest.mark.parametrize("payload", [b"[" * 100_000, b"9" * 5_000],
                             ids=["too-deep", "huge-integer"])
    def test_unparseable_json_payload(self, payload):
        with pytest.raises(MalformedModel, match="not valid JSON"):
            load_model(container(payload))

    def test_json_wrong_shape(self):
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps([1, 2, 3]).encode()))

    def test_missing_key(self):
        payload = valid_payload_dict()
        del payload["params"]
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("key,value", [
        ("zero_addresses", "no"), ("zero_addresses", 1), ("zero_addresses", None),
        ("train_fingerprint", 5), ("train_fingerprint", None),
        ("fitted_on", 5), ("fitted_on", None),
    ])
    def test_top_level_field_of_wrong_type(self, key, value):
        # bool("no") is True and str(5) writes back "5": neither may load
        payload = valid_payload_dict(ClassifierKind.KNN)
        (payload["scaler"] if key == "fitted_on" else payload)[key] = value
        with pytest.raises(MalformedModel, match=f"{key} must be"):
            load_model(sealed(payload))

    @pytest.mark.parametrize("level", ["top", "scaler"])
    def test_unknown_key(self, level):
        payload = valid_payload_dict(ClassifierKind.SVM)
        (payload if level == "top" else payload[level])["extra"] = 1.0
        with pytest.raises(MalformedModel, match="unknown key 'extra'"):
            load_model(sealed(payload))

    @pytest.mark.parametrize("kind,key", [
        (kind, f.name) for kind in ALL_KINDS for f in fields(FAMILIES[kind].Params)
    ], ids=lambda v: getattr(v, "value", v))
    def test_missing_hyperparam_key_of_each_family(self, kind, key):
        # A missing key would load as its default and write back other bytes.
        payload = copy.deepcopy(fitted_payload(kind))
        del payload["hyperparams"][key]
        with pytest.raises(MalformedModel, match=f"missing key '{key}'"):
            load_model(sealed(payload))

    @pytest.mark.parametrize("level", ["top", "params", "scaler"])
    def test_missing_key_is_named(self, level):
        payload = valid_payload_dict(ClassifierKind.SVM)
        box = payload if level == "top" else payload[level]
        key = min(box)
        del box[key]
        with pytest.raises(MalformedModel, match=f"missing key '{key}'"):
            load_model(sealed(payload))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_unknown_params_key_of_each_family(self, kind):
        payload = valid_payload_dict(kind)
        assert sorted(payload["params"]) == sorted(FAMILIES[kind].KEYS)
        payload["params"]["extra"] = []
        with pytest.raises(MalformedModel, match="unknown key 'extra'"):
            load_model(sealed(payload))

    def test_unknown_kind_name(self):
        payload = valid_payload_dict()
        payload["kind"] = "GradientBoosting"
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    def test_invalid_hyperparam_value(self):
        payload = valid_payload_dict(ClassifierKind.KNN)
        payload["hyperparams"]["k"] = 0
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("k", [2.5, True], ids=["float", "bool"])
    def test_hyperparam_of_wrong_type(self, k):
        payload = valid_payload_dict(ClassifierKind.KNN)
        payload["hyperparams"]["k"] = k
        with pytest.raises(MalformedModel, match="k must be int"):
            load_model(container(json.dumps(payload).encode()))

    def test_int_stands_in_for_float_hyperparam(self):
        payload = valid_payload_dict(ClassifierKind.SVM)
        payload["hyperparams"]["c"] = 1
        assert load_model(container(json.dumps(payload).encode())).hyperparams.c == 1

    def test_int_past_the_float_range_hyperparam(self):
        # A 401-digit c once loaded, though every float hyperparameter is finite.
        payload = valid_payload_dict(ClassifierKind.SVM)
        payload["hyperparams"]["c"] = 10 ** 400
        with pytest.raises(MalformedModel, match="c is an int past the float range"):
            load_model(sealed(payload))

    def test_wrong_param_shape(self):
        payload = valid_payload_dict(ClassifierKind.KNN)
        payload["params"]["points"] = [[1.0, 2.0]]    # 2 columns, not 13
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    def test_knn_labels_and_points_disagree(self):
        payload = valid_payload_dict(ClassifierKind.KNN)
        payload["params"]["labels"] = payload["params"]["labels"][:-1]
        with pytest.raises(MalformedModel, match="labels and points disagree"):
            load_model(sealed(payload))

    def test_knn_point_width_checked_when_labels_match(self):
        payload = valid_payload_dict(ClassifierKind.KNN)
        payload["hyperparams"]["k"] = 1
        payload["params"]["points"] = [[1.0, 2.0]]    # 2 columns, not 13
        payload["params"]["labels"] = [1]
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    def test_knn_fewer_points_than_k(self):
        payload = valid_payload_dict(ClassifierKind.KNN)
        payload["hyperparams"]["k"] = 3
        payload["params"]["points"] = payload["params"]["points"][:2]
        payload["params"]["labels"] = payload["params"]["labels"][:2]
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("kind", TREE_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("column,value", [
        (2, 0), (3, 0), (2, 10**6), (3, 10**6), (0, 40), (0, -1),
    ], ids=["left-is-itself", "right-is-itself", "left-past-end", "right-past-end",
            "feature-40", "leaf-with-children"])
    def test_tree_root_fault(self, kind, column, value):
        payload = valid_payload_dict(kind)
        root = first_tree(payload)[0]
        assert root[0] >= 0                     # the root splits
        root[column] = value
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("kind", TREE_KINDS, ids=lambda k: k.value)
    def test_tree_leaf_with_no_samples(self, kind):
        payload = valid_payload_dict(kind)
        nodes = first_tree(payload)
        leaf = next(row for row in nodes if row[0] == -1)
        leaf[4] = leaf[5] = 0
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("kind,key,value", [
        (ClassifierKind.SVM, "weights", [1.0, 2.0]),
        (ClassifierKind.BAYES, "var_pos", [-1.0] * 13),
        (ClassifierKind.BAYES, "var_pos", [0.0] * 13),
    ], ids=["svm-2-weights", "bayes-negative-variances", "bayes-zero-variances"])
    def test_bad_class_vector(self, kind, key, value):
        payload = valid_payload_dict(kind)
        payload["params"][key] = value
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    def test_bayes_vectors_need_13_values(self):
        payload = valid_payload_dict(ClassifierKind.BAYES)
        for key in ("mean_pos", "var_pos", "mean_neg", "var_neg"):
            payload["params"][key] = payload["params"][key][:3]
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    def test_mlp_w1_needs_13_rows(self):
        payload = valid_payload_dict(ClassifierKind.MLP)
        payload["params"]["w1"] = payload["params"]["w1"][:3]
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    def test_forest_without_trees(self):
        payload = valid_payload_dict(ClassifierKind.RANDOM_FOREST)
        payload["params"]["trees"] = []
        payload["params"]["features_used"] = []
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("kind,key,value,message", [
        (ClassifierKind.MLP, "hidden_units", 3,
         "w1 has 16 hidden units, hyperparameters say 3"),
        (ClassifierKind.RANDOM_FOREST, "trees", 7, "4 trees, hyperparameters say 7"),
        (ClassifierKind.RANDOM_FOREST, "trees", 2 ** 64,
         f"trees must be at most {MAX_COUNT}"),
    ], ids=["mlp-hidden-units", "forest-trees", "forest-trees-2**64"])
    def test_hyperparams_must_match_the_state(self, kind, key, value, message):
        # Training never writes these: its state is built from the same hyperparameters.
        payload = valid_payload_dict(kind)
        payload["hyperparams"][key] = value
        with pytest.raises(MalformedModel, match=re.escape(message)):
            load_model(sealed(payload))

    @pytest.mark.parametrize("kind,key", INTEGER_HYPERPARAMS,
                             ids=lambda v: getattr(v, "value", v))
    def test_integer_hyperparam_above_the_bound(self, kind, key):
        payload = copy.deepcopy(fitted_payload(kind))
        payload["hyperparams"][key] = MAX_COUNT + 1
        with pytest.raises(MalformedModel, match=f"{key} must be at most {MAX_COUNT}"):
            load_model(sealed(payload))

    @pytest.mark.parametrize("fault", ["entry-changed", "entry-dropped"])
    def test_forest_features_used_must_match_trees(self, fault):
        payload = valid_payload_dict(ClassifierKind.RANDOM_FOREST)
        used = payload["params"]["features_used"]
        if fault == "entry-changed":
            used[0] = sorted(set(range(13)) - set(used[0]))  # not what tree 0 splits on
        else:
            del used[-1]
        with pytest.raises(MalformedModel, match="features_used"):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("key,value", [
        ("mins", [0.0] * 3), ("maxs", [1.0] * 14), ("mins", [1e9] * 13),
    ], ids=["3-mins", "14-maxs", "mins-above-maxs"])
    def test_bad_scaler(self, key, value):
        payload = valid_payload_dict(ClassifierKind.MLP)
        payload["scaler"][key] = value
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("kind,path", [
        (ClassifierKind.MLP, ("params", "b2", 0)),
        (ClassifierKind.MLP, ("params", "w1", 0, 0)),
        (ClassifierKind.MLP, ("scaler", "maxs", 0)),
        (ClassifierKind.MLP, ("hyperparams", "learning_rate")),
        (ClassifierKind.SVM, ("params", "bias")),
        (ClassifierKind.KNN, ("params", "points", 0, 0)),
        (ClassifierKind.BAYES, ("params", "mean_pos", 0)),
        (ClassifierKind.BAYES, ("params", "log_prior_neg")),
        (ClassifierKind.J48, ("params", "nodes", 0, 1)),
        (ClassifierKind.J48, ("params", "nodes", 0, 0)),
        (ClassifierKind.RANDOM_FOREST, ("params", "trees", 0, 0, 1)),
    ], ids=lambda v: v.value if isinstance(v, ClassifierKind) else "-".join(map(str, v)))
    @pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number(self, kind, path, number):
        payload = valid_payload_dict(kind)
        *parents, last = path
        target = payload
        for step in parents:
            target = target[step]
        target[last] = number
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("kind,edits", [
        (ClassifierKind.J48, {("nodes", 0, 0): 0.7, ("nodes", 0, 2): 1.5}),
        (ClassifierKind.J48, {("nodes", 0, 4): True}),
        (ClassifierKind.KNN, {("labels", 0): 1.7}),
        (ClassifierKind.KNN, {("labels", 0): True}),
    ], ids=["j48-fractional-feature-and-left", "j48-bool-pos",
            "knn-fractional-label", "knn-bool-label"])
    def test_integer_field_must_be_json_integer(self, kind, edits):
        # Each of these once loaded, truncated, and wrote back different bytes.
        payload = valid_payload_dict(kind)
        for (*parents, last), value in edits.items():
            target = payload["params"]
            for step in parents:
                target = target[step]
            target[last] = value
        with pytest.raises(MalformedModel, match="expected an integer"):
            load_model(container(json.dumps(payload).encode()))

    @pytest.mark.parametrize("kind,path,value", [
        (ClassifierKind.J48, ("params", "nodes", 0, 1), True),
        (ClassifierKind.J48, ("params", "nodes", 0, 1), 1),
        (ClassifierKind.SVM, ("params", "weights", 0), 1),
        (ClassifierKind.BAYES, ("params", "var_pos", 0), True),
        (ClassifierKind.MLP, ("scaler", "mins", 0), 0),
        (ClassifierKind.KNN, ("params", "points", 0, 0), 1),
    ], ids=["j48-threshold-true", "j48-threshold-1", "svm-weight-1",
            "bayes-variance-true", "scaler-min-0", "knn-point-1"])
    def test_float_field_must_be_json_float(self, kind, path, value):
        # Each of these once loaded as a float and wrote back different bytes.
        payload = valid_payload_dict(kind)
        *parents, last = path
        target = payload
        for step in parents:
            target = target[step]
        target[last] = value
        with pytest.raises(MalformedModel, match="float"):
            load_model(container(json.dumps(payload).encode()))

    def test_forest_features_used_must_be_json_integers(self):
        payload = valid_payload_dict(ClassifierKind.RANDOM_FOREST)
        params = payload["params"]
        params["features_used"] = [[float(f) for f in used]
                                   for used in params["features_used"]]
        with pytest.raises(MalformedModel, match="expected an integer"):
            load_model(container(json.dumps(payload).encode()))

    def test_non_numeric_matrix_cell(self):
        payload = valid_payload_dict(ClassifierKind.KNN)
        payload["params"]["points"][0][0] = "high"
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

    def test_declared_length_beyond_data(self):
        payload = json.dumps(valid_payload_dict()).encode()
        head = MODEL_MAGIC + struct.pack(">HI", 1, len(payload) + 999) + payload
        with pytest.raises(ChecksumFailure):
            load_model(head + hashlib.sha256(head).digest())


def repro_payload(kind: ClassifierKind) -> dict:
    """The payload of ``kind`` trained on 40 uniform rows, labelled by
    whether their first feature exceeds 0.5."""
    x = np.random.default_rng(0).random((40, 13))
    dataset = Dataset(x, (x[:, 0] > 0.5).astype(np.uint8))
    return valid_payload_dict(model=train(kind, dataset, FAST.get(kind)))


class TestScoringHazards:
    """Resealed payloads of sound structure that would score NaN, overflow
    or skip the scaling their family was trained with: each fails to load
    with MalformedModel."""

    @pytest.mark.parametrize("alias,edit,message", SCORING_HAZARDS.values(),
                             ids=SCORING_HAZARDS)
    def test_rejected_at_load(self, alias, edit, message):
        payload = repro_payload(KIND_ALIASES[alias])
        edit(payload)
        with pytest.raises(MalformedModel, match=message):
            load_model(sealed(payload))

    def test_overflowing_log_likelihood_sum_scores_without_warning(self):
        # Each squared distance is finite; their sum over features is not,
        # which is a density that underflows.
        payload = repro_payload(ClassifierKind.BAYES)
        payload["params"]["mean_pos"][:2] = [-1e154, -1e154]
        payload["params"]["var_pos"] = [1.0] * 13
        model = load_model(sealed(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scores = predict_many(model, FUZZ_QUERIES)[1]
        assert ((scores >= 0.0) & (scores <= 1.0)).all()

    def test_large_bounded_weights_still_score(self):
        payload = repro_payload(ClassifierKind.SVM)
        payload["params"].update(weights=[1e307] * 7 + [-1e307] * 6, bias=-1e307)
        model = load_model(sealed(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scores = predict_many(model, FUZZ_QUERIES)[1]
        assert ((scores >= 0.0) & (scores <= 1.0)).all()


@functools.cache
def tree_payload(kind: ClassifierKind) -> dict:
    return valid_payload_dict(kind)


#: Finite floats that no fitted model holds: zero or subnormal, huge, and
#: negative.
EXTREMES = st.one_of(
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308,
              exclude_min=True, exclude_max=True),
    st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308]),
    st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
)

#: Values of every JSON type, mostly wrong for a node field.
JUNK = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                 st.text(max_size=2), st.lists(st.integers(-1, 6), max_size=7))


def node_values(field: int, junk: bool):
    """Replacements for a node field (1 is the threshold) or, for field 6,
    for the whole row; of the field's own type unless ``junk``."""
    if junk:
        return JUNK
    if field == 6:
        return st.lists(st.integers(-1, 6), min_size=6, max_size=6)
    return st.floats(-3.0, 3.0) | EXTREMES if field == 1 else st.integers(-2, 15)


FUZZ_QUERIES = np.vstack([
    gaussian_dataset(n_pos=12, n_neg=12, seed=31).x,
    np.random.Generator(np.random.PCG64(34)).normal(0.5, 0.5, size=(40, 13)),
])


def assert_fails_typed_or_scores(blob: bytes) -> None:
    """``blob`` fails to load with MalformedModel, or scores every fuzz
    query in [0, 1], raising no RuntimeWarning, within a time bound, and
    writes back to the same bytes."""
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            model = load_model(blob)
        except MalformedModel:
            return
        scores = predict_many(model, FUZZ_QUERIES)[1]
    assert time.perf_counter() - started < 2.0
    assert np.isfinite(scores).all()
    assert ((scores >= 0.0) & (scores <= 1.0)).all()
    assert save_model(model) == blob


class TestTreePayloadFuzz:
    """A resealed J48 or forest payload with mutated node rows, thresholds
    among them, passes ``assert_fails_typed_or_scores``."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(TREE_KINDS), data=st.data())
    def test_mutated_nodes_fail_typed_or_score(self, kind, data):
        payload = copy.deepcopy(tree_payload(kind))
        trees = tree_rows(payload)
        for _ in range(data.draw(st.integers(1, 3))):
            rows = trees[data.draw(st.integers(0, len(trees) - 1))]
            i = data.draw(st.integers(0, len(rows) - 1))
            field = data.draw(st.integers(0, 6))
            value = data.draw(node_values(field, junk=data.draw(st.integers(0, 3)) == 0))
            if isinstance(rows[i], list) and field < len(rows[i]):
                rows[i][field] = value
            else:
                rows[i] = value
        assert_fails_typed_or_scores(sealed(payload))


@functools.cache
def fitted_payload(kind: ClassifierKind) -> dict:
    return valid_payload_dict(kind)


def slots(obj):
    """(container, key) of every value nested in ``obj``'s lists and objects."""
    keys = range(len(obj)) if isinstance(obj, list) else obj
    for key in keys:
        yield obj, key
        if isinstance(obj[key], (list, dict)):
            yield from slots(obj[key])


#: The payload parts ``TestTreePayloadFuzz`` leaves out, by kind.
FUZZ_PARTS = {
    ClassifierKind.KNN: lambda p: [p["params"], p["scaler"]],
    ClassifierKind.MLP: lambda p: [p["params"], p["scaler"]],
    ClassifierKind.SVM: lambda p: [p["params"], p["scaler"]],
    ClassifierKind.BAYES: lambda p: [p["params"]],
    ClassifierKind.RANDOM_FOREST: lambda p: [p["params"]["features_used"]],
}

#: Values of a JSON type other than the float or integer they replace.
SWAPS = {
    float: st.one_of(st.integers(-2, 2), st.booleans(), st.none(), st.text(max_size=2),
                     st.just([]), st.just({})),
    int: st.one_of(st.floats(-2.0, 2.0), st.booleans(), st.none(), st.text(max_size=2),
                   st.just([]), st.just({})),
}


class TestPayloadFuzz:
    """A resealed KNN, MLP, SVM or Bayes payload, scaler or forest
    ``features_used`` with one value mutated, or one value of the
    hyperparameters dropped, swapped or (a float) made extreme, passes
    ``assert_fails_typed_or_scores``."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(FUZZ_PARTS, key=lambda k: k.value)), data=st.data())
    def test_mutated_value_fails_typed_or_scores(self, kind, data):
        payload = copy.deepcopy(fitted_payload(kind))
        mutation = data.draw(st.sampled_from(
            ["swap", "non-finite", "extreme", "drop", "add", "nest"]))
        parts = FUZZ_PARTS[kind](payload)
        if mutation in ("extreme", "drop", "swap"):
            parts.append(payload["hyperparams"])
        places = [(box, key) for part in parts for box, key in slots(part)
                  if (mutation != "add" or isinstance(box, list))
                  and (mutation != "extreme" or type(box[key]) is float)]
        assume(places)      # a forest's extreme mutation has no float to take
        box, key = data.draw(st.sampled_from(places))
        value = box[key]
        if mutation == "swap":
            box[key] = data.draw(SWAPS.get(type(value), st.none()))
        elif mutation == "non-finite":
            box[key] = data.draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        elif mutation == "extreme":
            box[key] = data.draw(EXTREMES)
        elif mutation == "drop":
            del box[key]
        elif mutation == "add":
            box.insert(key, copy.deepcopy(value))
        else:
            box[key] = [value]
        assert_fails_typed_or_scores(sealed(payload))
