"""Model container format: round trips, tampering, and error precedence."""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest

from rwdetect.classifiers import (
    ALL_KINDS,
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
    write_model,
)
from rwdetect.classifiers.model_io import MODEL_FORMAT_VERSION, MODEL_MAGIC
from rwdetect.errors import ChecksumFailure, MalformedModel, VersionMismatch

from conftest import address_only_dataset, gaussian_dataset

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


def valid_payload_dict(kind=ClassifierKind.KNN) -> dict:
    blob = save_model(quick_model(kind))
    start = len(MODEL_MAGIC) + 6
    (length,) = struct.unpack(">I", blob[start - 4:start])
    return json.loads(blob[start:start + length])


TREE_KINDS = (ClassifierKind.J48, ClassifierKind.RANDOM_FOREST)


def first_tree(payload: dict) -> list:
    """The node rows of a J48 payload, or of a forest payload's first tree."""
    params = payload["params"]
    return params["nodes"] if "nodes" in params else params["trees"][0]


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_bytes_stable_and_predictions_exact(self, kind):
        model = quick_model(kind)
        blob = save_model(model)
        loaded = load_model(blob)
        assert save_model(loaded) == blob
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

    def test_unscaled_kind_keeps_null_scaler(self):
        loaded = load_model(save_model(quick_model(ClassifierKind.J48)))
        assert loaded.scaler is None

    def test_zero_address_flag_round_trips(self):
        ds = address_only_dataset()
        model = train(ClassifierKind.KNN, ds, KnnParams(k=1),
                      zero_addresses=True)
        loaded = load_model(save_model(model))
        assert loaded.zero_addresses
        q = ds.matrix()[0].copy()
        swapped = q.copy()
        swapped[1], swapped[3] = 9.0, 9.0
        assert (
            predict_many(loaded, q[None, :])[1][0]
            == predict_many(loaded, swapped[None, :])[1][0]
        )

    def test_file_helpers(self, tmp_path):
        model = quick_model(ClassifierKind.BAYES)
        path = tmp_path / "bayes.rwdmodel"
        write_model(path, model)
        assert path.read_bytes() == save_model(model)
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

    def test_json_wrong_shape(self):
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps([1, 2, 3]).encode()))

    def test_missing_key(self):
        payload = valid_payload_dict()
        del payload["params"]
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

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

    def test_wrong_param_shape(self):
        payload = valid_payload_dict(ClassifierKind.KNN)
        payload["params"]["points"] = [[1.0, 2.0]]    # 2 columns, not 13
        with pytest.raises(MalformedModel):
            load_model(container(json.dumps(payload).encode()))

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
