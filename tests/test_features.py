"""Feature encoding, scaling, labeling and the dataset CSV."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwdetect.errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptyInput,
    RowError,
    SchemaMismatch,
)
from rwdetect.features import (
    ADDRESS_FEATURE_INDICES,
    DATASET_CSV_HEADER,
    FEATURE_NAMES,
    N_FEATURES,
    Dataset,
    Label,
    ScalingParams,
    apply_scaler,
    dataset_fingerprint,
    encode,
    encode_many,
    fit_scaler,
    label_and_merge,
    read_dataset_csv,
    write_dataset_csv,
    zero_address_vector,
)

from rwdetect.capture import ip_to_u32, u32_to_ip
from rwdetect.classifiers import ClassifierKind, train
from rwdetect.conversation import Conversation

from conftest import gaussian_dataset, make_conversation


class TestEncode:
    def test_column_order_and_values(self):
        conv = make_conversation(
            protocol=6, address_a="192.168.1.4", port_a=49252,
            address_b="192.168.1.5", port_b=5357,
            packets_ab=8, bytes_ab=1396, packets_ba=12, bytes_ba=13741,
            rel_start=1.841135, duration=0.026054,
        )
        vec = encode(conv)
        expected = np.array([
            6.0, 3232235780.0, 49252.0, 3232235781.0, 5357.0,
            20.0, 15137.0, 8.0, 1396.0, 12.0, 13741.0,
            1.841135, 0.026054,
        ])
        assert vec.shape == (N_FEATURES,)
        assert np.array_equal(vec, expected)

    def test_feature_names_align_with_vector(self):
        assert len(FEATURE_NAMES) == N_FEATURES
        assert FEATURE_NAMES[0] == "protocol"
        assert FEATURE_NAMES[ADDRESS_FEATURE_INDICES[0]] == "address_a"
        assert FEATURE_NAMES[ADDRESS_FEATURE_INDICES[1]] == "address_b"
        assert FEATURE_NAMES[-1] == "duration"

    def test_encode_many_empty(self):
        matrix = encode_many([])
        assert matrix.shape == (0, N_FEATURES)
        assert matrix.dtype == np.float64

    @given(st.lists(st.builds(
        Conversation,
        protocol=st.sampled_from([6, 17]),
        address_a=st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.1.4"])
        | st.integers(0, 2**32 - 1).map(u32_to_ip),
        port_a=st.integers(0, 65535),
        address_b=st.integers(0, 2**32 - 1).map(u32_to_ip),
        port_b=st.integers(0, 65535),
        packets=st.integers(1, 2**63 - 1),
        bytes=st.integers(0, 2**63 - 1),
        packets_ab=st.integers(0, 2**63 - 1),
        bytes_ab=st.integers(0, 2**63 - 1),
        packets_ba=st.integers(0, 2**63 - 1),
        bytes_ba=st.integers(0, 2**63 - 1),
        rel_start=st.floats(0, 1e12),
        duration=st.floats(0, 1e12),
    ), max_size=20))
    def test_encode_many_is_stacked_encode(self, convs):
        """Bit for bit the rows ``encode`` gives, and each value is Python's
        ``float`` of the field (addresses as u32), integers past 2**53 too."""
        expected = np.array([
            [float(v) for v in (
                c.protocol, ip_to_u32(c.address_a), c.port_a,
                ip_to_u32(c.address_b), c.port_b, c.packets, c.bytes,
                c.packets_ab, c.bytes_ab, c.packets_ba, c.bytes_ba,
                c.rel_start, c.duration)]
            for c in convs
        ]).reshape(len(convs), N_FEATURES)
        got = encode_many(convs)
        assert got.dtype == np.float64
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        for conv, row in zip(convs, got):
            assert encode(conv).tobytes() == row.tobytes()


class TestScaling:
    def test_fit_exact_bounds(self):
        ds = Dataset([np.arange(13, dtype=float), np.arange(13, dtype=float) * 3],
                     [0, 1])
        params = fit_scaler(ds)
        assert np.array_equal(params.mins, np.arange(13.0))
        assert np.array_equal(params.maxs, np.arange(13.0) * 3)
        assert params.fitted_on == dataset_fingerprint(ds)

    def test_apply_maps_to_unit_interval(self):
        params = ScalingParams(mins=np.zeros(13), maxs=np.full(13, 10.0))
        out = apply_scaler(params, np.full(13, 2.5))
        assert np.allclose(out, 0.25)

    def test_constant_feature_maps_to_zero(self):
        params = ScalingParams(mins=np.full(13, 7.0), maxs=np.full(13, 7.0))
        out = apply_scaler(params, np.full(13, 7.0))
        assert np.array_equal(out, np.zeros(13))
        out = apply_scaler(params, np.full(13, 9999.0))
        assert np.array_equal(out, np.zeros(13))

    def test_out_of_range_clamped(self):
        params = ScalingParams(mins=np.zeros(13), maxs=np.ones(13))
        low = apply_scaler(params, np.full(13, -5.0))
        high = apply_scaler(params, np.full(13, 5.0))
        assert np.array_equal(low, np.zeros(13))
        assert np.array_equal(high, np.ones(13))

    def test_matrix_application(self):
        params = ScalingParams(mins=np.zeros(13), maxs=np.full(13, 2.0))
        out = apply_scaler(params, np.ones((4, 13)))
        assert out.shape == (4, 13)
        assert np.allclose(out, 0.5)

    def test_dimension_mismatch(self):
        params = ScalingParams(mins=np.zeros(13), maxs=np.ones(13))
        with pytest.raises(DimensionMismatch):
            apply_scaler(params, np.zeros(12))

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            fit_scaler(Dataset(np.empty((0, 13)), []))

    @given(
        st.lists(
            st.lists(
                st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
                min_size=13, max_size=13,
            ),
            min_size=1, max_size=10,
        ),
        st.lists(
            st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
            min_size=13, max_size=13,
        ),
    )
    def test_output_always_in_unit_interval(self, train_rows, query):
        ds = Dataset(train_rows, np.zeros(len(train_rows)))
        params = fit_scaler(ds)
        out = apply_scaler(params, np.array(query))
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    def test_training_rows_scale_inside_unit_box(self):
        ds = gaussian_dataset(n_pos=20, n_neg=20, seed=3)
        params = fit_scaler(ds)
        scaled = apply_scaler(params, ds.x)
        assert scaled.min() == 0.0
        assert scaled.max() == 1.0


class TestLabeling:
    def test_label_and_merge_keeps_order(self):
        r = [make_conversation(port_a=i) for i in (1, 2)]
        b = [make_conversation(port_a=i) for i in (3, 4)]
        ds = label_and_merge([(r, Label.RANSOMWARE), (b, Label.BENIGN)])
        assert len(ds) == 4
        assert ds.y.tolist() == [1, 1, 0, 0]
        assert ds.x[:, 2].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_class_counts(self):
        ds = gaussian_dataset(n_pos=5, n_neg=9, seed=1)
        assert ds.class_counts() == (5, 9)

    def test_empty_inputs(self):
        with pytest.raises(EmptyInput):
            label_and_merge([])
        with pytest.raises(EmptyInput):
            label_and_merge([([], Label.BENIGN)])

    def test_subset(self):
        ds = gaussian_dataset(n_pos=4, n_neg=4, seed=2)
        sub = ds.subset(np.array([0, 5]))
        assert len(sub) == 2
        assert np.array_equal(sub.x, ds.x[[0, 5]])
        assert sub.y.tolist() == [ds.y[0], ds.y[5]]


class TestDataset:
    def test_coerces_both_arrays(self):
        ds = Dataset([[float(i)] * 13 for i in range(3)], [True, False, 1])
        assert ds.x.dtype == np.float64 and ds.x.shape == (3, 13)
        assert ds.y.dtype == np.uint8 and ds.y.tolist() == [1, 0, 1]
        assert len(ds) == 3

    @pytest.mark.parametrize("x,y", [
        (np.zeros((3, 12)), np.zeros(3)),
        (np.zeros((3, 13)), np.zeros(2)),
        (np.zeros(13), np.zeros(1)),
        (np.zeros((3, 13)), np.zeros((3, 1))),
        ([], []),
    ], ids=["12-columns", "2-labels-for-3-rows", "1-d-features", "2-d-labels",
            "untyped-empty"])
    def test_shape_mismatch(self, x, y):
        with pytest.raises(DimensionMismatch):
            Dataset(x, y)

    @pytest.mark.parametrize("label", [2, -1, 0.5, "ransomware"])
    def test_labels_are_0_or_1(self, label):
        with pytest.raises(ValueError, match="labels must be 0"):
            Dataset(np.zeros((2, 13)), [1, label])


class TestFingerprint:
    def test_pinned_value(self):
        # Model files embed this digest (train_fingerprint, fitted_on).
        ds = gaussian_dataset(n_pos=200, n_neg=200, seed=1)
        assert dataset_fingerprint(ds) == (
            "39869df89e366db22ef1cd72654ed277daffa96b5376b5f94c587973c238f016")

    def test_bytes_are_rows_then_label_byte(self):
        ds = gaussian_dataset(n_pos=7, n_neg=5, seed=3)
        digest = hashlib.sha256()
        for row, label in zip(ds.x, ds.y):
            digest.update(row.astype("<f8").tobytes())
            digest.update(bytes([label]))
        assert dataset_fingerprint(ds) == digest.hexdigest()

    def test_stable_for_equal_datasets(self):
        a = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        b = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_sensitive_to_label(self):
        a = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        flipped = Dataset(a.x, np.zeros(len(a)))
        assert dataset_fingerprint(a) != dataset_fingerprint(flipped)

    def test_sensitive_to_order(self):
        a = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        reversed_ds = Dataset(a.x[::-1], a.y[::-1])
        assert dataset_fingerprint(a) != dataset_fingerprint(reversed_ds)

    def test_sensitive_to_values(self):
        a = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        bumped = Dataset(a.x + 1e-9, a.y)
        assert dataset_fingerprint(a) != dataset_fingerprint(bumped)


class TestZeroAddresses:
    def test_columns_zeroed(self):
        ds = gaussian_dataset(n_pos=3, n_neg=3, seed=4)
        m = zero_address_vector(ds.x)
        assert np.array_equal(m[:, 1], np.zeros(6))
        assert np.array_equal(m[:, 3], np.zeros(6))
        keep = [i for i in range(13) if i not in ADDRESS_FEATURE_INDICES]
        assert np.array_equal(m[:, keep], ds.x[:, keep])

    def test_original_untouched(self):
        ds = gaussian_dataset(n_pos=3, n_neg=3, seed=4)
        before = ds.x.copy()
        train(ClassifierKind.J48, ds, zero_addresses=True)
        assert np.array_equal(ds.x, before)

    def test_vector_form(self):
        vec = np.arange(13, dtype=float)
        out = zero_address_vector(vec)
        assert out[1] == 0.0 and out[3] == 0.0
        assert vec[1] == 1.0   # input untouched
        batch = zero_address_vector(np.ones((4, 13)))
        assert np.array_equal(batch[:, 1], np.zeros(4))


class TestDatasetCsv:
    def roundtrip_sets(self):
        r = [make_conversation(port_a=10, rel_start=0.25)]
        b = [make_conversation(port_a=20, protocol=17, packets_ba=0, bytes_ba=0)]
        return [(r, Label.RANSOMWARE), (b, Label.BENIGN)]

    def test_header(self):
        text = write_dataset_csv(self.roundtrip_sets())
        assert text.splitlines()[0] == ",".join(DATASET_CSV_HEADER)
        assert DATASET_CSV_HEADER[-1] == "label"

    def test_round_trip(self):
        sets = self.roundtrip_sets()
        ds = read_dataset_csv(write_dataset_csv(sets))
        direct = label_and_merge(sets)
        assert len(ds) == len(direct)
        assert np.array_equal(ds.x, direct.x)
        assert np.array_equal(ds.y, direct.y)

    def test_bad_label(self):
        text = write_dataset_csv(self.roundtrip_sets())
        text = text.replace("ransomware", "malicious")
        with pytest.raises(RowError) as info:
            read_dataset_csv(text)
        assert info.value.line == 2

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            read_dataset_csv("a,b\n")

    def test_byte_order_mark_accepted(self):
        text = write_dataset_csv(self.roundtrip_sets())
        marked = read_dataset_csv("\ufeff" + text)
        assert dataset_fingerprint(marked) == dataset_fingerprint(read_dataset_csv(text))

    def test_non_finite_time(self):
        text = write_dataset_csv(self.roundtrip_sets())
        lines = text.splitlines()
        fields = lines[1].split(",")
        fields[12] = "nan"                      # duration
        lines[1] = ",".join(fields)
        with pytest.raises(RowError) as info:
            read_dataset_csv("\n".join(lines) + "\n")
        assert info.value.line == 2

    def test_strict_totals_enforced(self):
        text = write_dataset_csv(self.roundtrip_sets())
        lines = text.splitlines()
        fields = lines[1].split(",")
        fields[5] = str(int(fields[5]) + 1)     # corrupt the packet total
        lines[1] = ",".join(fields)
        with pytest.raises(Exception):
            read_dataset_csv("\n".join(lines) + "\n")
