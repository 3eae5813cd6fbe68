"""Feature encoding, scaling, labeling and the dataset CSV."""

from __future__ import annotations

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
    LabeledSample,
    ScalingParams,
    apply_scaler,
    dataset_fingerprint,
    encode,
    fit_scaler,
    label_and_merge,
    read_dataset_csv,
    write_dataset_csv,
    zero_address_columns,
    zero_address_vector,
)

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


class TestScaling:
    def test_fit_exact_bounds(self):
        ds = Dataset([
            LabeledSample(np.arange(13, dtype=float), Label.BENIGN),
            LabeledSample(np.arange(13, dtype=float) * 3, Label.RANSOMWARE),
        ])
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
            fit_scaler(Dataset([]))

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
        ds = Dataset([
            LabeledSample(np.array(row), Label.BENIGN) for row in train_rows
        ])
        params = fit_scaler(ds)
        out = apply_scaler(params, np.array(query))
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    def test_training_rows_scale_inside_unit_box(self):
        ds = gaussian_dataset(n_pos=20, n_neg=20, seed=3)
        params = fit_scaler(ds)
        scaled = apply_scaler(params, ds.matrix())
        assert scaled.min() == 0.0
        assert scaled.max() == 1.0


class TestLabeling:
    def test_label_and_merge_keeps_order(self):
        r = [make_conversation(port_a=i) for i in (1, 2)]
        b = [make_conversation(port_a=i) for i in (3, 4)]
        ds = label_and_merge([(r, Label.RANSOMWARE), (b, Label.BENIGN)])
        assert len(ds) == 4
        assert [s.label for s in ds.samples] == [
            Label.RANSOMWARE, Label.RANSOMWARE, Label.BENIGN, Label.BENIGN,
        ]
        assert [s.features[2] for s in ds.samples] == [1.0, 2.0, 3.0, 4.0]

    def test_class_counts(self):
        ds = gaussian_dataset(n_pos=5, n_neg=9, seed=1)
        assert ds.class_counts() == (5, 9)

    def test_empty_inputs(self):
        with pytest.raises(EmptyInput):
            label_and_merge([])
        with pytest.raises(EmptyInput):
            label_and_merge([([], Label.BENIGN)])

    def test_origin_tagging(self):
        convs = [make_conversation()]
        ds = label_and_merge([(convs, Label.BENIGN)], origins=["site-a"])
        assert ds.samples[0].origin == "site-a"

    def test_subset(self):
        ds = gaussian_dataset(n_pos=4, n_neg=4, seed=2)
        sub = ds.subset(np.array([0, 5]))
        assert len(sub) == 2
        assert sub.samples[0] == ds.samples[0]
        assert sub.samples[1] == ds.samples[5]


class TestFingerprint:
    def test_stable_for_equal_datasets(self):
        a = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        b = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        assert dataset_fingerprint(a) == dataset_fingerprint(b)

    def test_sensitive_to_label(self):
        a = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        flipped = Dataset([
            LabeledSample(s.features, Label.BENIGN) for s in a.samples
        ])
        assert dataset_fingerprint(a) != dataset_fingerprint(flipped)

    def test_sensitive_to_order(self):
        a = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        reversed_ds = Dataset(list(reversed(a.samples)))
        assert dataset_fingerprint(a) != dataset_fingerprint(reversed_ds)

    def test_sensitive_to_values(self):
        a = gaussian_dataset(n_pos=6, n_neg=6, seed=9)
        bumped = Dataset([
            LabeledSample(s.features + 1e-9, s.label) for s in a.samples
        ])
        assert dataset_fingerprint(a) != dataset_fingerprint(bumped)


class TestZeroAddresses:
    def test_columns_zeroed(self):
        ds = gaussian_dataset(n_pos=3, n_neg=3, seed=4)
        zeroed = zero_address_columns(ds)
        m = zeroed.matrix()
        assert np.array_equal(m[:, 1], np.zeros(6))
        assert np.array_equal(m[:, 3], np.zeros(6))
        keep = [i for i in range(13) if i not in ADDRESS_FEATURE_INDICES]
        assert np.array_equal(m[:, keep], ds.matrix()[:, keep])

    def test_original_untouched(self):
        ds = gaussian_dataset(n_pos=3, n_neg=3, seed=4)
        before = ds.matrix().copy()
        zero_address_columns(ds)
        assert np.array_equal(ds.matrix(), before)

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
        for parsed, built in zip(ds.samples, direct.samples):
            assert np.array_equal(parsed.features, built.features)
            assert parsed.label is built.label

    def test_bad_label(self):
        text = write_dataset_csv(self.roundtrip_sets())
        text = text.replace("ransomware", "malicious")
        with pytest.raises(RowError) as info:
            read_dataset_csv(text)
        assert info.value.line == 2

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            read_dataset_csv("a,b\n")

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
