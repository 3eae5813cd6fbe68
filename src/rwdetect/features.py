"""Feature encoding, labeling and min-max scaling.

A conversation becomes a fixed-order vector of 13 numbers.  IPv4 addresses
enter as their 32-bit big-endian integer value, which keeps them numeric
but ties models to the address space they were trained on; the CLI offers
a flag to zero the two address columns for generalization experiments.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capture import _csv_rows, _csv_text, ip_to_u32
from .conversation import (
    CONVERSATION_CSV_HEADER,
    Conversation,
    parse_conversation_fields,
    _format_row,
)
from .errors import DimensionMismatch, EmptyDataset, EmptyInput, RowError

FEATURE_NAMES = tuple(CONVERSATION_CSV_HEADER)
N_FEATURES = 13
ADDRESS_FEATURE_INDICES = (1, 3)

DATASET_CSV_HEADER = CONVERSATION_CSV_HEADER + ["label"]


class Label(enum.Enum):
    RANSOMWARE = "ransomware"
    BENIGN = "benign"


POSITIVE_LABEL = Label.RANSOMWARE


@dataclass(eq=False)
class LabeledSample:
    features: np.ndarray
    label: Label
    origin: str | None = None

    def __eq__(self, other):
        if not isinstance(other, LabeledSample):
            return NotImplemented
        return (
            np.array_equal(self.features, other.features)
            and self.label is other.label
            and self.origin == other.origin
        )


@dataclass
class Dataset:
    samples: list[LabeledSample]
    feature_names: tuple = FEATURE_NAMES

    def __len__(self) -> int:
        return len(self.samples)

    def matrix(self) -> np.ndarray:
        if not self.samples:
            return np.empty((0, N_FEATURES))
        return np.stack([s.features for s in self.samples]).astype(np.float64)

    def labels01(self) -> np.ndarray:
        """1 for the positive (ransomware) class, 0 for benign."""
        return np.array(
            [1 if s.label is POSITIVE_LABEL else 0 for s in self.samples],
            dtype=np.uint8,
        )

    def subset(self, indices: Sequence[int]) -> "Dataset":
        return Dataset([self.samples[i] for i in indices], self.feature_names)

    def class_counts(self) -> tuple[int, int]:
        pos = int(self.labels01().sum()) if self.samples else 0
        return pos, len(self.samples) - pos


@dataclass
class ScalingParams:
    """Per-feature min/max fitted on training data."""

    mins: np.ndarray
    maxs: np.ndarray
    fitted_on: str = ""


def encode(conversation: Conversation) -> np.ndarray:
    """Conversation as a 13-element float vector in the fixed column order."""
    return np.array([
        float(conversation.protocol),
        float(ip_to_u32(conversation.address_a)),
        float(conversation.port_a),
        float(ip_to_u32(conversation.address_b)),
        float(conversation.port_b),
        float(conversation.packets),
        float(conversation.bytes),
        float(conversation.packets_ab),
        float(conversation.bytes_ab),
        float(conversation.packets_ba),
        float(conversation.bytes_ba),
        float(conversation.rel_start),
        float(conversation.duration),
    ])


def dataset_fingerprint(dataset: Dataset) -> str:
    """SHA-256 over the samples' exact bytes; order-sensitive by design."""
    digest = hashlib.sha256()
    for s in dataset.samples:
        digest.update(np.asarray(s.features, dtype="<f8").tobytes())
        digest.update(b"\x01" if s.label is POSITIVE_LABEL else b"\x00")
    return digest.hexdigest()


def fit_scaler(dataset: Dataset) -> ScalingParams:
    if not dataset.samples:
        raise EmptyDataset("cannot fit a scaler on an empty dataset")
    x = dataset.matrix()
    return ScalingParams(
        mins=x.min(axis=0),
        maxs=x.max(axis=0),
        fitted_on=dataset_fingerprint(dataset),
    )


def apply_scaler(params: ScalingParams, vector: np.ndarray) -> np.ndarray:
    """Map each value to (v - min)/(max - min), clamped into [0, 1].

    Features that were constant at fit time map to 0.  Out-of-range values
    are clamped, never rejected: live traffic will exceed training ranges.
    """
    vec = np.asarray(vector, dtype=np.float64)
    if vec.shape[-1] != params.mins.shape[0]:
        raise DimensionMismatch(
            f"vector has {vec.shape[-1]} features, scaler expects {params.mins.shape[0]}"
        )
    # Halving is exact, so working in halves gives the same quotients while
    # keeping the subtractions from overflowing on extreme ranges.
    half_span = 0.5 * params.maxs - 0.5 * params.mins
    safe = np.where(half_span > 0, half_span, 1.0)
    clipped = np.clip(vec, params.mins, params.maxs)
    scaled = (0.5 * clipped - 0.5 * params.mins) / safe
    scaled = np.where(half_span > 0, scaled, 0.0)
    return np.clip(scaled, 0.0, 1.0)


def label_and_merge(conv_sets: Sequence[tuple[Sequence[Conversation], Label]],
                    origins: Sequence[str] | None = None) -> Dataset:
    """Encode and tag conversation sets; concatenation keeps input order.

    No shuffle happens here; only split operations reorder data, and they
    do it deterministically from their seed.
    """
    if not conv_sets:
        raise EmptyInput("no conversation sets to merge")
    samples: list[LabeledSample] = []
    for i, (convs, label) in enumerate(conv_sets):
        convs = list(convs)
        if not convs:
            raise EmptyInput(f"conversation set {i} is empty")
        origin = origins[i] if origins is not None else None
        for c in convs:
            samples.append(LabeledSample(encode(c), label, origin))
    return Dataset(samples)


def zero_address_columns(dataset: Dataset) -> Dataset:
    """Copy of the dataset with both address features forced to 0."""
    out = [LabeledSample(zero_address_vector(s.features), s.label, s.origin)
           for s in dataset.samples]
    return Dataset(out, dataset.feature_names)


def zero_address_vector(vector: np.ndarray) -> np.ndarray:
    vec = np.array(vector, dtype=np.float64)
    vec[..., list(ADDRESS_FEATURE_INDICES)] = 0.0
    return vec


# -- dataset CSV ---------------------------------------------------------------

def write_dataset_csv(conv_sets: Sequence[tuple[Sequence[Conversation], Label]]) -> str:
    """Conversation rows plus a final label column (ransomware | benign)."""
    return _csv_text(DATASET_CSV_HEADER, (
        _format_row(c) + [label.value] for convs, label in conv_sets for c in convs
    ))


def read_dataset_csv(text, strict: bool = True) -> Dataset:
    samples = []
    for line, row in _csv_rows(text, DATASET_CSV_HEADER, "dataset"):
        if len(row) != len(DATASET_CSV_HEADER):
            raise RowError(line, f"expected {len(DATASET_CSV_HEADER)} fields, got {len(row)}")
        conv = parse_conversation_fields(row[:-1], line, strict=strict)
        try:
            label = Label(row[-1])
        except ValueError:
            raise RowError(line, f"label {row[-1]!r} is not ransomware|benign") from None
        samples.append(LabeledSample(encode(conv), label))
    return Dataset(samples)
