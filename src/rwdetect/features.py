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

from .capture import _csv_text, _read_csv, ip_to_u32
from .conversation import (
    CONVERSATION_CSV_COLUMNS,
    CONVERSATION_CSV_HEADER,
    Conversation,
    ConversationTable,
    _conversation,
    _fields,
    _format_row,
)
from .errors import DimensionMismatch, EmptyDataset, EmptyInput, RowError

FEATURE_NAMES = tuple(CONVERSATION_CSV_HEADER)
N_FEATURES = 13
ADDRESS_FEATURE_INDICES = (1, 3)


class Label(enum.Enum):
    RANSOMWARE = "ransomware"
    BENIGN = "benign"


def _label(text: str, line: int, column: str) -> Label:
    try:
        return Label(text)
    except ValueError:
        raise RowError(line, f"{column} {text!r} is not ransomware|benign") from None


DATASET_CSV_COLUMNS = {**CONVERSATION_CSV_COLUMNS, "label": _label}
DATASET_CSV_HEADER = list(DATASET_CSV_COLUMNS)


def _labels01(labels) -> np.ndarray:
    """``labels`` as uint8; a label other than 0 or 1 raises ValueError."""
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 (benign) or 1 (ransomware)")
    return np.asarray(labels, dtype=np.uint8)


@dataclass(eq=False)    # arrays have no single truth value to compare by
class Dataset:
    """A labeled feature table: ``x`` is (n, 13) float64 and ``y`` is (n,)
    uint8, 1 for ransomware and 0 for benign."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.y = _labels01(self.y)
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.y.ndim != 1 or self.x.shape != (len(self.y), N_FEATURES):
            raise DimensionMismatch(
                f"expected (n, {N_FEATURES}) features for (n,) labels, "
                f"got {self.x.shape} and {self.y.shape}"
            )

    def __len__(self) -> int:
        return len(self.y)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        return Dataset(self.x[indices], self.y[indices])

    def class_counts(self) -> tuple[int, int]:
        pos = int(np.count_nonzero(self.y))
        return pos, len(self.y) - pos


@dataclass
class ScalingParams:
    """Per-feature min/max fitted on training data."""

    mins: np.ndarray
    maxs: np.ndarray
    fitted_on: str = ""


def encode(conversation: Conversation) -> np.ndarray:
    """Conversation as a 13-element float vector in the fixed column order."""
    values = list(_fields(conversation))
    values[1], values[3] = ip_to_u32(values[1]), ip_to_u32(values[3])
    return np.array(values, dtype=np.float64)


def encode_many(conversations: Sequence[Conversation]) -> np.ndarray:
    """``encode`` of each conversation as one row of an (n, 13) float64
    matrix: the columns of a ``ConversationTable`` (or of Conversation
    rows turned into one) stacked side by side."""
    return np.stack(ConversationTable.of(conversations).columns, axis=1,
                    dtype=np.float64)


def dataset_fingerprint(dataset: Dataset) -> str:
    """SHA-256 over the rows in order, each its 13 features as little-endian
    float64 followed by its label byte."""
    x = np.ascontiguousarray(dataset.x, dtype="<f8").view(np.uint8)
    return hashlib.sha256(np.hstack([x, dataset.y[:, None]]).tobytes()).hexdigest()


def fit_scaler(dataset: Dataset) -> ScalingParams:
    if not len(dataset):
        raise EmptyDataset("cannot fit a scaler on an empty dataset")
    x = dataset.x
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


def _dataset(rows, labels: list[Label]) -> Dataset:
    """Encoded rows, as a list or a matrix, and their labels; no rows make a
    (0, 13) table."""
    return Dataset(np.reshape(rows, (len(rows), N_FEATURES)),
                   [label is Label.RANSOMWARE for label in labels])


def label_and_merge(conv_sets: Sequence[tuple[Sequence[Conversation], Label]]) -> Dataset:
    """Encode and label conversation sets; concatenation keeps input order.

    No shuffle happens here; only split operations reorder data, and they
    do it deterministically from their seed.
    """
    if not conv_sets:
        raise EmptyInput("no conversation sets to merge")
    matrices, labels = [], []
    for i, (convs, label) in enumerate(conv_sets):
        matrices.append(encode_many(convs))
        if not len(matrices[-1]):
            raise EmptyInput(f"conversation set {i} is empty")
        labels.extend([label] * len(matrices[-1]))
    return _dataset(np.concatenate(matrices), labels)


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


def _dataset_row(values: list, line: int) -> tuple[np.ndarray, Label]:
    *fields, label = values
    return encode(_conversation(Conversation(*fields), line)), label


def read_dataset_csv(text) -> Dataset:
    rows, _skipped = _read_csv(text, DATASET_CSV_COLUMNS, "dataset", _dataset_row)
    return _dataset([vector for vector, _label in rows],
                    [label for _vector, label in rows])
