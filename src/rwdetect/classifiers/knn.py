"""k-nearest-neighbor classifier with deterministic tie handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidHyperparams
from ..features import N_FEATURES
from ._arrays import array

ALIAS = "knn"
SCALED = True

_CHUNK = 256  # bound the (queries x train) distance matrix


@dataclass(frozen=True)
class KnnParams:
    k: int = 5
    seed: int = 42


Params = KnnParams
CHECKS = ((lambda hp: hp.k >= 1, "k must be at least 1"),)


@dataclass
class KnnState:
    points: np.ndarray   # (n, d) float64, already scaled
    labels: np.ndarray   # (n,) uint8
    k: int               # copied from KnnParams so scoring needs only the state


def _check_k(k: int, points: np.ndarray) -> None:
    """Checks k against the data, at fit and at load."""
    if k > len(points):
        raise InvalidHyperparams("k cannot exceed the training-set size")


def fit(x: np.ndarray, y: np.ndarray, hp: KnnParams) -> KnnState:
    # Lazy learner: fitting just stores the data.
    _check_k(hp.k, x)
    return KnnState(np.array(x, dtype=np.float64), np.array(y, dtype=np.uint8),
                    hp.k)


def scores(state: KnnState, queries: np.ndarray) -> np.ndarray:
    """Fraction of positive labels among the k nearest training points.

    Squared Euclidean distance preserves the Euclidean ordering.  Distance
    ties resolve to the lower training index (stable argsort).
    """
    out = np.empty(len(queries))
    for start in range(0, len(queries), _CHUNK):
        block = queries[start:start + _CHUNK]
        d2 = ((block[:, None, :] - state.points[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :state.k]
        out[start:start + _CHUNK] = state.labels[nearest].mean(axis=1)
    return out


def params_out(state: KnnState) -> dict:
    return {"points": state.points.tolist(), "labels": state.labels.tolist()}


def params_in(obj: dict, hp: KnnParams) -> KnnState:
    labels = np.asarray(obj["labels"], dtype=np.uint8)
    points = array(obj["points"], (None, N_FEATURES))
    if labels.ndim != 1 or len(labels) != len(points):
        raise ValueError("labels and points disagree")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    _check_k(hp.k, points)
    return KnnState(points=points, labels=labels, k=hp.k)
