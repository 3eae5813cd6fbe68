"""k-nearest-neighbor classifier with deterministic tie handling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidHyperparams
from ..features import N_FEATURES
from ._arrays import array, integers, lists

ALIAS = "knn"
SCALED = True

#: Bytes of each (queries, points, features) float64 difference block in ``scores``.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class KnnParams:
    k: int = 5
    seed: int = 42


Params = KnnParams
CHECKS = ((lambda hp: hp.k >= 1, "k must be at least 1"),)


def fit(x: np.ndarray, y: np.ndarray, hp: KnnParams) -> dict:
    # Lazy learner: fitting just stores the data.
    return {"points": x.tolist(), "labels": y.tolist()}


def scores(state: dict, queries: np.ndarray) -> np.ndarray:
    """Fraction of positive labels among the k nearest training points.

    Squared Euclidean distance preserves the Euclidean ordering.  Distance
    ties resolve to the lower training index (stable argsort).
    """
    points, labels = state["points"], state["labels"]
    out = np.empty(len(queries))
    chunk = max(1, _BLOCK_BYTES // (8 * points.size))
    for start in range(0, len(queries), chunk):
        block = queries[start:start + chunk]
        d2 = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :state["k"]]
        out[start:start + chunk] = labels[nearest].mean(axis=1)
    return out


def params_out(state: dict) -> dict:
    return lists(state, KEYS)


KEYS = ("labels", "points")


def params_in(obj: dict, hp: KnnParams) -> dict:
    """The state: ``KEYS`` as arrays (points scaled, labels uint8), and ``k``."""
    labels = integers(obj["labels"])
    points = array(obj["points"], (None, N_FEATURES))
    if len(labels) != len(points):
        raise ValueError("labels and points disagree")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if ((points < 0) | (points > 1)).any():
        raise ValueError("points must lie in [0, 1], where queries are scaled")
    if hp.k > len(points):
        raise InvalidHyperparams("k cannot exceed the training-set size")
    return {"labels": labels.astype(np.uint8), "points": points, "k": hp.k}
