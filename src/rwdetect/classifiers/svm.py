"""Linear soft-margin SVM via deterministic full-batch subgradient descent.

Primal hinge-loss objective with regularization strength
``lambda = 1 / (C * n)`` and step size ``1 / (lambda * t)`` at iteration
t (from 1).  The bias is unregularized.  Scores map the signed decision
value through a sigmoid so the 0.5 threshold coincides with the margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidHyperparams
from ..features import N_FEATURES
from ._arrays import array, bounded, number

ALIAS = "svm"
SCALED = True


@dataclass(frozen=True)
class SvmParams:
    c: float = 1.0
    iterations: int = 100_000
    seed: int = 42


Params = SvmParams
CHECKS = (
    (lambda hp: hp.c > 0, "c must be positive"),
    (lambda hp: hp.iterations >= 1, "iterations must be at least 1"),
)


def fit(x: np.ndarray, y: np.ndarray, hp: SvmParams) -> dict:
    n = len(y)
    y_pm = y.astype(np.float64) * 2.0 - 1.0   # {0,1} -> {-1,+1}
    lam = 1.0 / (hp.c * n)
    if not 0.0 < lam < float("inf"):
        raise InvalidHyperparams(f"c={hp.c!r} gives the SVM no finite positive lambda on {n} rows")
    w = np.zeros(x.shape[1])
    b = 0.0
    for t in range(1, hp.iterations + 1):
        margins = y_pm * (x @ w + b)
        active = np.where(margins < 1.0, y_pm, 0.0)
        grad_w = lam * w - (x.T @ active) / n
        grad_b = -active.sum() / n
        eta = 1.0 / (lam * t)
        w = w - eta * grad_w
        b = b - eta * grad_b
    return {"weights": w.tolist(), "bias": float(b)}


def scores(state: dict, queries: np.ndarray) -> np.ndarray:
    z = np.clip(queries @ state["weights"] + state["bias"], -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-z))


KEYS = ("bias", "weights")


def params_in(obj: dict, hp: SvmParams) -> dict:
    """The state: ``weights`` (d,) as an array, ``bias`` a float."""
    state = {"weights": array(obj["weights"], (N_FEATURES,)), "bias": number(obj["bias"])}
    bounded(state["weights"], state["bias"])
    return state
