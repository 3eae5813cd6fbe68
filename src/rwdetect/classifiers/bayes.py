"""Gaussian naive Bayes over the raw (unscaled) features.

Per class and feature a normal density is fitted with population
variance (ddof=0).  Variances get an additive smoothing term of
``var_smoothing`` times the largest overall feature variance, floored
at the smallest positive double so all-constant features stay usable.
Scores are the positive-class posterior computed with a stable
log-sum-exp.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import N_FEATURES
from ._arrays import array, number

ALIAS = "bayes"
SCALED = False

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class BayesParams:
    var_smoothing: float = 1e-9
    seed: int = 42


Params = BayesParams
CHECKS = ((lambda hp: hp.var_smoothing >= 0, "var_smoothing must be non-negative"),)


@dataclass
class BayesState:
    log_prior_pos: float
    log_prior_neg: float
    mean_pos: np.ndarray
    var_pos: np.ndarray
    mean_neg: np.ndarray
    var_neg: np.ndarray


def fit(x: np.ndarray, y: np.ndarray, hp: BayesParams) -> BayesState:
    pos = x[y == 1]
    neg = x[y == 0]
    epsilon = hp.var_smoothing * float(x.var(axis=0).max())
    if epsilon <= 0.0:
        epsilon = float(np.finfo(np.float64).tiny)
    n = len(y)
    return BayesState(
        log_prior_pos=float(np.log(len(pos) / n)),
        log_prior_neg=float(np.log(len(neg) / n)),
        mean_pos=pos.mean(axis=0),
        var_pos=pos.var(axis=0) + epsilon,
        mean_neg=neg.mean(axis=0),
        var_neg=neg.var(axis=0) + epsilon,
    )


def _log_likelihood(queries, mean, var, log_prior):
    quad = ((queries - mean) ** 2) / var
    return log_prior - 0.5 * (np.log(var) + _LOG_2PI + quad).sum(axis=1)


def scores(state: BayesState, queries: np.ndarray) -> np.ndarray:
    ll_pos = _log_likelihood(queries, state.mean_pos, state.var_pos,
                             state.log_prior_pos)
    ll_neg = _log_likelihood(queries, state.mean_neg, state.var_neg,
                             state.log_prior_neg)
    peak = np.maximum(ll_pos, ll_neg)
    e_pos = np.exp(ll_pos - peak)
    e_neg = np.exp(ll_neg - peak)
    return e_pos / (e_pos + e_neg)


def params_out(state: BayesState) -> dict:
    return {"log_prior_pos": state.log_prior_pos,
            "log_prior_neg": state.log_prior_neg,
            "mean_pos": state.mean_pos.tolist(),
            "var_pos": state.var_pos.tolist(),
            "mean_neg": state.mean_neg.tolist(),
            "var_neg": state.var_neg.tolist()}


def params_in(obj: dict, hp: BayesParams) -> BayesState:
    mean_pos, var_pos, mean_neg, var_neg = (
        array(obj[key], (N_FEATURES,))
        for key in ("mean_pos", "var_pos", "mean_neg", "var_neg"))
    if (var_pos <= 0).any() or (var_neg <= 0).any():
        raise ValueError("variances must be positive")
    return BayesState(number(obj["log_prior_pos"]), number(obj["log_prior_neg"]),
                      mean_pos, var_pos, mean_neg, var_neg)
