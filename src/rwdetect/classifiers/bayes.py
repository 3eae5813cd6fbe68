"""Gaussian naive Bayes over the raw (unscaled) features.

Per class and feature a normal density is fitted with population
variance (ddof=0).  Variances get an additive smoothing term of
``var_smoothing`` times the largest overall feature variance, floored
at the smallest positive double so all-constant features stay usable.
Scores are the positive-class posterior computed with a stable
log-sum-exp; where both class densities underflow to zero, the priors
alone give the score.
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


def fit(x: np.ndarray, y: np.ndarray, hp: BayesParams) -> dict:
    pos = x[y == 1]
    neg = x[y == 0]
    epsilon = hp.var_smoothing * float(x.var(axis=0).max())
    if epsilon <= 0.0:
        epsilon = float(np.finfo(np.float64).tiny)
    n = len(y)
    return {"log_prior_pos": float(np.log(len(pos) / n)),
            "log_prior_neg": float(np.log(len(neg) / n)),
            "mean_pos": pos.mean(axis=0).tolist(),
            "var_pos": (pos.var(axis=0) + epsilon).tolist(),
            "mean_neg": neg.mean(axis=0).tolist(),
            "var_neg": (neg.var(axis=0) + epsilon).tolist()}


def _log_likelihood(queries, mean, var, log_prior):
    with np.errstate(over="ignore"):    # a density that underflows is -inf
        quad = ((queries - mean) ** 2) / var
        return log_prior - 0.5 * (np.log(var) + _LOG_2PI + quad).sum(axis=1)


def scores(state: dict, queries: np.ndarray) -> np.ndarray:
    ll_pos = _log_likelihood(queries, state["mean_pos"], state["var_pos"],
                             state["log_prior_pos"])
    ll_neg = _log_likelihood(queries, state["mean_neg"], state["var_neg"],
                             state["log_prior_neg"])
    lost = (ll_pos == -np.inf) & (ll_neg == -np.inf)
    if lost.any():      # both densities underflowed: the priors decide
        ll_pos[lost], ll_neg[lost] = state["log_prior_pos"], state["log_prior_neg"]
    peak = np.maximum(ll_pos, ll_neg)
    e_pos = np.exp(ll_pos - peak)
    e_neg = np.exp(ll_neg - peak)
    return e_pos / (e_pos + e_neg)


KEYS = ("log_prior_neg", "log_prior_pos", "mean_neg", "mean_pos", "var_neg", "var_pos")


def params_in(obj: dict, hp: BayesParams) -> dict:
    """The state: the means and variances (d,) as arrays, the log priors floats."""
    state = {key: array(obj[key], (N_FEATURES,))
             for key in ("mean_pos", "var_pos", "mean_neg", "var_neg")}
    if (state["var_pos"] <= 0).any() or (state["var_neg"] <= 0).any():
        raise ValueError("variances must be positive")
    log_priors = {key: number(obj[key]) for key in ("log_prior_pos", "log_prior_neg")}
    if max(log_priors.values()) > 0:
        raise ValueError("log priors must be at most 0: they are log probabilities")
    return state | log_priors
