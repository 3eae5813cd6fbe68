"""Single-hidden-layer perceptron trained by full-batch gradient descent.

Architecture: inputs -> hidden (sigmoid) -> 1 output (sigmoid), trained
against binary cross-entropy.  Weights initialize uniformly in
[-0.5, 0.5) from the seeded generator (hidden layer drawn first, then
output layer); biases start at zero.  ``forward``, ``loss`` and
``gradients`` are module-level so the backpropagation math can be
checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import N_FEATURES
from ._arrays import array, bounded, lists

ALIAS = "mlp"
SCALED = True


@dataclass(frozen=True)
class MlpParams:
    hidden_units: int = 16
    learning_rate: float = 0.1
    epochs: int = 500
    seed: int = 42


Params = MlpParams
CHECKS = (
    (lambda hp: hp.hidden_units >= 1, "hidden_units must be at least 1"),
    (lambda hp: hp.learning_rate > 0, "learning_rate must be positive"),
    (lambda hp: hp.epochs >= 1, "epochs must be at least 1"),
)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def init_state(n_inputs: int, hidden_units: int, seed: int) -> dict:
    """``w1`` (d, hidden), ``b1`` (hidden,), ``w2`` (hidden, 1) and ``b2`` (1,)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    w1 = rng.uniform(-0.5, 0.5, size=(n_inputs, hidden_units))
    w2 = rng.uniform(-0.5, 0.5, size=(hidden_units, 1))
    return {"w1": w1, "b1": np.zeros(hidden_units), "w2": w2, "b2": np.zeros(1)}


def forward(state: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (n, hidden) and output probabilities (n,)."""
    hidden = _sigmoid(x @ state["w1"] + state["b1"])
    output = _sigmoid(hidden @ state["w2"] + state["b2"].reshape(1, 1)).ravel()
    return hidden, output


def loss(state: dict, x: np.ndarray, y: np.ndarray) -> float:
    _, out = forward(state, x)
    out = np.clip(out, 1e-12, 1.0 - 1e-12)
    y = y.astype(np.float64)
    return float(-(y * np.log(out) + (1.0 - y) * np.log(1.0 - out)).mean())


def gradients(state: dict, x: np.ndarray, y: np.ndarray):
    """Mean-BCE gradients for (w1, b1, w2, b2)."""
    hidden, out = forward(state, x)
    n = len(y)
    delta_out = (out - y.astype(np.float64)) / n            # d(loss)/d(z2)
    gw2 = hidden.T @ delta_out[:, None]
    gb2 = np.array([delta_out.sum()])
    delta_hidden = delta_out[:, None] * state["w2"].ravel()[None, :] \
        * hidden * (1.0 - hidden)
    gw1 = x.T @ delta_hidden
    gb1 = delta_hidden.sum(axis=0)
    return gw1, gb1, gw2, gb2


def fit(x: np.ndarray, y: np.ndarray, hp: MlpParams) -> dict:
    state = init_state(x.shape[1], hp.hidden_units, hp.seed)
    lr = hp.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):  # train rejects what diverges
        for _ in range(hp.epochs):
            gw1, gb1, gw2, gb2 = gradients(state, x, y)
            state["w1"] -= lr * gw1
            state["b1"] -= lr * gb1
            state["w2"] -= lr * gw2
            state["b2"] -= lr * gb2
    return lists(state, KEYS)


def scores(state: dict, queries: np.ndarray) -> np.ndarray:
    return forward(state, queries)[1]


def params_out(state: dict) -> dict:
    return lists(state, KEYS)


KEYS = ("b1", "b2", "w1", "w2")


def params_in(obj: dict, hp: MlpParams) -> dict:
    w1 = array(obj["w1"], (N_FEATURES, None))
    hidden = w1.shape[1]
    if hidden != hp.hidden_units:
        raise ValueError(f"w1 has {hidden} hidden units, hyperparameters say {hp.hidden_units}")
    state = {"w1": w1, "b1": array(obj["b1"], (hidden,)),
             "w2": array(obj["w2"], (hidden, 1)), "b2": array(obj["b2"], (1,))}
    bounded(state["w1"], state["b1"])
    bounded(state["w2"], state["b2"])
    return state
