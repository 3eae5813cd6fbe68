"""Numbers read from a model file's JSON payload.

Every number a family reads from a payload passes through here, so a
file holding ``NaN`` or an infinity (``json.loads`` accepts both tokens)
fails to load instead of scoring NaN.  A float field must hold a JSON
float and an integer field a JSON integer: ``true`` or ``1`` for a float,
or ``1.0`` for an integer, would load as another value or type than the
file holds.
"""

import math
from itertools import chain

import numpy as np


def array(obj, shape: tuple) -> np.ndarray:
    """``obj`` as a finite float64 array; ``None`` in ``shape`` matches any size."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    cells = obj
    for _ in range(arr.ndim - 1):
        cells = list(chain.from_iterable(cells))
    if not set(map(type, cells)) <= {float}:
        number(next(v for v in cells if type(v) is not float))
    if not np.isfinite(arr).all():
        raise ValueError("non-finite number")
    return arr


def bounded(weights: np.ndarray, bias) -> None:
    """Raise ValueError unless each output's |weights| and |bias| sum finite."""
    with np.errstate(over="ignore"):
        total = np.abs(weights).sum(axis=0) + np.abs(bias)
    if not np.isfinite(total).all():
        raise ValueError("weights and bias too large: a weighted sum could overflow")


def number(obj) -> float:
    if type(obj) is not float:
        raise ValueError(f"expected a float, got {obj!r}")
    if not math.isfinite(obj):
        raise ValueError("non-finite number")
    return obj


def integer(obj) -> int:
    """``obj`` if it is a JSON integer: neither a float nor a bool."""
    if type(obj) is not int:
        raise ValueError(f"expected an integer, got {obj!r}")
    return obj


def integers(values) -> np.ndarray:
    """A sequence of ``integer`` values as an int64 array."""
    if not set(map(type, values)) <= {int}:
        integer(next(v for v in values if type(v) is not int))
    return np.array(values, dtype=np.int64)
