"""Numbers read back from a model file's JSON payload.

Every float a family reads from a payload passes through here, so a
file holding ``NaN`` or an infinity (``json.loads`` accepts both tokens)
fails to load instead of scoring NaN.
"""

import math

import numpy as np


def array(obj, shape: tuple) -> np.ndarray:
    """``obj`` as a finite float64 array; ``None`` in ``shape`` matches any size."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite number")
    return arr


def number(obj) -> float:
    value = float(obj)
    if not math.isfinite(value):
        raise ValueError("non-finite number")
    return value
