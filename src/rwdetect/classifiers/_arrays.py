"""Numbers read back from a model file's JSON payload.

Every float a family reads from a payload passes through here, so a
file holding ``NaN`` or an infinity (``json.loads`` accepts both tokens)
fails to load instead of scoring NaN.  An integer given as a float or a
bool fails too, rather than loading truncated or writing back other bytes.
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


def integer(obj) -> int:
    """``obj`` if it is a JSON integer: neither a float nor a bool."""
    if type(obj) is not int:
        raise ValueError(f"expected an integer, got {obj!r}")
    return obj
