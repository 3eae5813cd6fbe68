"""Float arrays read back from a model file's JSON payload."""

import numpy as np


def vector(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a vector")
    return arr
