"""Time-stepping kernel: the batched first-order vector recursion, in numpy."""

from __future__ import annotations

import numpy as np

IMPL = "python"


def arma_recursion(step: np.ndarray, drive: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Iterate ``x[t] = step @ x[t-1] + drive[t]`` for t = 0..T-1.

    The arithmetic follows the inputs: float64 when all three are real,
    complex128 when any of them is complex.

    Parameters
    ----------
    step : (n, n) real or complex ndarray
    drive : (T, n, m) real or complex ndarray
        Forcing term per step; m is a batch axis (independent columns).
    x0 : (n, m) real or complex ndarray
        State at t = -1.

    Returns
    -------
    (T, n, m) ndarray of dtype ``np.result_type(step, drive, x0, np.float64)``
    with the state at t = 0..T-1.
    """
    dtype = np.result_type(step, drive, x0, np.float64)
    step = np.asarray(step, dtype=dtype)
    out = np.array(drive, dtype=dtype, order="C")  # a C-ordered copy, advanced in place
    prev = np.asarray(x0, dtype=dtype)
    for row in out:
        row += step @ prev
        prev = row
    return out
