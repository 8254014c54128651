"""Time-stepping kernel: the batched first-order vector recursion, in numpy."""

from __future__ import annotations

import numpy as np

IMPL = "python"


def arma_recursion(step: np.ndarray, drive: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Iterate ``x[t] = step @ x[t-1] + drive[t]`` for t = 0..T-1.

    Parameters
    ----------
    step : (n, n) complex ndarray
    drive : (T, n, m) complex ndarray
        Forcing term per step; m is a batch axis (independent columns).
    x0 : (n, m) complex ndarray
        State at t = -1.

    Returns
    -------
    (T, n, m) complex ndarray with the state at t = 0..T-1.
    """
    step = np.asarray(step, dtype=np.complex128)
    out = np.array(drive, dtype=np.complex128)  # a copy, advanced in place
    prev = np.asarray(x0, dtype=np.complex128)
    for row in out:
        row += step @ prev
        prev = row
    return out
