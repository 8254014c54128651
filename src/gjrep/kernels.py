"""Time-stepping kernel: the batched first-order vector recursion, in numpy."""

from __future__ import annotations

import numpy as np

IMPL = "python"


def arma_recursion(step: np.ndarray, drive: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Iterate ``x[t] = step @ x[t-1] + drive[t]`` for t = 0..T-1.

    The arithmetic follows the inputs: float64 when all three are real,
    complex128 when any of them is complex.

    The state is written over the drive, one row at a time.  A ``drive``
    that is already a writeable C-contiguous array of the result dtype is
    advanced in place: the result is ``drive`` itself, and its old values
    are gone.  Any other drive (a strided view, another dtype, a read-only
    array) is first copied into a C-ordered array of the result dtype and
    is left as it was.  A caller that needs its drive afterwards passes a
    copy.

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
    out = np.require(drive, dtype, ["C", "W"])
    prev = np.asarray(x0, dtype=dtype)
    for row in out:
        row += step @ prev
        prev = row
    return out
