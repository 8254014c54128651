"""The numpy recursion kernel, and the literal convolution oracle's semantics."""

import numpy as np
import pytest

from gjrep import kernels
from oracles import causal_stack_apply, recursion_loop

RNG = np.random.default_rng(321)


def _pair(shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def test_impl_selected():
    assert kernels.IMPL == "python"


def test_arma_recursion_semantics():
    # Direct unrolled check against the recurrence definition.
    step = 0.3 * _pair((2, 2))
    drive = _pair((5, 2, 1))
    x0 = _pair((2, 1))
    out = kernels.arma_recursion(step, drive.copy(), x0)
    prev = x0
    for t in range(5):
        prev = step @ prev + drive[t]
        assert np.max(np.abs(out[t] - prev)) <= 1e-14


def test_causal_stack_semantics():
    stack = _pair((3, 2, 2))
    signal = _pair((6, 2))
    out = causal_stack_apply(stack, signal)
    for t in range(6):
        want = np.zeros(2, dtype=complex)
        for s in range(min(t, 2) + 1):
            want += stack[s] @ signal[t - s]
        assert np.max(np.abs(out[t] - want)) <= 1e-13


def test_stack_shorter_than_signal_and_longer():
    signal = _pair((4, 2))
    long_stack = _pair((10, 2, 2))
    short_stack = long_stack[:2]
    out_long = causal_stack_apply(long_stack, signal)
    # entries past the signal length never contribute
    out_trunc = causal_stack_apply(long_stack[:4], signal)
    assert np.max(np.abs(out_long - out_trunc)) <= 1e-14
    out_short = causal_stack_apply(short_stack, signal)
    want = np.array(
        [
            short_stack[0] @ signal[0],
            short_stack[0] @ signal[1] + short_stack[1] @ signal[0],
            short_stack[0] @ signal[2] + short_stack[1] @ signal[1],
            short_stack[0] @ signal[3] + short_stack[1] @ signal[2],
        ]
    )
    assert np.max(np.abs(out_short - want)) <= 1e-13


@pytest.mark.parametrize("n, m, steps", [(10, 100, 40), (64, 5, 40), (2, 1, 200), (17, 3, 60)])
def test_arma_recursion_real_inputs_stay_real(n, m, steps):
    # a real run equals the same run in complex128 to within a few ulps of max|x|
    rng = np.random.default_rng([n, m])
    step = 0.9 * np.linalg.qr(rng.standard_normal((n, n)))[0]
    drive = rng.standard_normal((steps, n, m))
    x0 = rng.standard_normal((n, m))
    out = kernels.arma_recursion(step, drive.copy(), x0)
    assert out.dtype == np.float64
    want = kernels.arma_recursion(step.astype(complex), drive.astype(complex), x0.astype(complex))
    assert want.dtype == np.complex128
    assert np.max(np.abs(out - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want))


def test_arma_recursion_complex_if_any_input_is():
    step = 0.3 * RNG.standard_normal((2, 2))
    drive = RNG.standard_normal((4, 2, 1))
    x0 = np.zeros((2, 1))
    for args in (
        (step.astype(complex), drive, x0),
        (step, drive.astype(complex), x0),
        (step, drive, x0.astype(complex)),
        (_pair((2, 2)), _pair((4, 2, 1)), _pair((2, 1))),
    ):
        assert kernels.arma_recursion(*args).dtype == np.complex128


def test_arma_recursion_strided_drive():
    # a transposed view is laid out by the kernel's own copy
    step = 0.3 * _pair((3, 3))
    drive = _pair((4, 50, 3)).transpose(1, 2, 0)
    x0 = _pair((3, 4))
    out = kernels.arma_recursion(step, drive, x0)
    assert out.flags.c_contiguous
    assert np.array_equal(out, kernels.arma_recursion(step, np.ascontiguousarray(drive), x0))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_conforming_drive_is_advanced_in_place(kind):
    # a C-contiguous drive of the result dtype becomes the result
    draw = RNG.standard_normal if kind == "real" else _pair
    step = 0.3 * draw((3, 3))
    drive = draw((40, 3, 5))
    x0 = draw((3, 5))
    want = recursion_loop(step, drive, x0)
    out = kernels.arma_recursion(step, drive, x0)
    assert out is drive
    assert np.array_equal(out, want)


@pytest.mark.parametrize(
    "drive",
    [
        _pair((5, 40, 3)).transpose(1, 2, 0),  # strided view
        _pair((40, 3, 5))[::2],  # strided rows
        RNG.standard_normal((40, 3, 5)),  # float64 under a complex step
        RNG.standard_normal((40, 3, 5)).astype(np.float32),  # float32 under a real step
        np.frombuffer(_pair((40, 3, 5)).tobytes(), dtype=complex).reshape(40, 3, 5),  # read-only
    ],
    ids=["transposed", "every_other_row", "float64_drive", "float32_drive", "read_only"],
)
def test_other_drives_are_copied_and_left_alone(drive):
    step = 0.3 * (_pair((3, 3)) if drive.dtype == np.float64 else RNG.standard_normal((3, 3)))
    x0 = np.zeros((3, 5))
    before = drive.copy()
    out = kernels.arma_recursion(step, drive, x0)
    assert not np.shares_memory(out, drive)
    assert out.flags.c_contiguous
    assert np.array_equal(drive, before)
    assert np.array_equal(out, recursion_loop(step, before, x0))
