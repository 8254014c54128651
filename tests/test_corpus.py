"""Every corpus entry against its own attached closed forms."""

import numpy as np
import pytest

from gjrep import (
    InputError,
    basic_residuals,
    basic_solution,
    default_radius,
    laurent_range,
    make,
    make_hierarchy_example,
    make_volterra_example,
    projections,
    regular_chain,
    sin_basis,
    singular_chain,
    solve_at,
    spectral_norm,
)
from oracles import max_principal_angle

ALL = ("matrix", "c0", "volterra", "hierarchy")


@pytest.mark.parametrize("name", ALL)
def test_attached_basic_is_exact(name):
    e = make(name)
    res = basic_residuals(e.basic, e.pencil)
    assert max(res.values()) <= 1e-12


@pytest.mark.parametrize("name", ALL)
def test_default_radius_matches(name):
    e = make(name)
    assert default_radius(e.pencil) == pytest.approx(e.expected["default_radius"])


@pytest.mark.parametrize("name", ALL)
def test_coefficient_laws(name):
    e = make(name)
    if "t_neg" in e.expected:
        for k in range(1, 5):
            want = e.expected["t_neg"](k)
            got = laurent_range(e.basic, e.pencil, -k, -k)[-k]
            assert np.abs(got - want).max() <= 1e-10 * max(
                1.0, spectral_norm(np.asarray(want, dtype=complex))
            ), (name, -k)
    if "t_pos" in e.expected:
        for ell in range(0, 5):
            want = e.expected["t_pos"](ell)
            got = laurent_range(e.basic, e.pencil, ell, ell)[ell]
            assert np.abs(got - want).max() <= 1e-10 * max(
                1.0, spectral_norm(np.asarray(want, dtype=complex))
            ), (name, ell)


@pytest.mark.parametrize("name", ("matrix", "c0", "hierarchy"))
def test_resolvent_laws(name):
    e = make(name)
    rad = default_radius(e.pencil)
    for ang in (0.3, 1.7, 3.1, 4.9):
        z = 1.0 + 0.8 * rad * np.exp(1j * ang)
        want = e.expected["resolvent"](z)
        got = solve_at(e.pencil, z)
        assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("name", ALL)
def test_projection_displays(name):
    e = make(name)
    pair = projections(e.basic, e.pencil)
    assert np.abs(pair.domain_sin - e.expected["domain_sin"]).max() <= 1e-10
    if "range_sin" in e.expected:
        assert np.abs(pair.range_sin - e.expected["range_sin"]).max() <= 1e-10
    if "range_reg" in e.expected:
        assert np.abs(pair.range_reg - e.expected["range_reg"]).max() <= 1e-10
        rank = int(round(np.trace(pair.range_reg).real))
        assert rank == e.expected["range_reg_rank"]


def test_c0_t_minus_two_block():
    e = make("c0", lam=0.25, n=10)
    got = laurent_range(e.basic, e.pencil, -2, -2)[-2]
    assert np.abs(got - e.expected["t_minus_two"]).max() <= 1e-12
    assert np.abs(got[:2, :2] - np.array([[0.0, 1.0], [0.0, 0.0]])).max() <= 1e-12


def test_c0_chain_rates():
    lam, n = 0.25, 10
    e = make("c0", lam=lam, n=n)
    for m in (1, 2, 3):
        seed = np.zeros(n)
        seed[1 + m] = 1.0
        srate = e.expected["singular_chain_rate"](m)
        res = singular_chain(e.pencil, seed, steps=20)
        assert res.tail_ratio == pytest.approx(srate, rel=1e-9), m
        rrate = e.expected["regular_chain_rate"](m)
        res = regular_chain(e.pencil, seed, steps=20)
        assert res.tail_ratio == pytest.approx(rrate, rel=1e-9), m


def test_sin_spans():
    for name in ("matrix", "c0"):
        e = make(name)
        basis = sin_basis(e.pencil)
        want = np.asarray(e.expected["sin_span"], dtype=complex)
        assert basis.shape[1] == want.shape[1]
        assert max_principal_angle(basis, want) <= 1e-8


def test_volterra_structure():
    n = 32
    e = make_volterra_example(n=n)
    v = e.pencil.c0
    # strictly lower triangular with constant 1/n below the diagonal
    assert np.abs(np.triu(v)).max() == 0.0
    lower = v[np.tril_indices(n, -1)]
    assert np.abs(lower - 1.0 / n).max() == 0.0
    # T_0 vanishes identically, T_{-1} inverts the nilpotent shift exactly
    assert np.abs(e.basic.t_zero).max() == 0.0
    eye = np.eye(n)
    assert np.abs((eye - v) @ (-e.basic.t_minus_one) - eye).max() <= 1e-13
    # structural zeros above the diagonal survive the triangular solve
    assert np.abs(np.triu(e.basic.t_minus_one, 1)).max() == 0.0


def test_volterra_norm_limit_improves_with_n():
    small = spectral_norm(make_volterra_example(n=16).pencil.c0)
    big = spectral_norm(make_volterra_example(n=128).pencil.c0)
    limit = 2.0 / np.pi
    assert abs(big - limit) < abs(small - limit)
    assert abs(big - limit) <= 1e-2


def test_volterra_section_resolvent_approaches_the_operator_kernel():
    # The finite section C_0 = V_n is the Volterra operator sampled on a grid
    # of step 1/n, and the operator's T_{-1} = -(I - V)^{-1} has the kernel
    # -e^{x - y} below the diagonal.  The section's n T_{-1}[i, j] is
    # -(1 + 1/n)^{d - 1} with d = i - j, so with x = d / n the error
    # e^x - (1 + 1/n)^{d - 1} = e^x (1 - exp((d - 1) ln(1 + 1/n) - x))
    # lies between e^x (1 - e^{-1/n}) and e^x (1/n + (d - 1) / (2 n^2)), from
    # h - h^2/2 <= ln(1 + h) <= h.  It grows with d, so its largest value,
    # at d = n - 1, lies within [e (1 - 3 / (2n)), 3e / 2] / n.  There the
    # expansion gives (3e/2 - 95e / (24n) + O(1/n^2)) / n, so each doubling
    # of n halves it up to 95 / (36n) + O(1/n^2).  The contour pair adds
    # rounding far below both.
    errors = {}
    for n in (32, 64, 128, 256):
        pencil = make_volterra_example(n=n).pencil
        t_m1 = basic_solution(pencil, radius=default_radius(pencil)).t_minus_one
        i, j = np.tril_indices(n, -1)
        errors[n] = np.abs(n * t_m1[i, j] + np.exp((i - j) / n)).max()
        assert np.e * (1 - 1.5 / n) <= n * errors[n] <= 1.5 * np.e, n
    for n in (32, 64, 128):
        assert abs(errors[n] / errors[2 * n] - 2) <= 4 / n, n


def test_volterra_power_norms_strictly_decreasing():
    e = make_volterra_example(n=64)
    v = e.pencil.c0
    acc = v.copy()
    rates = []
    for k in range(2, 41):
        acc = acc @ v
        rates.append(spectral_norm(acc) ** (1.0 / k))
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_hierarchy_eigenpair_and_aggregate():
    e = make_hierarchy_example(base=0.4, n=8)
    v, sigma = e.expected["eigenpair"]
    assert sigma == pytest.approx(sum(0.4 * 2.0 ** -k for k in range(1, 9)))
    assert np.abs(e.pencil.c0 @ v - sigma * v).max() <= 1e-12


def test_hierarchy_regular_chain_rate():
    # the minimum-norm solve seeds a singular-ladder component whose growth
    # swamps the eigen-chain; the stabilizing projection keeps the chain in
    # its subspace and recovers the true rate
    e = make_hierarchy_example(base=0.4, n=8)
    sigma = e.expected["eigenpair"][1]
    pair = projections(e.basic, e.pencil)
    seed = np.asarray(e.expected["range_reg"], dtype=complex)[:, -1]
    res = regular_chain(e.pencil, seed, steps=10, project=pair.domain_reg)
    assert res.tail_ratio == pytest.approx(1.0 / sigma, rel=1e-7)
    assert res.tail_ratio == pytest.approx(e.expected["regular_chain_rate"], rel=1e-7)

    bare = regular_chain(e.pencil, seed, steps=5)
    assert bare.tail_ratio > 10.0  # the unpinned chain climbs the ladder


def test_hierarchy_mass_cap():
    # total attention mass sigma must stay below one
    with pytest.raises(InputError):
        make_hierarchy_example(base=1.2, n=8)


def test_make_dispatch():
    e = make("matrix", eps=0.25)
    assert e.params == {"eps": 0.25}
    with pytest.raises(InputError):
        make("sideways")
