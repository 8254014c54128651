"""Polynomial linearization and ARMA(p, q) stacking."""

import numpy as np
import pytest

from gjrep import (
    InputError,
    LinearPencil,
    PolynomialPencil,
    Trajectory,
    augment,
    basic_solution,
    laurent_range,
    ma1_g,
    reduce_arma,
    simulate_recursion,
    unpack_laurent,
    verify_fundamental,
)
from oracles import arma_pq_path, trapezoid_laurent


def unit_root_poly(seed=5, n=2):
    rng = np.random.default_rng(seed)
    u = np.array([[1.0], [0.5]])
    c0 = u @ np.array([[1.0, -1.0]])
    c1 = rng.standard_normal((n, n))
    c2 = 0.3 * rng.standard_normal((n, n))
    return PolynomialPencil((c0, c1, c2))


def test_polynomial_evaluate_horner():
    poly = unit_root_poly()
    z = 1.4 + 0.2j
    w = z - 1.0
    want = poly.coeffs[0] + poly.coeffs[1] * w + poly.coeffs[2] * w * w
    assert np.abs(poly.evaluate(z) - want).max() <= 1e-14
    assert poly.degree == 2
    assert poly.dim == 2


def test_degree_one_passthrough():
    rng = np.random.default_rng(0)
    c0, c1 = rng.standard_normal((2, 2, 2))
    aug = augment(PolynomialPencil((c0, c1)))
    assert isinstance(aug, LinearPencil)
    assert np.array_equal(aug.c0, c0.astype(complex))
    assert np.array_equal(aug.c1, c1.astype(complex))


def test_block_layout_p2():
    poly = unit_root_poly()
    c0_, c1_, c2_ = poly.coeffs
    aug = augment(poly)
    z = np.zeros((2, 2))
    want_c0 = np.block([[c0_, z], [c1_, c0_]])
    want_c1 = np.block([[c2_, c1_], [z, c2_]])
    assert np.abs(aug.c0 - want_c0).max() == 0.0
    assert np.abs(aug.c1 - want_c1).max() == 0.0


def test_block_layout_p3_first_column():
    rng = np.random.default_rng(1)
    coeffs = tuple(rng.standard_normal((2, 2)) for _ in range(4))
    aug = augment(PolynomialPencil(coeffs))
    got = aug.c0[:, :2]
    want = np.vstack([coeffs[0], coeffs[1], coeffs[2]])
    assert np.abs(got - want).max() == 0.0


def test_unpack_and_polynomial_fundamental():
    poly = unit_root_poly()
    aug = augment(poly)
    basic = basic_solution(aug)
    exp = laurent_range(basic, aug, -3, 4)
    tmap, disagreement = unpack_laurent(poly, exp)
    assert disagreement <= 1e-9
    # coverage: indices j*p + a - b for j in [-3, 4], p = 2
    assert min(tmap) == -7 and max(tmap) == 9
    rep = verify_fundamental(poly, tmap, -1, 4)
    assert rep.passed
    assert rep.max_residual <= 1e-9


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_polynomial_fundamental_catches_a_relative_error_at_any_scale(scale):
    poly = unit_root_poly()
    aug = augment(poly)
    basic = basic_solution(aug)
    tmap, _ = unpack_laurent(poly, laurent_range(basic, aug, -3, 4))
    scaled = PolynomialPencil(tuple(c * scale for c in poly.coeffs))
    clean = {j: t / scale for j, t in tmap.items()}
    assert verify_fundamental(scaled, clean, -1, 4).passed
    for j in (-1, 0, 1, 2):
        planted = dict(clean)
        planted[j] = clean[j] * (1 + 1e-6)
        assert not verify_fundamental(scaled, planted, -1, 4).passed, j


def test_unpacked_blocks_match_direct_quadrature():
    # the unpacked polynomial coefficients are Laurent coefficients of the
    # polynomial's own resolvent; check against a fresh Cauchy integral of
    # inv(A(z)) done with quadratic Horner evaluation
    poly = unit_root_poly()
    aug = augment(poly)
    basic = basic_solution(aug)
    exp = laurent_range(basic, aug, -2, 2)
    tmap, _ = unpack_laurent(poly, exp)
    radius = 0.35
    nodes = 4096
    for m in (-2, -1, 0, 1, 2):
        acc = np.zeros((2, 2), dtype=np.complex128)
        for k in range(nodes):
            w = radius * np.exp(2j * np.pi * k / nodes)
            acc += np.linalg.inv(poly.evaluate(1.0 + w)) * w ** (-m)
        want = acc / nodes
        assert np.abs(tmap[m] - want).max() <= 1e-9


def test_unpack_inconsistent_blocks_raise():
    poly = unit_root_poly()
    aug = augment(poly)
    basic = basic_solution(aug)
    exp = laurent_range(basic, aug, -2, 2)
    coeffs = {j: m.copy() for j, m in exp.items()}
    coeffs[0][0, 0] += 1.0  # corrupt one copy of a repeated block
    # the disagreement is reported; analyze judges it
    _, disagreement = unpack_laurent(poly, coeffs)
    assert disagreement > 0.1


def test_reduce_arma_11_identity():
    rng = np.random.default_rng(2)
    a = [np.eye(2), 0.4 * rng.standard_normal((2, 2))]
    f = [np.eye(2), 0.3 * rng.standard_normal((2, 2))]
    stacked = reduce_arma(a, f)
    assert stacked.block == 1
    assert np.array_equal(stacked.a0, a[0].astype(complex))
    assert np.array_equal(stacked.a1, a[1].astype(complex))
    assert np.array_equal(stacked.f0, f[0].astype(complex))
    assert np.array_equal(stacked.f1, f[1].astype(complex))


def test_reduce_arma_23_layout():
    rng = np.random.default_rng(3)
    a = [np.eye(2)] + [0.2 * rng.standard_normal((2, 2)) for _ in range(2)]
    f = [np.eye(2)] + [0.2 * rng.standard_normal((2, 2)) for _ in range(3)]
    stacked = reduce_arma(a, f)
    assert stacked.block == 3
    # first block-column of the stacked lag-0 matrix carries A_0, A_1, A_2
    got = stacked.a0[:, :2]
    want = np.vstack([a[0], a[1], a[2]])
    assert np.abs(got - want).max() == 0.0
    # top-right block of the lag-1 moving-average matrix carries F_1
    got = stacked.f1[:2, 4:]
    assert np.abs(got - f[1]).max() == 0.0


def test_stacked_path_equals_direct_recursion():
    rng = np.random.default_rng(7)
    a = [np.eye(2)] + [0.25 * rng.standard_normal((2, 2)) for _ in range(2)]
    f = [np.eye(2)] + [0.25 * rng.standard_normal((2, 2)) for _ in range(3)]
    stacked = reduce_arma(a, f)
    r = stacked.block
    t_end = 60
    blocks = (t_end + 1 + r - 1) // r + 1
    w = Trajectory(
        start=-r,
        values=(rng.standard_normal(((blocks + 1) * r, 2))).astype(complex),
    )
    big_w = stacked.stack(w)
    model = stacked.model()
    g = ma1_g(model, big_w)
    y = simulate_recursion(model, g, blocks - 1)
    x_from_blocks = stacked.unstack(y)

    # the literal ARMA(p, q) recursion on the original time axis
    want = arma_pq_path(a, f, w.values, w.start, t_end)
    assert np.abs(x_from_blocks.window(0, t_end) - want).max() <= 1e-12


def test_stack_validation():
    stacked = reduce_arma(
        [np.eye(2), np.eye(2) * 0.1, np.eye(2) * 0.1],
        [np.eye(2), np.eye(2) * 0.1],
    )
    with pytest.raises(InputError):
        stacked.stack(Trajectory(start=0, values=np.zeros((6, 2))))
    with pytest.raises(InputError):
        reduce_arma([], [np.eye(2)])
