"""Laurent machinery against frozen closed forms and a fresh quadrature oracle."""

import tracemalloc

import numpy as np
import pytest

from gjrep import (
    ClassificationInconclusive,
    InputError,
    LinearPencil,
    PolynomialPencil,
    SingularMatrixError,
    annulus_estimate,
    augment,
    basic_residuals,
    basic_solution,
    classify_singularity,
    closed_form_resolvent,
    contour_coefficients,
    default_radius,
    laurent_coefficient,
    laurent_range,
    make,
    projections,
    separate,
    singular_offsets,
    solve_at,
    spectral_norm,
    verify_fundamental,
)
from oracles import (
    j2_similarity,
    random_unit_root_pencil,
    scalar_laurent,
    trapezoid_doubling,
    trapezoid_laurent,
)

# frozen closed forms for the 2x2 example at eps = 0.5
MX_C0 = np.array([[0.0, -0.5], [0.0, 0.0]])
MX_C1 = np.array([[-1.0, 0.0], [-1.0, -1.0]])
MX_TM1 = np.array([[0.0, -1.0], [0.0, 0.0]])
MX_T0 = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
MX_P = np.array([[1.0, 1.0], [0.0, 0.0]])
MX_Q = np.array([[0.0, 1.0], [0.0, 1.0]])


def test_matrix_example_frozen_basic():
    e = make("matrix", eps=0.5)
    assert np.allclose(e.pencil.c0, MX_C0, atol=0)
    assert np.allclose(e.pencil.c1, MX_C1, atol=0)
    assert np.abs(e.basic.t_minus_one - MX_TM1).max() <= 1e-12
    assert np.abs(e.basic.t_zero - MX_T0).max() <= 1e-12


def test_matrix_example_contour_recovers_basic():
    pencil = LinearPencil(c0=MX_C0, c1=MX_C1)
    basic = basic_solution(pencil, radius=0.25)
    assert np.abs(basic.t_minus_one - MX_TM1).max() <= 1e-12
    assert np.abs(basic.t_zero - MX_T0).max() <= 1e-12


def test_matrix_example_regular_coefficients_law():
    e = make("matrix", eps=0.5)
    eps = 0.5
    block = np.array([[1.0, -1.0], [-1.0, 1.0]])
    for ell in range(0, 6):
        want = block / eps ** (ell + 1)
        got = laurent_coefficient(e.basic, e.pencil, ell)
        assert np.abs(got - want).max() <= 1e-10 * spectral_norm(want)


def _degree2_augmented():
    rng = np.random.default_rng(5)
    c0 = rng.standard_normal((4, 1)) @ rng.standard_normal((1, 4))
    poly = PolynomialPencil((c0, rng.standard_normal((4, 4)), 0.3 * np.eye(4)))
    return augment(poly).pencil


CONTOUR_PENCILS = {
    "volterra64": lambda: make("volterra", n=64).pencil,
    "cascade8": lambda: make("hierarchy", n=8).pencil,
    "similarity16": lambda: LinearPencil(*j2_similarity(16, 11)),
    "degree2": _degree2_augmented,
}


@pytest.mark.parametrize("name", CONTOUR_PENCILS)
def test_contour_matches_all_node_trapezoid(name):
    # running sums over the new odd nodes give the all-node rule of each round
    pencil = CONTOUR_PENCILS[name]()
    radius = default_radius(pencil)
    got, info = contour_coefficients(pencil, (-1, 0), radius)
    want, nodes = trapezoid_doubling(pencil.c0, pencil.c1, (-1, 0), radius)
    assert info == {"radius": radius, "nodes": nodes}
    scale = max(spectral_norm(want[j]) for j in want)
    for j in want:
        assert spectral_norm(got[j] - want[j]) <= 1e-13 * scale


def test_contour_keeps_no_node_values():
    # a cache of all 64 node values peaks at about 71 blocks (18.6 MB)
    pencil = make("volterra", n=128).pencil
    radius = default_radius(pencil)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        _, info = contour_coefficients(pencil, (-1, 0), radius)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert info["nodes"] == 64
    assert peak <= 16 * pencil.dim**2 * 16  # 16 complex n x n blocks, 4.2 MB


@pytest.mark.parametrize("name,j_window", [("matrix", (-3, 3)), ("c0", (-3, 3))])
def test_quadrature_oracle_agreement(name, j_window):
    e = make(name)
    rad = default_radius(e.pencil)
    for j in range(j_window[0], j_window[1] + 1):
        want = trapezoid_laurent(e.pencil.c0, e.pencil.c1, j, rad)
        got = laurent_coefficient(e.basic, e.pencil, j)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-9 * scale, f"{name} T_{j}"


def test_default_radius_values():
    assert default_radius(make("matrix", eps=0.5).pencil) == pytest.approx(0.25)
    assert default_radius(make("c0", lam=0.25, n=10).pencil) == pytest.approx(1.5)
    assert default_radius(make("volterra", n=16).pencil) == pytest.approx(1.0)
    assert default_radius(make("hierarchy", base=0.4, n=8).pencil) == pytest.approx(
        0.3984375 / 2.0
    )


def test_singular_offsets_matrix():
    # the anchor contributes the zero offset; the other singularity sits at eps
    offs = np.sort(np.abs(singular_offsets(make("matrix", eps=0.5).pencil)))
    assert offs.size == 2
    assert offs[0] == pytest.approx(0.0, abs=1e-12)
    assert offs[1] == pytest.approx(0.5)


def test_solve_at_anchor_raises():
    with pytest.raises(SingularMatrixError):
        solve_at(make("matrix").pencil, 1.0)


def test_solve_at_matches_inverse():
    e = make("c0")
    z = 1.3 + 0.4j
    want = np.linalg.inv(e.pencil.evaluate(z))
    assert np.abs(solve_at(e.pencil, z) - want).max() <= 1e-12


def test_classifications():
    cases = {
        "matrix": ("pole", 1),
        "c0": ("pole", 2),
        "hierarchy": ("pole", 8),
    }
    for name, (kind, order) in cases.items():
        e = make(name)
        s = classify_singularity(e.basic, e.pencil)
        assert (s.kind, s.order) == (kind, order), name
    e = make("volterra", n=32)
    s = classify_singularity(e.basic, e.pencil)
    assert (s.kind, s.order) == ("essential_at_truncation", 32)


def test_classification_removable():
    pencil = LinearPencil(c0=np.eye(2) * 2.0, c1=np.array([[0.3, 0.1], [0.0, 0.2]]))
    basic = basic_solution(pencil, radius=1.0)
    s = classify_singularity(basic, pencil)
    assert s.kind == "removable"
    assert np.abs(basic.t_zero - np.eye(2) / 2.0).max() <= 1e-12


def test_annulus_estimates():
    e = make("matrix", eps=0.5)
    s_hat, r_hat = annulus_estimate(e.basic, e.pencil)
    assert s_hat == 0.0
    assert abs(r_hat - 0.5) <= 0.05
    e = make("c0")
    s_hat, r_hat = annulus_estimate(e.basic, e.pencil)
    assert s_hat == 0.0
    assert abs(r_hat - 3.0) <= 0.3
    e = make("volterra", n=32)
    s_hat, r_hat = annulus_estimate(e.basic, e.pencil)
    assert s_hat > 0.1
    assert np.isinf(r_hat)
    e = make("hierarchy")
    s_hat, r_hat = annulus_estimate(e.basic, e.pencil)
    assert s_hat == 0.0
    assert abs(r_hat - 0.3984375) <= 0.04


def test_projections_frozen_and_idempotent():
    e = make("matrix", eps=0.5)
    pair = projections(e.basic, e.pencil)
    assert np.abs(pair.domain_sin - MX_P).max() <= 1e-12
    assert np.abs(pair.range_sin - MX_Q).max() <= 1e-12
    for proj in (pair.domain_sin, pair.domain_reg, pair.range_sin, pair.range_reg):
        assert np.abs(proj @ proj - proj).max() <= 1e-12
    assert np.abs(pair.domain_sin + pair.domain_reg - np.eye(2)).max() <= 1e-12
    assert np.abs(pair.range_sin + pair.range_reg - np.eye(2)).max() <= 1e-12


def test_separation_blocks_vanish():
    for name in ("matrix", "c0", "hierarchy"):
        e = make(name)
        pair = projections(e.basic, e.pencil)
        rep = separate(pair, e.pencil)
        assert rep.passed, name
        assert max(rep.off_residuals.values()) <= 1e-10


def test_fundamental_window():
    e = make("c0")
    exp = laurent_range(e.basic, e.pencil, -3, 6)
    rep = verify_fundamental(e.pencil, exp.coefficients, -2, 6)
    assert rep.passed
    assert rep.max_residual <= 1e-10
    assert rep.js == tuple(range(-2, 7))
    # missing coefficients must be rejected, not silently zero-filled
    with pytest.raises(InputError):
        verify_fundamental(e.pencil, exp.coefficients, -4, 6)


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_fundamental_catches_a_relative_error_at_any_scale(scale):
    # every C_i times scale and every T_j over it leave the identities and
    # the relative size of a planted error unchanged
    e = make("c0")
    pencil = LinearPencil(e.pencil.c0 * scale, e.pencil.c1 * scale)
    table = laurent_range(e.basic, e.pencil, -3, 6).coefficients
    clean = {j: t / scale for j, t in table.items()}
    assert verify_fundamental(pencil, clean, -2, 6).passed
    for j in (-2, -1, 0, 1, 2):
        planted = dict(clean)
        planted[j] = clean[j] * (1 + 1e-6)
        assert not verify_fundamental(pencil, planted, -2, 6).passed, j


def test_fundamental_rejects_an_empty_window():
    e = make("c0")
    table = laurent_range(e.basic, e.pencil, -3, 6).coefficients
    with pytest.raises(InputError):
        verify_fundamental(e.pencil, table, 3, 2)


def test_laurent_range_rejects_empty():
    e = make("matrix")
    with pytest.raises(InputError):
        laurent_range(e.basic, e.pencil, 3, -3)


def test_closed_form_resolvent_matches_solve():
    for name in ("matrix", "c0", "hierarchy"):
        e = make(name)
        rad = default_radius(e.pencil)
        for ang in (0.0, 1.0, 2.5, 4.0):
            z = 1.0 + 0.7 * rad * np.exp(1j * ang)
            got = closed_form_resolvent(e.basic, e.pencil, z)
            want = solve_at(e.pencil, z)
            assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_basic_residuals_small_everywhere():
    for name in ("matrix", "c0", "volterra", "hierarchy"):
        e = make(name)
        res = basic_residuals(e.basic, e.pencil)
        assert max(res.values()) <= 1e-12, name


def test_scalar_against_closed_form():
    # regular scalar pencil
    pencil = LinearPencil(c0=np.array([[2.0]]), c1=np.array([[0.7]]))
    basic = basic_solution(pencil, radius=1.0)
    for j in range(-2, 5):
        want = scalar_laurent(2.0, 0.7, j)
        got = laurent_coefficient(basic, pencil, j)[0, 0]
        assert abs(got - want) <= 1e-12
    # unit-root scalar pencil
    pencil = LinearPencil(c0=np.array([[0.0]]), c1=np.array([[0.7]]))
    basic = basic_solution(pencil, radius=1.0)
    for j in range(-2, 5):
        want = scalar_laurent(0.0, 0.7, j)
        got = laurent_coefficient(basic, pencil, j)[0, 0]
        assert abs(got - want) <= 1e-12


def test_engineered_orders_detected():
    # defective anchors scatter their zero eigenvalue cluster well above the
    # auto-radius tolerance, so the known-safe radius is passed explicitly
    rng = np.random.default_rng(42)
    for order in (1, 2, 3):
        c0, c1 = random_unit_root_pencil(rng, 5, order, mu_min=1.0, mu_max=3.0)
        pencil = LinearPencil(c0=c0, c1=c1)
        basic = basic_solution(pencil, radius=0.5)
        s = classify_singularity(basic, pencil)
        assert (s.kind, s.order) == ("pole", order)
        res = basic_residuals(basic, pencil)
        assert max(res.values()) <= 1e-8


def test_pencil_shape_validation():
    with pytest.raises(InputError):
        LinearPencil(c0=np.zeros((2, 3)), c1=np.zeros((2, 3)))
    with pytest.raises(InputError):
        LinearPencil(c0=np.zeros((2, 2)), c1=np.zeros((3, 3)))
