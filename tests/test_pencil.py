"""Laurent machinery against frozen closed forms and a fresh quadrature oracle."""

import tracemalloc

import numpy as np
import pytest

import gjrep.pencil
from gjrep import (
    BasicSolution,
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
    jordan_similarity,
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
        got = laurent_range(e.basic, e.pencil, ell, ell)[ell]
        assert np.abs(got - want).max() <= 1e-10 * spectral_norm(want)


def _degree2_augmented():
    rng = np.random.default_rng(5)
    c0 = rng.standard_normal((4, 1)) @ rng.standard_normal((1, 4))
    poly = PolynomialPencil((c0, rng.standard_normal((4, 4)), 0.3 * np.eye(4)))
    return augment(poly).pencil


CONTOUR_PENCILS = {
    "volterra64": lambda: make("volterra", n=64).pencil,
    "cascade8": lambda: make("hierarchy", n=8).pencil,
    "similarity16": lambda: LinearPencil(*jordan_similarity(16, 11)),
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
        got = laurent_range(e.basic, e.pencil, j, j)[j]
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


SCALES = (1e-8, 1.0, 1e10)
SCALE_FREE = {  # pencil, and the class it gets at every scale
    "volterra16": (lambda: make("volterra", n=16).pencil, ("essential_at_truncation", 16)),
    "volterra64": (lambda: make("volterra", n=64).pencil, ("essential_at_truncation", 64)),
    "c0": (lambda: make("c0").pencil, ("pole", 2)),
    "matrix": (lambda: make("matrix").pencil, ("pole", 1)),
    "hierarchy": (lambda: make("hierarchy").pencil, ("pole", 8)),
    # T_{-1} = diag(1, 0) and T_0 = diag(0, 1e7): a removable test looser
    # than ||T_{-1}|| <= 1e-9 ||T_0|| by 1e3 reads this pole as removable
    "near-pole": (lambda: LinearPencil(np.diag([0.0, 1e-7]), np.eye(2)), ("pole", 1)),
    **{
        f"j{order}-sim8-seed{seed}": (
            lambda order=order, seed=seed: LinearPencil(*jordan_similarity(8, seed, order)),
            ("pole", order),
        )
        for order in (1, 2)
        for seed in range(3)
    },
}


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("name", SCALE_FREE)
def test_contour_and_class_are_scale_free(name, s):
    # both coefficients times s put every T_j over s: each verdict compares
    # norms that scale together, so the node count and the class stay those
    # of s = 1, even where T_0 is pure rounding (Volterra)
    build, want = SCALE_FREE[name]
    pencil = build()
    scaled = LinearPencil(s * pencil.c0, s * pencil.c1)
    _, info = contour_coefficients(scaled, (-1, 0))
    assert info["nodes"] == 64
    got = classify_singularity(basic_solution(scaled), scaled)
    assert (got.kind, got.order) == want


@pytest.mark.parametrize("name", ["c0", "matrix", "hierarchy"])
def test_contour_settles_to_the_exact_pair(name):
    # at 0.9 r_hat the trapezoid error decays slowly, so the settle test
    # decides the accuracy: 512 nodes meet 1e-13, and TOL_CONTOUR = 1e-5
    # stops at 256 nodes with errors of order 1e-12
    e = make(name)
    _, r_hat = annulus_estimate(e.basic, e.pencil)
    got, _ = contour_coefficients(e.pencil, (-1, 0), 0.9 * r_hat)
    want = {-1: e.basic.t_minus_one, 0: e.basic.t_zero}
    size = max(e.basic.norms)
    for j in want:
        assert spectral_norm(got[j] - want[j]) <= 1e-13 * size, j


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


def _two_root_polynomial():
    # w (w - 3) and (w - 2)(w + 2.5): the augmented pencil runs in w^2, so
    # its offsets are the squares of the roots, and the nearest is 2^2
    return PolynomialPencil((np.diag([0.0, -5.0]), np.diag([-3.0, 0.5]), np.eye(2)))


OUTER_RADII = {  # pencil, and the smallest offset outside the anchor's cluster
    "matrix": (lambda: make("matrix", eps=0.5).pencil, 0.5),
    "c0": (lambda: make("c0", lam=0.25).pencil, 3.0),
    "hierarchy": (lambda: make("hierarchy").pencil, 0.4 * (1.0 - 2.0**-8)),
    "polynomial": (lambda: augment(_two_root_polynomial()).pencil, 4.0),
    "volterra": (lambda: make("volterra", n=32).pencil, np.inf),
}


@pytest.mark.parametrize("name", OUTER_RADII)
def test_outer_radius_is_the_smallest_offset_at_any_scale(name):
    build, want = OUTER_RADII[name]
    pencil = build()
    basic = basic_solution(pencil)
    _, r_hat = annulus_estimate(basic, pencil)
    assert r_hat == pytest.approx(want, rel=1e-12)
    # the contour radius halves the same offset, or falls back to 1.0
    assert default_radius(pencil) == (r_hat / 2.0 if r_hat < np.inf else 1.0)
    for s in (1e-8, 1e8):
        scaled = LinearPencil(s * pencil.c0, s * pencil.c1)
        scaled_basic = BasicSolution(basic.t_minus_one / s, basic.t_zero / s)
        assert annulus_estimate(scaled_basic, scaled)[1] == pytest.approx(want, rel=1e-12)


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


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e6])
@pytest.mark.parametrize("name", ["matrix", "c0", "hierarchy"])
def test_separation_fails_a_planted_relative_error_at_any_scale(name, s):
    # a relative 1e-7 error in T_0 leaves residuals 70 to 147 times the bound
    # on these pencils, at every scale, so a bound 1e3 looser passes it; the
    # exact pair passes
    e = make(name)
    pencil = LinearPencil(s * e.pencil.c0, s * e.pencil.c1)
    t_minus, t_zero = e.basic.t_minus_one / s, e.basic.t_zero / s
    plant = np.random.default_rng(0).standard_normal(t_zero.shape)
    plant *= 1e-7 * spectral_norm(t_zero) / spectral_norm(plant)
    clean = BasicSolution(t_minus, t_zero)
    assert separate(projections(clean, pencil), pencil).passed
    bad = BasicSolution(t_minus, t_zero + plant)
    assert not separate(projections(bad, pencil), pencil).passed


def test_fundamental_window():
    e = make("c0")
    exp = laurent_range(e.basic, e.pencil, -3, 6)
    rep = verify_fundamental(e.pencil, exp, -2, 6)
    assert rep.passed
    assert rep.max_residual <= 1e-10
    assert rep.js == tuple(range(-2, 7))
    # missing coefficients must be rejected, not silently zero-filled
    with pytest.raises(InputError):
        verify_fundamental(e.pencil, exp, -4, 6)


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_fundamental_catches_a_relative_error_at_any_scale(scale):
    # every C_i times scale and every T_j over it leave the identities and
    # the relative size of a planted error unchanged
    e = make("c0")
    pencil = LinearPencil(e.pencil.c0 * scale, e.pencil.c1 * scale)
    table = laurent_range(e.basic, e.pencil, -3, 6)
    clean = {j: t / scale for j, t in table.items()}
    assert verify_fundamental(pencil, clean, -2, 6).passed
    for j in (-2, -1, 0, 1, 2):
        planted = dict(clean)
        planted[j] = clean[j] * (1 + 1e-6)
        assert not verify_fundamental(pencil, planted, -2, 6).passed, j


def test_fundamental_rejects_an_empty_window():
    e = make("c0")
    table = laurent_range(e.basic, e.pencil, -3, 6)
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
        got = laurent_range(basic, pencil, j, j)[j][0, 0]
        assert abs(got - want) <= 1e-12
    # unit-root scalar pencil
    pencil = LinearPencil(c0=np.array([[0.0]]), c1=np.array([[0.7]]))
    basic = basic_solution(pencil, radius=1.0)
    for j in range(-2, 5):
        want = scalar_laurent(0.0, 0.7, j)
        got = laurent_range(basic, pencil, j, j)[j][0, 0]
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


# A real pencil is analysed in float64 on the upper half of the contour; the
# same pencil times e^{i pi/3} is complex and takes the full grid, and its
# resolvent is the real one times e^{-i pi/3}.
ROTATION = np.exp(1j * np.pi / 3)
REAL_PENCILS = {
    "c0": lambda: make("c0").pencil,
    "cascade8": lambda: make("hierarchy", n=8).pencil,
    "volterra16": lambda: make("volterra", n=16).pencil,
    "volterra64": lambda: make("volterra", n=64).pencil,
}


def _rotated(pencil):
    return LinearPencil(c0=ROTATION * pencil.c0, c1=ROTATION * pencil.c1)


@pytest.mark.parametrize("name", REAL_PENCILS)
def test_real_route_agrees_with_the_full_complex_grid(name):
    pencil = REAL_PENCILS[name]()
    rotated = _rotated(pencil)
    assert pencil.c0.dtype == pencil.c1.dtype == np.float64
    assert rotated.c0.dtype == rotated.c1.dtype == np.complex128
    radius = default_radius(pencil)
    real = basic_solution(pencil, radius=radius)
    full = basic_solution(rotated, radius=radius)
    assert real.t_minus_one.dtype == real.t_zero.dtype == np.float64
    scale = max(real.norms)
    for got, want in ((real.t_minus_one, full.t_minus_one), (real.t_zero, full.t_zero)):
        assert spectral_norm(got / ROTATION - want) <= 1e-14 * scale
    # the rotated pair against the rotated pencil rebuilds the real analysis
    s_real, s_full = classify_singularity(real, pencil), classify_singularity(full, rotated)
    assert (s_real.kind, s_real.order) == (s_full.kind, s_full.order)
    assert annulus_estimate(real, pencil) == pytest.approx(
        annulus_estimate(full, rotated), rel=1e-12
    )


def _count_solves(monkeypatch) -> list:
    """A list that gains one entry per checked solve from now on."""
    solve = gjrep.pencil._checked_solve
    calls = []

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(gjrep.pencil, "_checked_solve", counted)
    return calls


@pytest.mark.parametrize("name", REAL_PENCILS)
def test_real_route_solves_half_the_grid(name, monkeypatch):
    pencil = REAL_PENCILS[name]()
    radius = default_radius(pencil)
    calls = _count_solves(monkeypatch)
    sizes, counts = [], []
    for pen in (pencil, _rotated(pencil)):
        calls.clear()
        got, info = contour_coefficients(pen, (-1, 0), radius)
        assert {b.dtype for b in got.values()} == {pen.c0.dtype}
        sizes.append(info["nodes"])
        counts.append(len(calls))
    # the node count is the grid size on both routes
    assert sizes[0] == sizes[1]
    assert counts == [sizes[0] // 2 + 1, sizes[0]]


@pytest.mark.parametrize("factor", [1.0, 1j, ROTATION], ids=["real", "complex", "rotated"])
def test_contour_through_a_real_singular_point_raises_on_both_routes(factor, monkeypatch):
    # node k = 0 of the radius-0.5 circle sits on the offset 0.5.  The factor
    # i keeps that point exactly singular and makes the pencil complex;
    # e^{i pi/3} leaves it singular only up to rounding, which the condition
    # estimate of the node solve catches at once, not after MAX_NODES nodes
    pencil = make("matrix").pencil
    pencil = LinearPencil(c0=factor * pencil.c0, c1=factor * pencil.c1)
    calls = _count_solves(monkeypatch)
    with pytest.raises(SingularMatrixError, match="angle 0.0000"):
        contour_coefficients(pencil, (-1, 0), 0.5)
    assert len(calls) == 1


def test_pencil_dtype_follows_the_imaginary_parts():
    real = LinearPencil(c0=np.eye(2) + 0j, c1=-np.eye(2))
    assert real.c0.dtype == real.c1.dtype == np.float64
    # one nonzero imaginary part anywhere keeps both coefficients complex
    mixed = LinearPencil(c0=np.eye(2), c1=np.diag([1.0, 1e-300j]))
    assert mixed.c0.dtype == mixed.c1.dtype == np.complex128
