"""Chain extension and subspace bases against the worked examples."""

import numpy as np
import pytest
import scipy.linalg

from gjrep import (
    ChainStepError,
    LinearPencil,
    basic_solution,
    make,
    projections,
    reg_basis,
    regular_chain,
    sin_basis,
    singular_chain,
)
from oracles import (
    jordan_similarity,
    jordan_span,
    max_principal_angle,
    qz_basis_sorted,
    random_unit_root_pencil,
)


def _e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_singular_chain_terminates_on_jordan_block():
    # the two-step Jordan structure carries e2 -> e1-ish -> 0
    e = make("c0", lam=0.25, n=10)
    res = singular_chain(e.pencil, _e(1, 10))
    assert res.terminated
    assert len(res.vectors) == 3
    assert res.norms[-1] <= 1e-9


def test_singular_chain_rate_matches_law():
    # seeds in the diagonal part decay geometrically at (1 - lam^m) / lam^m
    lam, n = 0.25, 10
    e = make("c0", lam=lam, n=n)
    m = 1
    res = singular_chain(e.pencil, _e(1 + m, n), steps=24)
    want = (1.0 - lam**m) / lam**m
    assert not res.terminated
    assert res.tail_ratio == pytest.approx(want, rel=1e-9)


def test_regular_chain_rejected_off_subspace():
    e = make("c0", lam=0.25, n=10)
    with pytest.raises(ChainStepError):
        regular_chain(e.pencil, _e(1, 10))


@pytest.mark.parametrize("s", [1e-8, 1.0, 1e6])
def test_regular_chain_rejects_a_small_off_subspace_component_at_any_scale(s):
    # e_4 is a regular direction of c0 and e_1 is not: a 1e-6 relative part
    # of e_1 leaves a step residual 1e3 times CHAIN_TOL * max ||C_i|| * ||x||.
    # One step: later steps grow the e_1 part past any looser bound too
    e = make("c0", lam=0.25, n=10)
    pencil = LinearPencil(s * e.pencil.c0, s * e.pencil.c1)
    assert len(regular_chain(pencil, _e(4, 10), steps=1).vectors) == 2
    with pytest.raises(ChainStepError):
        regular_chain(pencil, _e(4, 10) + 1e-6 * _e(1, 10), steps=1)


def test_regular_chain_rate_matches_law():
    lam, n = 0.25, 10
    e = make("c0", lam=lam, n=n)
    m = 1
    res = regular_chain(e.pencil, _e(1 + m, n), steps=24)
    want = lam**m / (1.0 - lam**m)
    assert res.tail_ratio == pytest.approx(want, rel=1e-9)


def test_sin_basis_matches_projection_range():
    for name in ("matrix", "c0", "hierarchy"):
        e = make(name)
        basis = sin_basis(e.pencil)
        pair = projections(e.basic, e.pencil)
        rank = int(round(np.trace(pair.domain_sin).real))
        assert basis.shape[1] == rank, name
        # basis sits inside range(P): an oblique projection fixes its range
        img = pair.domain_sin @ basis
        assert np.linalg.norm(img - basis) <= 1e-8, name
        # and spans all of it (column space of P, not of P hermitian)
        proj_cols = scipy.linalg.orth(pair.domain_sin, rcond=1e-10)
        assert proj_cols.shape[1] == rank, name
        assert max_principal_angle(basis, proj_cols) <= 1e-8


def test_sin_basis_spans_for_examples():
    e = make("c0", lam=0.25, n=10)
    basis = sin_basis(e.pencil)
    want = np.eye(10)[:, :2]
    assert max_principal_angle(basis, want) <= 1e-8

    e = make("matrix", eps=0.5)
    basis = sin_basis(e.pencil)
    want = np.eye(2)[:, :1]
    assert max_principal_angle(basis, want) <= 1e-8


def test_reg_basis_complementary():
    for name in ("matrix", "c0", "hierarchy"):
        e = make(name)
        s = sin_basis(e.pencil)
        r = reg_basis(e.pencil)
        assert s.shape[1] + r.shape[1] == e.pencil.dim, name
        # the two spans intersect only at zero
        joint = np.hstack([s, r])
        sv = np.linalg.svd(joint, compute_uv=False)
        assert sv[-1] > 1e-8, name


def test_chain_zero_seed_rejected():
    e = make("matrix")
    with pytest.raises(ChainStepError):
        singular_chain(e.pencil, np.zeros(2))


def _singular_slope_pencil():
    # X (J_2(0) + diag(2, 1)) Y and X diag(1, 1, 1, 0) Y: a pole of order 2,
    # the offset -2 and an infinite one, mixed by seeded real orthogonal X, Y
    x, y = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 4, 4)))[0]
    c0 = np.diag([0.0, 0.0, 2.0, 1.0]) + np.diag([1.0, 0.0, 0.0], k=1)
    return LinearPencil(x @ c0 @ y, x @ np.diag([1.0, 1.0, 1.0, 0.0]) @ y)


SINGULAR_SLOPES = {
    "diagonal": lambda: LinearPencil(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])),
    "mixed": _singular_slope_pencil,
}


@pytest.mark.parametrize("name", SINGULAR_SLOPES)
def test_bases_of_a_singular_slope_span_the_projection_ranges(name):
    # C_1 is singular: the offsets where beta = 0 are infinite and belong to
    # the regular side, and both bases are the ranges of the projections
    # T_{-1} C_1 and T_0 C_0 of the verified basic solution
    pencil = SINGULAR_SLOPES[name]()
    pair = projections(basic_solution(pencil), pencil)
    for basis, proj in ((sin_basis(pencil), pair.domain_sin), (reg_basis(pencil), pair.domain_reg)):
        want = scipy.linalg.orth(proj, rcond=1e-10)
        assert basis.shape == want.shape
        assert max_principal_angle(basis, want) <= 1e-8
    if name == "diagonal":
        assert np.array_equal(np.abs(sin_basis(pencil)), [[1.0], [0.0]])
        assert np.array_equal(np.abs(reg_basis(pencil)), [[0.0], [1.0]])


def test_basis_cut_keeps_an_offset_of_a_tenth():
    # c0 at lam = 0.9: the nearest other offset is (1 - lam) / lam = 0.111,
    # and the cut ZERO_TOL (1 + ||C_0|| / ||C_1||) = 1.6e-6 leaves it out of
    # the anchor's cluster; a cut a hundred thousand times looser takes it in
    basis = sin_basis(make("c0", lam=0.9).pencil)
    assert basis.shape == (10, 2)
    assert max_principal_angle(basis, np.eye(10)[:, :2]) <= 1e-12


J3_DRAWS = [(n, seed, real) for real in (True, False) for n in (8, 32, 64) for seed in range(3)]


def test_j3_bases_that_hold_the_cluster_are_exact():
    # rounding splits J_3(0) to about (eps ||C_0||)^{1/3}, a few 1e-6, right
    # at the cut ZERO_TOL (1 + ||C_0||): some draws leave part of the cluster
    # outside (ROADMAP item 2), but a basis with all three columns is the
    # closed-form subspace.  12 of the 18 draws get all three columns
    full = 0
    for n, seed, real in J3_DRAWS:
        basis = sin_basis(LinearPencil(*jordan_similarity(n, seed, 3, real)))
        if basis.shape[1] == 3:
            full += 1
            assert max_principal_angle(basis, jordan_span(n, seed, 3, real)) <= 1e-8
    assert full >= 12


def _real_similarity():
    # a real J_2 block and real offsets under a real orthogonal similarity
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    block = np.diag(np.r_[0.0, 0.0, rng.uniform(1.0, 3.0, 10)])
    block[0, 1] = 1.0
    return LinearPencil(q @ block @ q.T, np.eye(12))


BASIS_PENCILS = {
    "real-similarity": _real_similarity,
    "complex-similarity": lambda: LinearPencil(*jordan_similarity(16, 5)),
    "complex-order3": lambda: LinearPencil(
        *random_unit_root_pencil(np.random.default_rng(6), 12, 3)
    ),
    "c0": lambda: make("c0").pencil,
    "cascade": lambda: make("hierarchy", n=8).pencil,
    "volterra": lambda: make("volterra", n=32).pencil,  # no regular directions
    "regular": lambda: LinearPencil(np.diag([2.0, -1.5, 3.0]), np.eye(3)),  # no singular ones
}


@pytest.mark.parametrize("name", BASIS_PENCILS)
def test_bases_match_one_sorted_schur_form_per_side(name):
    pencil = BASIS_PENCILS[name]()
    for basis, singular in ((sin_basis(pencil), True), (reg_basis(pencil), False)):
        want = qz_basis_sorted(pencil.c0, pencil.c1, singular)
        assert basis.shape == want.shape and np.array_equal(basis, want), singular


def test_both_bases_reorder_one_schur_form(monkeypatch):
    real = scipy.linalg.get_lapack_funcs
    calls = []

    def counting(names, arrays=()):
        calls.append(names)
        return real(names, arrays)

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    pencil = LinearPencil(*jordan_similarity(16, 5))
    sin, reg = sin_basis(pencil), reg_basis(pencil)
    assert (sin.shape[1], reg.shape[1], calls.count("gges")) == (2, 14, 1)


@pytest.mark.parametrize("fault", ["info", "unsorted"])
def test_a_failed_reordering_raises(fault, monkeypatch):
    # LAPACK's reordering either reports a failure or, after rounding, leaves
    # a leading offset on the wrong side of the cut
    pencil = make("c0").pencil
    mu = pencil.qz[3]
    assert (np.abs(mu[:2]) == 0.0).all()  # the form has the anchor's cluster first
    real = scipy.linalg.get_lapack_funcs

    def tgsen(select, a, b, q, z, ijob, wantq):
        info = int(fault == "info")
        # the form returned as it came: unsorted for the regular side
        return a, b, mu, np.ones_like(mu), q, z, int(np.sum(select)), 0.0, 0.0, None, info

    monkeypatch.setattr(
        scipy.linalg,
        "get_lapack_funcs",
        lambda names, arrays=(): tgsen if names == "tgsen" else real(names, arrays),
    )
    with pytest.raises(np.linalg.LinAlgError):
        reg_basis(pencil)
