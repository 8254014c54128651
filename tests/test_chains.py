"""Chain extension and subspace bases against the worked examples."""

import numpy as np
import pytest
import scipy.linalg

from gjrep import (
    ChainStepError,
    UnsupportedModelError,
    LinearPencil,
    make,
    max_principal_angle,
    projections,
    reg_basis,
    regular_chain,
    sin_basis,
    singular_chain,
)
from oracles import j2_similarity, random_unit_root_pencil, schur_basis_sorted


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


def test_bases_need_invertible_slope():
    pencil = LinearPencil(c0=np.eye(2), c1=np.zeros((2, 2)))
    with pytest.raises(UnsupportedModelError):
        sin_basis(pencil)


def _real_similarity():
    # a real J_2 block and real offsets under a real orthogonal similarity
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    block = np.diag(np.r_[0.0, 0.0, rng.uniform(1.0, 3.0, 10)])
    block[0, 1] = 1.0
    return LinearPencil(q @ block @ q.T, np.eye(12))


BASIS_PENCILS = {
    "real-similarity": _real_similarity,
    "complex-similarity": lambda: LinearPencil(*j2_similarity(16, 5)),
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
        want = schur_basis_sorted(pencil.c0, pencil.c1, singular)
        assert basis.shape == want.shape and np.array_equal(basis, want), singular


def test_both_bases_reorder_one_schur_form(monkeypatch):
    real = scipy.linalg.schur
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    pencil = LinearPencil(*j2_similarity(16, 5))
    sin, reg = sin_basis(pencil), reg_basis(pencil)
    assert (sin.shape[1], reg.shape[1], len(calls)) == (2, 14, 1)


@pytest.mark.parametrize("fault", ["info", "unsorted"])
def test_a_failed_reordering_raises(fault, monkeypatch):
    # LAPACK's reordering either reports a failure or, after rounding, leaves
    # a leading eigenvalue on the wrong side of the cut
    def trsen(select, t, q, job):
        sdim = int(np.sum(select))
        if fault == "info":
            return t, q, np.diag(t), sdim, 0.0, 0.0, 1
        return t, q, np.diag(t), sdim, 0.0, 0.0, 0  # the form left unsorted

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lambda name, arrays: trsen)
    pencil = make("c0").pencil  # its Schur form has the zero cluster first
    with pytest.raises(np.linalg.LinAlgError):
        reg_basis(pencil)
