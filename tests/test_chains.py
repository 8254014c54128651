"""Chain extension and subspace bases against the worked examples."""

import numpy as np
import pytest

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
    import scipy.linalg

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
