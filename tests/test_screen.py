"""Screened norms: certified bounds, unchanged verdicts, fewer SVDs.

Verdict-only norms go through ``_norm_bounds`` and take an SVD only when the
bounds straddle the threshold.  The literal all-SVD classification, inner
annulus root test and lstsq chain loop in ``oracles.py`` must give the same
answers.  The outer radius is the exact smallest offset, which the literal
48-term root test only approximates.
"""

import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gjrep import (
    BasicSolution,
    LinearPencil,
    PolynomialPencil,
    annulus_estimate,
    basic_solution,
    classify_singularity,
    make,
    regular_chain,
    singular_chain,
    spectral_norm,
)
from gjrep.cli import main
from gjrep.io import dump_pencil
from gjrep.pencil import _norm_bounds, _screened
from oracles import (
    annulus_estimate_literal,
    classify_singularity_literal,
    jordan_outer_radius,
    jordan_similarity,
    lstsq_chain,
)


def _similarity(n, seed):
    return LinearPencil(*jordan_similarity(n, seed))


def _contour(pencil):
    return pencil, basic_solution(pencil)


def _closed(entry):
    return entry.pencil, entry.basic


def _weighted_shift(q, n):
    # C_0 has superdiagonal q, q^2, ..., q^{n-1}, and N = C_0: ||N^k|| is about
    # q^{k(k+1)/2}, so each step drops by q more than the step before.  The
    # norms cross the floor with no cliff of CLIFF_FACTOR (1e-3), and the
    # collapse at n is a truncation.  A cliff of 1e-1 would read pole(3) at
    # q = 1e-2 and pole(4) at q = 3e-2
    return _contour(LinearPencil(np.diag(q ** np.arange(1, n), 1), np.eye(n)))


CASES = {
    "matrix": lambda: _closed(make("matrix", eps=0.5)),
    "c0": lambda: _closed(make("c0")),
    "hierarchy": lambda: _closed(make("hierarchy")),
    "volterra16": lambda: _closed(make("volterra", n=16)),
    "volterra64": lambda: _closed(make("volterra", n=64)),
    "volterra128": lambda: _closed(make("volterra", n=128)),
    "volterra64-contour": lambda: _contour(make("volterra", n=64).pencil),
    "volterra128-contour": lambda: _contour(make("volterra", n=128).pencil),
    "cascade8-contour": lambda: _contour(make("hierarchy", n=8).pencil),
    "sim16": lambda: _contour(_similarity(16, 11)),
    "sim64": lambda: _contour(_similarity(64, 12)),
    "shift-q1e-2-n6": lambda: _weighted_shift(1e-2, 6),
    "shift-q1e-2-n8": lambda: _weighted_shift(1e-2, 8),
    "shift-q3e-2-n8": lambda: _weighted_shift(3e-2, 8),
}


SIGMA = 0.4 * (1.0 - 2.0**-8)  # the aggregate rate of the order-8 cascade
# the smallest offset outside the anchor's cluster, in closed form; the
# Volterra pencils have none, and their outer radius is inf
OUTER = {
    "matrix": 0.5,
    "c0": 3.0,
    "hierarchy": SIGMA,
    "cascade8-contour": SIGMA,
    "sim16": jordan_outer_radius(16, 11),
    "sim64": jordan_outer_radius(64, 12),
}


@pytest.mark.parametrize("case", CASES)
def test_screened_classification_and_annulus_match_all_svd(case):
    pencil, basic = CASES[case]()
    got = classify_singularity(basic, pencil)
    assert (got.kind, got.order) == classify_singularity_literal(basic, pencil)
    if case.startswith("shift"):
        assert (got.kind, got.order) == ("essential_at_truncation", pencil.dim)
    # the classification is scale-free, and so is its literal oracle: the
    # pencil times s and the pair over s read the same
    for s in (1e-8, 1e10):
        scaled = LinearPencil(s * pencil.c0, s * pencil.c1)
        scaled_basic = BasicSolution(basic.t_minus_one / s, basic.t_zero / s)
        scaled_got = classify_singularity(scaled_basic, scaled)
        assert (scaled_got.kind, scaled_got.order) == (got.kind, got.order), s
        assert classify_singularity_literal(scaled_basic, scaled) == (got.kind, got.order), s
    s_hat, r_hat = annulus_estimate(basic, pencil, got)
    kind, _ = classify_singularity_literal(basic, pencil)
    s_literal, r_literal = annulus_estimate_literal(basic, pencil, kind)
    # the same float bit for bit: the inner root is an exact SVD root
    assert s_hat == s_literal
    # the outer radius is exact, and the biased root test lands within 10%
    assert r_hat == pytest.approx(OUTER.get(case, np.inf), rel=1e-12)
    assert r_literal == pytest.approx(r_hat, rel=0.1)


def test_volterra128_is_essential_at_truncation():
    # powers of N reach 1e-268: squared sums of the raw entries underflow
    pencil, basic = CASES["volterra128-contour"]()
    got = classify_singularity(basic, pencil)
    assert (got.kind, got.order) == ("essential_at_truncation", 128)
    assert len(got.power_norms) == 128
    assert 0.0 < got.power_norms[-2] < 1e-260


@pytest.mark.parametrize("n", [16, 32, 64, 128, 192, 256])
def test_deep_volterra_powers_do_not_underflow_into_a_pole(n):
    # ||N^k|| falls like 1/k!, crosses the floor well before k = n, and from
    # n = 192 on leaves the doubles near k = 158: the scaled running power
    # keeps the decay smooth, and the collapse at n is a truncation, not the
    # pole of order n that a collapse straight from above the floor is
    pencil, basic = _closed(make("volterra", n=n))
    got = classify_singularity(basic, pencil)
    assert (got.kind, got.order) == ("essential_at_truncation", n)


FULL_POLES = {
    "simple-1x1": (np.zeros((1, 1)), np.ones((1, 1))),
    **{f"J{d}": (np.eye(d, k=1), np.eye(d)) for d in (2, 3, 5, 8)},
}


@pytest.mark.parametrize("case", FULL_POLES)
def test_a_pole_that_fills_the_space_is_a_pole(case, tmp_path):
    # N = T_{-1} C_0 is nilpotent of index n: its powers stay above the floor
    # up to N^{n-1} and collapse at n, which is a pole of order n, not the
    # truncation of a smooth decay.  R(z) = 1/(z - 1) in the 1x1 case, and
    # (J_d(0) + (z - 1) I)^{-1} has a pole of order d
    pencil = LinearPencil(*FULL_POLES[case])
    basic = basic_solution(pencil)
    got = classify_singularity(basic, pencil)
    assert (got.kind, got.order) == ("pole", pencil.dim)
    assert classify_singularity_literal(basic, pencil) == ("pole", pencil.dim)
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(dump_pencil(pencil)))
    out = tmp_path / "r.json"
    assert main(["analyze", "--pencil", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["singularity"] == {"kind": "pole", "order": pencil.dim}


def test_powers_past_the_largest_double_classify_inconclusive():
    # N = 2^100 I is not nilpotent: its scaled powers never overflow, and the
    # norms past the range of the doubles read inf instead of raising
    eye = np.eye(12, dtype=np.complex128)
    got = classify_singularity(
        BasicSolution(2.0**50 * eye, 0 * eye), LinearPencil(2.0**50 * eye, eye)
    )
    assert (got.kind, got.order) == ("inconclusive", None)
    assert got.power_norms[9] < np.inf and got.power_norms[10] == np.inf


def _chain_cases():
    for n, seed in ((16, 21), (64, 22)):
        pencil = _similarity(n, seed)
        basic = basic_solution(pencil)
        x = np.random.default_rng(seed).standard_normal(n) + 0j
        p_sin = basic.t_minus_one @ pencil.c1
        p_reg = basic.t_zero @ pencil.c0
        yield pencil, "singular", p_sin @ x, p_sin
        yield pencil, "regular", p_reg @ x, p_reg
    e = make("c0")
    yield e.pencil, "singular", np.eye(10)[1], None
    yield e.pencil, "regular", np.eye(10)[4], None


def test_chains_match_the_lstsq_loop():
    for pencil, side, seed, project in _chain_cases():
        if side == "singular":
            got = singular_chain(pencil, seed, project=project)
            want, terminated = lstsq_chain(pencil.c1, pencil.c0, seed, project=project)
        else:
            got = regular_chain(pencil, seed, project=project)
            want, terminated = lstsq_chain(pencil.c0, pencil.c1, seed, project=project)
        assert len(got.vectors) == len(want)
        assert got.terminated == terminated
        for x, y in zip(got.vectors, want):
            assert np.linalg.norm(x - y) <= 1e-12 * max(np.linalg.norm(y), np.linalg.norm(seed))


SCALES = (1.0, 1e-160, 1e-300, 5e-320, 1e300)


@st.composite
def matrices(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    kind = draw(st.sampled_from(("dense", "rank1", "zero", "real")))
    if kind == "zero":
        return np.zeros((m, n), dtype=np.complex128)
    if kind == "rank1":
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        a = np.outer(u, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    elif kind == "real":
        a = rng.standard_normal((m, n)) + 0j
    else:
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return a * draw(st.sampled_from(SCALES))


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from((1 - 1e-15, 1 + 1e-15, 0.5, 0.999, 1.001, 2.0)))
def test_bounds_bracket_and_screened_verdict_is_exact(a, factor):
    exact = spectral_norm(a)
    lo, hi = _norm_bounds(a)
    assert 0.0 <= lo <= exact <= hi
    for t in (exact * factor, 0.0):
        assert _screened(lambda r: r <= t, (a,)) == (exact <= t)
        assert _screened(lambda r: t < r, helpful=(a,)) == (t < exact)
    if 0.0 < exact and hi < np.inf and abs(factor - 1) < 1e-14:
        # a threshold within rounding of the norm: the screen must defer to the SVD
        assert lo <= exact * factor < hi


def test_bounds_are_undecided_on_non_finite_entries():
    a = np.ones((16, 16), dtype=np.complex128)
    for bad in (np.nan, np.inf):
        a[3, 4] = bad
        assert _norm_bounds(a) == (0.0, np.inf)


def _svd_module():
    # np.linalg.norm, cond and pinv call the module-level svd of numpy's
    # implementation module, so the count is patched there
    for name in ("numpy.linalg._linalg", "numpy.linalg.linalg"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        if hasattr(module, "svd"):
            return module
    raise RuntimeError("numpy's linalg implementation module not found")


def _analyze_svd_calls(pencil, tmp_path, monkeypatch) -> int:
    """SVD calls made by one ``analyze`` of ``pencil``, which must pass."""
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(dump_pencil(pencil)))
    module = _svd_module()
    real = module.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "svd", counting)
    monkeypatch.setattr(np.linalg, "svd", counting)
    assert main(["analyze", "--pencil", str(path), "--out", str(tmp_path / "r.json")]) == 0
    return len(calls)


def test_svd_count_of_volterra64_analyze(tmp_path, monkeypatch):
    # the exact norms (both coefficients, both of the pair, the six basic
    # residuals, the closed-form error) and the root test's one exact term
    assert 0 < _analyze_svd_calls(make("volterra", n=64).pencil, tmp_path, monkeypatch) <= 12


def test_svd_count_of_degree2_analyze(tmp_path, monkeypatch):
    # the unpack verdict reads the pair's exact norms and takes the spread's
    # only where the maximum can sit, the closed-form verdict and the
    # classification only where their bounds straddle the threshold, and the
    # checked solves take none: 12 calls here
    rng = np.random.default_rng(5)
    c0 = np.array([[1.0], [0.5]]) @ np.array([[1.0, -1.0]])
    poly = PolynomialPencil((c0, rng.standard_normal((2, 2)), 0.3 * np.eye(2)))
    assert 0 < _analyze_svd_calls(poly, tmp_path, monkeypatch) <= 12
