"""Model containers, noise determinism, recursion, and difference calculus."""

import numpy as np
import pytest

from gjrep import (
    ArmaModel,
    InputError,
    LinearPencil,
    NoiseSpec,
    SingularMatrixError,
    Trajectory,
    ma1_g,
    simulate_noise,
    simulate_recursion,
)
from gjrep.pencil import as_matrix, as_vector
from oracles import arma_pq_path, binom_diff, diff_neg, diff_pos


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    a1 = 0.3 * rng.standard_normal((2, 2))
    return ArmaModel(
        a0=np.eye(2),
        a1=a1,
        f0=np.eye(2),
        f1=0.5 * np.eye(2),
        c=np.array([0.2, -0.1]),
    )


def test_model_pencil_centering():
    m = small_model()
    p = m.pencil
    assert np.allclose(p.c0, m.a0 + m.a1)
    assert np.allclose(p.c1, m.a1)


def test_model_shape_validation():
    with pytest.raises(InputError):
        ArmaModel(a0=np.eye(2), a1=np.eye(3), f0=np.eye(2), f1=np.eye(2), c=np.zeros(2))
    with pytest.raises(InputError):
        ArmaModel(a0=np.eye(2), a1=np.eye(2), f0=np.eye(2), f1=np.eye(2), c=np.zeros(3))


def test_noise_deterministic_and_window():
    spec = NoiseSpec(kind="gaussian", dim=3, seed=11, burn_in=5, params={"sigma": 2.0})
    one = simulate_noise(spec, 20)
    two = simulate_noise(spec, 20)
    assert one.start == -6
    assert one.end == 20
    assert np.array_equal(one.values, two.values)
    assert one.window(-6, -6).shape == (1, 3)
    with pytest.raises(InputError):
        one.at(21)
    with pytest.raises(InputError):
        one.window(-7, 0)


def test_noise_kinds():
    spec = NoiseSpec(
        kind="bernoulli_scaled", dim=2, seed=3, params={"p": 0.25, "eps": 0.1}
    )
    path = simulate_noise(spec, 2000)
    vals = np.unique(np.round(path.values.real, 12))
    # centered two-point support: eps*(0 - 0.75) and eps*(1 - 0.75)
    assert set(vals) == {-0.075, 0.025}
    frac_zero = float(np.mean(np.isclose(path.values.real, -0.075)))
    assert abs(frac_zero - 0.25) < 0.05
    assert abs(path.values.real.mean()) < 5e-3

    spec = NoiseSpec(
        kind="table",
        dim=1,
        seed=3,
        params={"values": [1.0, -1.0], "probs": [0.5, 0.5]},
    )
    path = simulate_noise(spec, 500)
    assert set(np.unique(path.values.real)) == {-1.0, 1.0}

    with pytest.raises(InputError):
        simulate_noise(NoiseSpec(kind="cauchy", dim=1, seed=0), 10)
    with pytest.raises(InputError):
        simulate_noise(
            NoiseSpec(kind="bernoulli_scaled", dim=1, seed=0, params={"p": 1.5}), 10
        )


def test_ma1_drive_definition():
    m = small_model()
    spec = NoiseSpec(kind="gaussian", dim=2, seed=1, burn_in=2)
    noise = simulate_noise(spec, 10)
    g = ma1_g(m, noise)
    assert g.start == noise.start + 1
    assert g.end == 10
    t = 4
    want = m.f0 @ noise.at(t) + m.f1 @ noise.at(t - 1)
    assert np.abs(g.at(t) - want).max() <= 1e-15


def test_recursion_matches_independent_oracle():
    m = small_model()
    spec = NoiseSpec(kind="gaussian", dim=2, seed=9, burn_in=1)
    noise = simulate_noise(spec, 40)
    g = ma1_g(m, noise)
    x = simulate_recursion(m, g, 40)

    # the oracle has zero presample state, so compare with c = 0
    m0 = ArmaModel(a0=m.a0, a1=m.a1, f0=m.f0, f1=m.f1, c=np.zeros(2))
    x0 = simulate_recursion(m0, g, 40)
    w_vals = noise.window(-1, 40)
    want = arma_pq_path([m.a0, m.a1], [m.f0, m.f1], w_vals, -1, 40)
    assert np.abs(x0.values - want).max() <= 1e-12

    # the initial state enters only through the homogeneous part
    hom = x.values - x0.values
    step = -np.linalg.solve(m.a0, m.a1)
    acc = m.c.astype(complex)
    for t in range(5):
        acc = step @ acc
        assert np.abs(hom[t] - acc).max() <= 1e-12


def test_recursion_requires_coverage():
    m = small_model()
    g = Trajectory(start=1, values=np.zeros((5, 2)))
    with pytest.raises(InputError):
        simulate_recursion(m, g, 4)


def test_recursion_rejects_singular_a0():
    m = small_model()
    bad = ArmaModel(a0=np.zeros((2, 2)), a1=m.a1, f0=m.f0, f1=m.f1, c=m.c)
    g = Trajectory(start=0, values=np.zeros((5, 2)))
    with pytest.raises(SingularMatrixError):
        simulate_recursion(bad, g, 4)


# the running-sum and difference oracles that the literal series oracles use


def test_diff_neg_is_iterated_cumsum():
    rng = np.random.default_rng(2)
    g = Trajectory(start=-3, values=rng.standard_normal((14, 2)))
    one = diff_neg(g.values, g.start, 1)
    causal = g.window(0, g.end)
    assert np.abs(one - np.cumsum(causal, axis=0)).max() == 0.0
    two = diff_neg(g.values, g.start, 2)
    assert np.abs(two - np.cumsum(np.cumsum(causal, axis=0), axis=0)).max() == 0.0
    with pytest.raises(ValueError):
        diff_neg(np.zeros((3, 1)), 1, 1)


def test_diff_pos_truncated_matches_binomial_oracle():
    rng = np.random.default_rng(4)
    g = Trajectory(start=-4, values=rng.standard_normal((20, 2)))
    for ell in (1, 2, 3):
        got = diff_pos(g.values, g.start, ell, mode="truncated")
        # binomial oracle on the zero-padded causal part
        causal = g.window(0, g.end)
        padded = np.vstack([np.zeros((ell, 2)), causal])
        want = binom_diff(padded, ell)
        assert got.shape == causal.shape
        assert np.abs(got - want).max() <= 1e-13


def test_diff_pos_full_matches_binomial_oracle():
    rng = np.random.default_rng(5)
    g = Trajectory(start=-4, values=rng.standard_normal((20, 2)))
    for ell in (1, 2, 3):
        got = diff_pos(g.values, g.start, ell, mode="full")
        want = binom_diff(g.values, ell)
        assert got.shape[0] == g.end - (g.start + ell) + 1
        assert np.abs(got - want).max() <= 1e-13
    with pytest.raises(ValueError):
        diff_pos(g.values, g.start, 25, mode="full")
    with pytest.raises(ValueError):
        diff_pos(g.values, g.start, 1, mode="sideways")


@pytest.mark.parametrize("name", ["seed", "burn_in"])
@pytest.mark.parametrize("value", [-1, True, 1.0, "1"], ids=repr)
def test_noise_integers_are_checked(name, value):
    with pytest.raises(InputError, match=f"noise {name} must be an integer >= 0"):
        NoiseSpec(kind="gaussian", dim=1, **{"seed": 0, name: value})


REAL, CPLX = np.dtype(np.float64), np.dtype(np.complex128)
EYE, TURN = np.eye(2), np.diag([1.0, 1e-300j])  # TURN: one tiny imaginary part

# each case builds arrays at the input boundary; the expected dtype of each
DTYPE_TABLE = {
    "matrix_int": (lambda: (as_matrix([[1, 2], [3, 4]]),), (REAL,)),
    "matrix_zero_imag": (lambda: (as_matrix(EYE - 0j),), (REAL,)),
    "matrix_complex": (lambda: (as_matrix(TURN),), (CPLX,)),
    "vector_real": (lambda: (as_vector([1.0, 2.0]),), (REAL,)),
    "vector_negative_zero_imag": (lambda: (as_vector([1.0, complex(2.0, -0.0)]),), (REAL,)),
    "vector_complex": (lambda: (as_vector([1.0, 2j]),), (CPLX,)),
    "pencil_real": (lambda: LinearPencil(c0=EYE + 0j, c1=-EYE).coeffs, (REAL, REAL)),
    "pencil_complex": (lambda: LinearPencil(c0=TURN, c1=1j * EYE).coeffs, (CPLX, CPLX)),
    # a mixed pair is promoted together: the contour reads the half grid off c0
    "pencil_real_c0": (lambda: LinearPencil(c0=EYE, c1=TURN).coeffs, (CPLX, CPLX)),
    "pencil_real_c1": (lambda: LinearPencil(c0=TURN, c1=EYE).coeffs, (CPLX, CPLX)),
    "model_real": (
        lambda: _fields(ArmaModel(EYE, -EYE, EYE, EYE, np.ones(2) + 0j)),
        (REAL,) * 5,
    ),
    # each coefficient keeps its own dtype; the pencil promotes its pair
    "model_complex_a1": (
        lambda: _fields(ArmaModel(EYE, TURN, EYE, EYE, np.ones(2))),
        (REAL, CPLX, REAL, REAL, REAL),
    ),
    "model_complex_a1_pencil": (
        lambda: ArmaModel(EYE, TURN, EYE, EYE, np.ones(2)).pencil.coeffs,
        (CPLX, CPLX),
    ),
    "model_complex_c_pencil": (
        lambda: ArmaModel(EYE, -EYE, EYE, EYE, [1.0, 1j]).pencil.coeffs,
        (REAL, REAL),
    ),
}


def _fields(model):
    return model.a0, model.a1, model.f0, model.f1, model.c


@pytest.mark.parametrize("case", sorted(DTYPE_TABLE))
def test_input_boundary_dtype_table(case):
    build, expected = DTYPE_TABLE[case]
    assert tuple(a.dtype for a in build()) == expected


@pytest.mark.parametrize(
    "values,noise,path",
    [([1.0, -1.0], REAL, REAL), ([1.0, -1j], CPLX, CPLX)],
    ids=["real_table", "complex_table"],
)
def test_paths_follow_the_dtype_of_model_and_noise(values, noise, path):
    spec = NoiseSpec(kind="table", dim=2, seed=1, params={"values": values, "probs": [0.5, 0.5]})
    w = simulate_noise(spec, 30)
    g = ma1_g(small_model(), w)
    x = simulate_recursion(small_model(), g, 30)
    assert (w.values.dtype, g.values.dtype, x.values.dtype) == (noise, path, path)
    # a complex initial state alone makes the path complex
    turned = ArmaModel(EYE, -0.5 * EYE, EYE, EYE, [1.0, 1j])
    assert simulate_recursion(turned, g, 30).values.dtype == CPLX


def test_table_probabilities_within_the_samplers_tolerance():
    # Generator.choice accepts a sum within sqrt(eps) of 1, and so does NoiseSpec
    ok = NoiseSpec(kind="table", dim=1, seed=0, params={"values": [0.0] * 10, "probs": [0.1] * 10})
    assert simulate_noise(ok, 5).values.shape == (7, 1)
    for probs in ([0.5, 0.500001], [0.5, 0.49999], [0.5, float("nan")]):
        with pytest.raises(InputError, match="summing to 1"):
            NoiseSpec(kind="table", dim=1, seed=0, params={"values": [0.0, 1.0], "probs": probs})
