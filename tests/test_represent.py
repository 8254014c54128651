"""The four decompositions, the projection split, and the order probe."""

import importlib
import json
import tracemalloc

import numpy as np
import pytest

from gjrep import (
    FORMS,
    ArmaModel,
    BasicSolution,
    InputError,
    NaturalFormDiverges,
    NoiseSpec,
    OrderUndefined,
    SingularityClass,
    SingularMatrixError,
    basic_solution,
    cointegration_probe,
    default_radius,
    integration_order,
    ma1_g,
    make,
    projections,
    represent,
    simulate_noise,
    simulate_recursion,
    split_projection,
)
from gjrep import kernels
from gjrep.cli import main
from gjrep.io import decode_complex, dump_model, encode_complex
from gjrep.represent import _PROBE_ROWS, PROBE_SCALES
from oracles import (
    causal_stack_apply,
    coeff_q,
    coeff_r,
    coeff_u,
    coeff_v,
    cumulation_trend,
    probe_drive_block,
    regular_series,
    variance_time_slopes_literal,
)

COMPONENTS = ("stochastic_trend", "stationary", "det_sin", "det_reg", "k_term")


def model_from_entry(name, c=None, f1_scale=0.5, **params):
    e = make(name, **params)
    n = e.pencil.dim
    a1 = e.pencil.c1
    a0 = e.pencil.c0 - e.pencil.c1
    return e, ArmaModel(
        a0=a0,
        a1=a1,
        f0=np.eye(n),
        f1=f1_scale * np.eye(n),
        c=np.zeros(n) if c is None else c,
    )


def _random_walk():
    # scalar unit root: x(t) = x(t-1) + g(t), trend is the plain running sum
    return ArmaModel(
        a0=np.array([[1.0]]),
        a1=np.array([[-1.0]]),
        f0=np.array([[1.0]]),
        f1=np.array([[0.0]]),
        c=np.array([3.0]),
    )


def test_random_walk_exact():
    model = _random_walk()
    spec = NoiseSpec(kind="gaussian", dim=1, seed=5, burn_in=4)
    for form in ("natural_ns", "natural_s", "extended_ns", "extended_s"):
        rep = represent(form, model, spec, 50)
        assert rep.passed, form
        assert rep.residual_max <= 1e-10, form
        assert set(rep.components) == set(COMPONENTS)
        # det_sin carries the initial state forward unchanged
        assert np.abs(rep.components["det_sin"] - 3.0).max() <= 1e-10
        assert np.abs(rep.xhat - rep.oracle).max() <= 1e-10


def test_all_forms_on_jordan_example():
    e, model = model_from_entry("c0", lam=0.25, n=10, c=None)
    c = 0.1 * np.arange(10.0)
    model = ArmaModel(a0=model.a0, a1=model.a1, f0=model.f0, f1=model.f1, c=c)
    spec = NoiseSpec(kind="gaussian", dim=10, seed=12, burn_in=90)
    reports = {}
    for form in ("natural_ns", "natural_s", "extended_ns", "extended_s"):
        rep = represent(form, model, spec, 80)
        reports[form] = rep
        assert rep.passed, form
        assert rep.residual_max <= 1e-6, (form, rep.residual_max)
        assert np.abs(sum(rep.components.values()) - rep.xhat).max() <= 1e-12

    # trend and det_sin are shared across forms; det_reg and k_term agree
    # between the series route and the projected-recursion route
    for a, b in (("natural_ns", "extended_ns"), ("natural_s", "extended_s")):
        ra, rb = reports[a], reports[b]
        for key in ("stochastic_trend", "det_sin"):
            assert np.abs(ra.components[key] - rb.components[key]).max() <= 1e-10
        assert np.abs(ra.components["det_reg"] - rb.components["det_reg"]).max() <= 1e-8
        assert np.abs(ra.components["k_term"] - rb.components["k_term"]).max() <= 1e-7

    assert abs(reports["natural_ns"].r_hat - 3.0) <= 0.3


def test_natural_needs_wide_annulus():
    _, model = model_from_entry("matrix", eps=0.5)
    spec = NoiseSpec(kind="gaussian", dim=2, seed=3, burn_in=60)
    for form in ("natural_ns", "natural_s"):
        with pytest.raises(NaturalFormDiverges):
            represent(form, model, spec, 50)


def _two_state_model(s, a):
    # offsets 0 and (1 - a) / a in every unit: A0 = s I, A1 = -s diag(1, a)
    return ArmaModel(
        a0=s * np.eye(2),
        a1=-s * np.diag([1.0, a]),
        f0=s * np.eye(2),
        f1=np.zeros((2, 2)),
        c=np.zeros(2),
    )


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
def test_natural_form_gate_is_scale_free(scale):
    spec = NoiseSpec(kind="gaussian", dim=2, seed=3, burn_in=60)
    # outer radius 0.45 / 0.55 = 0.818: the natural series diverges in any unit
    with pytest.raises(NaturalFormDiverges):
        represent("natural_ns", _two_state_model(scale, 0.55), spec, 50)
    # outer radius 0.6 / 0.4 = 1.5: it converges in any unit
    rep = represent("natural_ns", _two_state_model(scale, 0.4), spec, 50)
    assert rep.r_hat == pytest.approx(1.5, rel=1e-12)


def test_extended_on_narrow_annulus():
    _, model = model_from_entry("matrix", eps=0.5)
    spec = NoiseSpec(kind="gaussian", dim=2, seed=3, burn_in=60)
    for form in ("extended_ns", "extended_s"):
        rep = represent(form, model, spec, 200)
        assert rep.passed
        assert rep.residual_max <= 1e-10


def test_natural_s_needs_no_presample_depth():
    # the summed series has no cutoff for the presample to reach
    _, model = model_from_entry("c0", lam=0.25, n=10)
    spec = NoiseSpec(kind="gaussian", dim=10, seed=12, burn_in=10)
    rep = represent("natural_s", model, spec, 40)
    assert rep.passed, rep.residual_max
    ext = represent("extended_s", model, spec, 40)
    for key in COMPONENTS:
        assert np.abs(rep.components[key] - ext.components[key]).max() <= 1e-12, key


def test_zero_noise_all_zero():
    _, model = model_from_entry("c0", lam=0.25, n=10)
    spec = NoiseSpec(
        kind="gaussian", dim=10, seed=0, burn_in=70, params={"sigma": 0.0}
    )
    for form in ("natural_ns", "extended_s"):
        rep = represent(form, model, spec, 30)
        assert rep.passed
        for key, vals in rep.components.items():
            assert np.abs(vals).max() == 0.0, (form, key)
        assert np.abs(rep.oracle).max() == 0.0


def test_split_projection_clean():
    e, model = model_from_entry("c0", lam=0.25, n=10)
    spec = NoiseSpec(kind="gaussian", dim=10, seed=21, burn_in=80)
    rep = represent("extended_s", model, spec, 60)
    pair = projections(e.basic, e.pencil)
    split = split_projection(rep, pair)
    assert split.passed
    assert split.max_reg_leak <= 1e-8
    assert split.max_sin_leak <= 1e-8
    assert np.abs(split.x_sin + split.x_reg - rep.xhat).max() <= 1e-10


def test_projection_annihilates_convolution_coefficients():
    e, model = model_from_entry("c0", lam=0.25, n=10)
    pair = projections(e.basic, e.pencil)
    q_stack = coeff_q(e.basic, e.pencil, 50)
    worst = max(
        float(np.abs(pair.domain_sin @ q_stack[s]).max()) for s in range(51)
    )
    assert worst <= 1e-10


def test_stationary_weights_equal_convolution_weights():
    # the two parametrizations of the regular half must coincide
    e = make("c0", lam=0.25, n=10)
    v = coeff_v(e.basic, e.pencil, 30)
    q = coeff_q(e.basic, e.pencil, 30)
    assert np.abs(v - q).max() <= 1e-11
    r = coeff_r(e.pencil, 30)
    u = coeff_u(e.basic, e.pencil, 30)
    assert np.abs(r - (q + u)).max() <= 1e-11


def test_integration_order_labels():
    assert integration_order(SingularityClass(kind="removable")) == "I(0)"
    assert integration_order(SingularityClass(kind="pole", order=2)) == "I(2)"
    with pytest.raises(OrderUndefined):
        integration_order(
            SingularityClass(kind="essential_at_truncation", order=16)
        )


def test_probe_separates_orders():
    _, model = model_from_entry("matrix", eps=0.5, f1_scale=0.0)
    flat = cointegration_probe(
        model, np.array([0.0, 1.0]), t_end=800, n_seeds=5
    )
    assert flat.majority == "I(0)"
    grow = cointegration_probe(
        model, np.array([1.0, 0.0]), t_end=800, n_seeds=5
    )
    assert grow.majority == "I(1)"
    assert flat.counts["I(0)"] >= 4
    assert grow.counts["I(1)"] >= 4


def test_probe_validation():
    _, model = model_from_entry("matrix", eps=0.5)
    with pytest.raises(InputError):
        cointegration_probe(model, np.ones(3))
    with pytest.raises(InputError):
        cointegration_probe(model, np.ones(2), t_end=16)
    with pytest.raises(InputError):
        cointegration_probe(model, np.array([np.nan, 1.0]))


def test_represent_validation():
    _, model = model_from_entry("matrix", eps=0.5)
    spec = NoiseSpec(kind="gaussian", dim=2, seed=0)
    with pytest.raises(InputError):
        represent("sideways", model, spec, 10)
    with pytest.raises(InputError):
        represent("extended_ns", model, spec, -1)
    with pytest.raises(InputError):
        represent("extended_ns", model, spec, True)
    with pytest.raises(InputError):
        represent("extended_ns", model, spec, 10.0)
    assert represent("extended_ns", model, spec, np.int64(10)).t_end == 10


@pytest.mark.parametrize(
    "keywords",
    [
        {"n_seeds": 0},
        {"n_seeds": -1},
        {"n_seeds": 5.0},
        {"n_seeds": True},
        {"base_seed": -1},
        {"base_seed": 0.0},
        {"t_end": 800.0},
        {"t_end": 31},
        {"t_end": 63},
    ],
    ids=repr,
)
def test_probe_integer_arguments(keywords):
    _, model = model_from_entry("matrix", eps=0.5)
    with pytest.raises(InputError):
        cointegration_probe(model, np.ones(2), **{"t_end": 800, "n_seeds": 5, **keywords})


@pytest.mark.parametrize("seed", [0, 7])
def test_probe_complex_route_matches_real_route(seed):
    # e^{i pi/3} times every coefficient leaves the path the same but sends
    # the probe through complex arithmetic
    _, model = model_from_entry("c0", lam=0.25, n=10)
    w = np.exp(1j * np.pi / 3)
    turned = ArmaModel(
        a0=w * model.a0, a1=w * model.a1, f0=w * model.f0, f1=w * model.f1, c=model.c
    )
    for j in range(3):
        f = np.eye(10)[j]
        real = cointegration_probe(model, f, n_seeds=20, base_seed=20 * seed)
        cplx = cointegration_probe(turned, f, n_seeds=20, base_seed=20 * seed)
        assert real.labels == cplx.labels
        assert np.max(np.abs(real.level_slopes - cplx.level_slopes)) <= 1e-10
        assert np.max(np.abs(real.diff_slopes - cplx.diff_slopes)) <= 1e-10


def test_probe_shortest_horizon():
    # the largest window is max(64, t_end // 4) samples, and the differenced
    # series has t_end of them: below 64 no window fits and no slope exists
    _, model = model_from_entry("c0", lam=0.25, n=10)
    with pytest.raises(InputError, match="probe t_end must be an integer >= 64"):
        cointegration_probe(model, np.eye(10)[2], t_end=63, n_seeds=5)
    rep = cointegration_probe(model, np.eye(10)[2], t_end=64, n_seeds=5)
    assert np.isfinite(rep.level_slopes).all()
    assert np.isfinite(rep.diff_slopes).all()


# horizons whose t_end + 1 rows fall one below, at and one above a block,
# on two whole blocks, and one row past them
BLOCK_HORIZONS = [(3, 9, rows - 1) for rows in (_PROBE_ROWS - 1, _PROBE_ROWS, _PROBE_ROWS + 1)]
BLOCK_HORIZONS += [(3, 9, 2 * _PROBE_ROWS - 1), (3, 9, 2 * _PROBE_ROWS)]
# horizons whose largest windows close exactly on block edges: at
# t_end = 4 blocks the largest window is one block long with a hop of half
# a block, so every other one of its windows ends on an edge of the
# series' blocks; at t_end = 8 blocks - 1 it is 2 blocks - 1 long with a
# hop of 1 block - 1, and its first window ends on the second edge of the
# differenced series' blocks, which end one row before the series' own
BLOCK_HORIZONS += [(3, 9, 4 * _PROBE_ROWS), (3, 9, 8 * _PROBE_ROWS - 1)]
# one seed: numpy sums a lone column's window variances pairwise
BLOCK_HORIZONS += [(5, 1, 999), (5, 1, 2000)]


def _probe_form(form):
    # c0 itself; all four coefficients turned by the same phase; or only F_1
    # complex, so that the two gains differ in type
    _, c0 = model_from_entry("c0", lam=0.25, n=10)
    turn = np.exp(1j * np.pi / 3)
    if form == "turned":
        return ArmaModel(
            a0=turn * c0.a0, a1=turn * c0.a1, f0=turn * c0.f0, f1=turn * c0.f1, c=c0.c
        )
    if form == "complex-f1":
        return ArmaModel(a0=c0.a0, a1=c0.a1, f0=c0.f0, f1=turn * c0.f1, c=c0.c)
    return c0


@pytest.mark.parametrize("form", ["c0", "turned", "complex-f1"])
@pytest.mark.parametrize(
    "seed, n_seeds, t_end", [(0, 100, 2000), (7, 100, 2000), (7, 23, 64), *BLOCK_HORIZONS]
)
def test_probe_matches_the_whole_block_route(seed, n_seeds, t_end, form):
    # the probe draws, drives and advances every seed one block of rows at a
    # time, and takes each block of the series into its slopes as it comes;
    # the route that draws each seed's whole horizon at once, forms the two
    # products, runs the kernel over every row and evaluates the statistic
    # on the whole series gives the same slopes bit for bit, for every
    # PROBES coordinate
    model = _probe_form(form)
    step, drive = probe_drive_block(model, t_end, n_seeds, 100 * seed)
    x = kernels.arma_recursion(step, drive.transpose(1, 2, 0), np.zeros((10, n_seeds)))
    scales = np.unique(np.geomspace(16, max(64, t_end // 4), PROBE_SCALES).astype(int))
    for j in range(3):
        f = np.eye(10)[j]
        rep = cointegration_probe(
            model, f, t_end=t_end, n_seeds=n_seeds, base_seed=100 * seed
        )
        y = np.real(f @ x)
        assert np.array_equal(rep.level_slopes, variance_time_slopes_literal(y, scales))
        assert np.array_equal(
            rep.diff_slopes, variance_time_slopes_literal(np.diff(y, axis=0), scales)
        )


def _probe_peak(n, t_end=2000):
    _, model = model_from_entry("c0", lam=0.25, n=n)
    tracemalloc.start()
    try:
        cointegration_probe(model, np.eye(n)[0], t_end=t_end, n_seeds=100)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_probe_keeps_one_block_of_paths():
    # n = 10, m = 100, T = 2000: the paths are (T+1) n m float64 = 16.0 MB;
    # holding every path made 20.8 MB, and holding the functional's series
    # with its difference and prefix sums 7.25 MB.  One block of noise, of
    # drive and of the products is about 1 MB each
    assert _probe_peak(10) <= 5e6


def test_probe_memory_does_not_grow_with_the_horizon():
    # ten times the horizon: the series, its difference and their prefix
    # sums would take ten times the 7.25 MB they took at T = 2000
    short, long = _probe_peak(10), _probe_peak(10, t_end=20000)
    assert max(short, long) <= 5e6
    assert abs(short - long) <= 0.5e6


def test_probe_memory_does_not_grow_with_the_state():
    # n = 40: the (T+1) n m state would be 64 MB; only one block of it lives
    assert _probe_peak(40) < 64e6 / 4


def test_residual_check_holds_no_path_sized_temporary():
    # T = 1e5, n = 10: each path-sized float64 array is 8 MB.  The two
    # recursions hold 16 + 24 MB and the oracle, xhat and the error 8 MB
    # each, 64 MB with no temporary of the sum or the noise's drive beside them
    _, model = model_from_entry("c0", c=0.1 * np.arange(10.0), lam=0.25, n=10)
    spec = NoiseSpec(kind="gaussian", dim=10, seed=2, burn_in=50)
    tracemalloc.start()
    try:
        rep = represent("extended_s", model, spec, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 66e6


def _unitary(seed, n):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated_c0(seed, lam=0.25, n=10):
    """c0 under a seeded unitary similarity, with its closed-form pieces."""
    e = make("c0", lam=lam, n=n)
    q = _unitary(seed, n)
    a1 = q @ e.pencil.c1 @ q.conj().T
    a0 = q @ (e.pencil.c0 - e.pencil.c1) @ q.conj().T
    c = 0.1 * np.arange(1.0, n + 1)
    model = ArmaModel(a0=a0, a1=a1, f0=np.eye(n), f1=0.5 * np.eye(n), c=c)
    rates = lam ** np.arange(1, n - 1)
    p_sin = q[:, :2] @ q[:, :2].conj().T  # T_{-1} C_1: the Jordan coordinates
    return model, q, rates, p_sin


def _turned_c0(seed, n=10):
    """c0 and the same model under a seeded unitary ``U``, whose path is ``U x``."""
    _, model = model_from_entry("c0", c=0.1 * np.arange(1.0, n + 1), lam=0.25, n=n)
    u = _unitary(seed, n)
    turned = ArmaModel(
        a0=u @ model.a0 @ u.conj().T,
        a1=u @ model.a1 @ u.conj().T,
        f0=u @ model.f0,
        f1=u @ model.f1,
        c=u @ model.c,
    )
    return model, turned, u


@pytest.mark.parametrize("form", FORMS)
def test_real_model_runs_in_float64_and_its_unitary_turn_in_complex128(form):
    model, turned, u = _turned_c0(11)
    spec = NoiseSpec(kind="gaussian", dim=10, seed=3, burn_in=40)
    real = represent(form, model, spec, 500)
    cplx = represent(form, turned, spec, 500)
    arrays = {"xhat": real.xhat, "oracle": real.oracle, **real.components}
    assert {k: a.dtype for k, a in arrays.items()} == dict.fromkeys(arrays, np.dtype(np.float64))
    assert cplx.xhat.dtype == cplx.oracle.dtype == np.complex128
    scale = np.abs(real.xhat).max()
    # row t of a path is x(t); U^H x' = x reads x' @ conj(U) in rows
    assert np.abs(cplx.xhat @ u.conj() - real.xhat).max() <= 1e-12 * scale
    for key, part in real.components.items():
        assert np.abs(cplx.components[key] @ u.conj() - part).max() <= 1e-12 * scale, key


@pytest.mark.parametrize("form", FORMS)
def test_a_complex_pair_on_a_real_model(form):
    # the pair rebuilt from a report's [re, im] pairs is complex128; it makes
    # the whole form complex and must give the float64 pair's path
    model, _, _ = _turned_c0(11)
    spec = NoiseSpec(kind="gaussian", dim=10, seed=3, burn_in=40)
    basic = basic_solution(model.pencil)
    assert basic.t_minus_one.dtype == basic.t_zero.dtype == np.float64
    pair = (basic.t_minus_one, basic.t_zero)
    wide = BasicSolution(*(decode_complex(encode_complex(t)) for t in pair))
    assert wide.t_minus_one.dtype == np.complex128
    narrow_rep = represent(form, model, spec, 500, basic=basic)
    wide_rep = represent(form, model, spec, 500, basic=wide)
    assert wide_rep.xhat.dtype == np.complex128 and wide_rep.passed
    scale = np.abs(narrow_rep.xhat).max()
    assert np.abs(wide_rep.xhat - narrow_rep.xhat).max() <= 1e-12 * scale


LITERAL_CASES = {
    "c0": (
        lambda: model_from_entry("c0", c=0.1 * np.arange(10.0), lam=0.25, n=10)[1],
        120,
    ),
    "random_walk": (_random_walk, 80),
    "matrix": (
        lambda: model_from_entry("matrix", c=np.array([1.0, -2.0]), eps=0.5)[1],
        200,
    ),
}


@pytest.mark.parametrize("label", sorted(LITERAL_CASES))
def test_extended_forms_match_literal_convolution(label):
    # the projected recursion against the literal sum over Q_s = R_s - U_s
    build, t_end = LITERAL_CASES[label]
    model = build()
    pencil = model.pencil
    basic = basic_solution(pencil, radius=default_radius(pencil))
    spec = NoiseSpec(kind="gaussian", dim=model.dim, seed=4, burn_in=30)
    g = ma1_g(model, simulate_noise(spec, t_end))
    presample = -g.start
    c1c = pencil.c1 @ model.c
    q_stack = coeff_q(basic, pencil, t_end + presample)
    history = np.zeros((t_end + 1, model.dim), dtype=np.complex128)
    for r in range(1, presample + 1):
        history -= q_stack[r : r + t_end + 1] @ g.at(-r)
    want = {
        "extended_ns": {
            "stationary": causal_stack_apply(q_stack[: t_end + 1], g.window(0, t_end)),
            "k_term": np.zeros_like(history),
        },
        "extended_s": {
            "stationary": causal_stack_apply(q_stack, g.values)[presample:],
            "k_term": history,
        },
    }
    for form, parts in want.items():
        parts["det_reg"] = -(q_stack[: t_end + 1] @ c1c)
        rep = represent(form, model, spec, t_end, basic=basic)
        assert rep.passed, (label, form)
        for key, ref in parts.items():
            err = np.linalg.norm(rep.components[key] - ref)
            assert err <= 1e-10 * max(np.linalg.norm(ref), 1.0), (label, form, key, err)


@pytest.mark.parametrize("seed", [100, 103])
def test_det_reg_matches_closed_form_on_rotated_c0(seed):
    # R_s - U_s cancels to the small regular part; the recursion never forms it
    model, q, rates, _ = _rotated_c0(seed)
    t_end = 2000
    tt = np.arange(t_end + 1)[:, None]
    local = np.zeros((t_end + 1, model.dim), dtype=np.complex128)
    local[:, 2:] = rates ** (tt + 1) * (q.conj().T @ model.c)[2:]
    want = local @ q.T
    spec = NoiseSpec(kind="gaussian", dim=model.dim, seed=0, burn_in=200)
    for form in ("extended_ns", "extended_s"):
        got = represent(form, model, spec, t_end).components["det_reg"]
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err <= 1e-12, (form, err)


def test_extended_stationary_stays_regular_on_long_rotated_path():
    # the projected step is zero on the unit-root directions, so rounding
    # cannot build up there over a long path
    model, _, _, p_sin = _rotated_c0(101)
    spec = NoiseSpec(kind="gaussian", dim=model.dim, seed=1, burn_in=200)
    stationary = represent("extended_s", model, spec, 20000).components["stationary"]
    leak = np.linalg.norm(stationary @ p_sin.T)
    assert leak <= 1e-12 * np.linalg.norm(stationary)


def _volterra_model(n):
    """``a0 = I`` and ``a1 = -(I - V)`` with the Volterra matrix ``V = tril(ones, -1) / n``.

    Its principal part ``T_{-1} C_0`` is nilpotent of index n: the finite
    section of an operator whose resolvent has an essential singularity at
    the unit root, so the pole deepens with n.
    """
    v = np.tril(np.ones((n, n)), -1) / n
    return ArmaModel(
        a0=np.eye(n), a1=-(np.eye(n) - v), f0=np.eye(n), f1=0.5 * np.eye(n), c=0.1 * np.arange(n)
    )


@pytest.mark.parametrize("n", [16, 64, 128, 256])
def test_trend_filter_is_exact_on_deep_volterra_poles(n):
    # a cumulation series of depth n loses every digit here; the filter has
    # no depth and sums the series exactly
    model = _volterra_model(n)
    pencil = model.pencil
    basic = basic_solution(pencil, radius=default_radius(pencil))
    spec = NoiseSpec(kind="gaussian", dim=n, seed=0)
    short = represent("extended_ns", model, spec, 200, basic=basic)
    assert short.passed, short.residual_max
    assert short.singularity.kind == "essential_at_truncation"
    long = represent("extended_ns", model, spec, 2000, basic=basic)
    assert long.residual_max <= 1e-13 * np.abs(long.oracle).max()


TREND_ORACLE_CASES = {
    "c0": (lambda: model_from_entry("c0", c=0.1 * np.arange(10.0), lam=0.25, n=10)[1], 1e-13),
    "volterra_8": (lambda: _volterra_model(8), 1e-13),
    # the cumulation oracle itself is off by about 9e-12 here
    "volterra_16": (lambda: _volterra_model(16), 1e-10),
}


@pytest.mark.parametrize("label", sorted(TREND_ORACLE_CASES))
def test_trend_matches_literal_cumulation(label):
    build, bound = TREND_ORACLE_CASES[label]
    model = build()
    pencil = model.pencil
    basic = basic_solution(pencil, radius=default_radius(pencil))
    spec = NoiseSpec(kind="gaussian", dim=model.dim, seed=3, burn_in=20)
    t_end = 200
    rep = represent("extended_ns", model, spec, t_end, basic=basic)
    g = ma1_g(model, simulate_noise(spec, t_end)).window(0, t_end)
    want = cumulation_trend(basic.t_minus_one, pencil.c0, g, rep.singularity.order)
    trend = rep.components["stochastic_trend"]
    assert np.abs(trend - want).max() <= bound * np.abs(trend).max()


@pytest.mark.parametrize("eps", [1.2, 1.5, 1.9])
def test_natural_forms_inside_the_difference_bound_gap(eps):
    # 1 < r_hat <= 2: the worst-case bound ||diff|| <= 2 does not close, but
    # on drive that is zero before the presample head the series converges
    # whenever r_hat > 1, and its sum is the extended forms' recursion
    _, model = model_from_entry("matrix", c=np.array([1.0, -2.0]), eps=eps)
    spec = NoiseSpec(kind="gaussian", dim=2, seed=3, burn_in=60)
    for nat, ext in (("natural_ns", "extended_ns"), ("natural_s", "extended_s")):
        rn = represent(nat, model, spec, 200)
        re = represent(ext, model, spec, 200)
        assert rn.passed, (nat, rn.residual_max)
        scale = max(1.0, np.abs(re.xhat).max())
        for key in COMPONENTS:
            err = np.abs(rn.components[key] - re.components[key]).max()
            assert err <= 1e-12 * scale, (nat, key, err)


SERIES_CASES = {
    "c0": lambda: model_from_entry("c0", c=0.1 * np.arange(10.0), lam=0.25, n=10)[1],
    "matrix_eps_3": lambda: model_from_entry("matrix", c=np.array([1.0, -2.0]), eps=3.0)[1],
}


@pytest.mark.parametrize("label", sorted(SERIES_CASES))
def test_natural_stationary_matches_literal_series(label):
    # outer radius 3: terms shrink like (2/3)^l, so 150 difference orders
    # reach rounding; V_s = S^s G are the filter's weights written out
    model = SERIES_CASES[label]()
    pencil = model.pencil
    basic = basic_solution(pencil)
    spec = NoiseSpec(kind="gaussian", dim=model.dim, seed=6, burn_in=15)
    t_end = 40
    g = ma1_g(model, simulate_noise(spec, t_end))
    presample = -g.start
    for form, signal, drop in (
        ("natural_ns", g.window(0, t_end), 0),
        ("natural_s", g.values, presample),
    ):
        got = represent(form, model, spec, t_end, basic=basic).components["stationary"]
        series = regular_series(basic.t_zero, pencil.c1, signal, 150)[drop:]
        weights = causal_stack_apply(coeff_v(basic, pencil, signal.shape[0]), signal)[drop:]
        scale = np.abs(got).max()
        assert np.abs(got - series).max() <= 1e-12 * scale, form
        assert np.abs(got - weights).max() <= 1e-12 * scale, form


def test_literal_series_reaches_the_filter_inside_the_gap():
    # at r_hat = 1.5 the difference terms first grow like (2/1.5)^l and then
    # cancel; the literal sum settles on the filter, up to the rounding of
    # its largest terms (about 3e-8 here)
    model = model_from_entry("matrix", c=np.array([1.0, -2.0]), eps=1.5)[1]
    pencil = model.pencil
    basic = basic_solution(pencil)
    spec = NoiseSpec(kind="gaussian", dim=2, seed=3, burn_in=10)
    g = ma1_g(model, simulate_noise(spec, 30)).window(0, 30)
    got = represent("natural_ns", model, spec, 30, basic=basic).components["stationary"]
    series = regular_series(basic.t_zero, pencil.c1, g, 400)
    assert np.abs(got - series).max() <= 1e-6 * np.abs(got).max()


def _counting_a0_solves(monkeypatch):
    """Count the solves named for A_0, in each module that binds ``_checked_solve``."""
    modules = [importlib.import_module(f"gjrep.{name}") for name in ("arma", "pencil", "represent")]
    calls = []
    solve = modules[1]._checked_solve

    def counted(a, b=None, *, what):
        if "A_0" in what:
            calls.append(what)
        return solve(a, b, what=what)

    for module in modules:
        monkeypatch.setattr(module, "_checked_solve", counted)
    return calls


def test_one_model_factors_a0_once(monkeypatch):
    calls = _counting_a0_solves(monkeypatch)
    _, model = model_from_entry("c0")
    spec = NoiseSpec(kind="gaussian", dim=model.dim, seed=1, burn_in=20)
    g = ma1_g(model, simulate_noise(spec, 30))
    simulate_recursion(model, g, 30)
    for form in FORMS:
        assert represent(form, model, spec, 30).passed, form
    cointegration_probe(model, np.eye(model.dim)[0], t_end=64, n_seeds=2)
    assert calls == ["contemporaneous coefficient A_0"]


def test_singular_a0_is_named_by_every_route(tmp_path):
    # A(z) = diag(1 - z, -z): a unit root, and A_0 = diag(1, 0) is singular
    model = ArmaModel(
        a0=np.diag([1.0, 0.0]), a1=-np.eye(2), f0=np.eye(2), f1=0.5 * np.eye(2), c=np.zeros(2)
    )
    spec = NoiseSpec(kind="gaussian", dim=2, seed=0, burn_in=5)
    match = "contemporaneous coefficient A_0"
    for form in FORMS:
        with pytest.raises(SingularMatrixError, match=match):
            represent(form, model, spec, 20)
    with pytest.raises(SingularMatrixError, match=match):
        cointegration_probe(model, np.array([1.0, 0.0]), t_end=64, n_seeds=2)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dump_model(model, spec)))
    for form in FORMS:
        assert main(["represent", "--model", str(path), "--form", form, "--T", "20"]) == 4, form
