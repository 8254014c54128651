"""The four decompositions, the projection split, and the order probe."""

import numpy as np
import pytest

from gjrep import (
    ArmaModel,
    InputError,
    NaturalFormDiverges,
    NoiseSpec,
    OrderUndefined,
    SingularityClass,
    basic_solution,
    cointegration_probe,
    default_radius,
    integration_order,
    ma1_g,
    make,
    projections,
    represent,
    simulate_noise,
    split_projection,
)
from oracles import (
    causal_stack_apply,
    coeff_q,
    coeff_r,
    coeff_u,
    coeff_v,
    cumulation_trend,
    regular_series,
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

    # the natural forms sum their series in closed form: no cutoff to report
    assert set(reports["natural_s"].budgets) == {"presample"}
    assert set(reports["extended_s"].budgets) == {"presample", "convolution_depth"}
    assert abs(reports["natural_ns"].r_hat - 3.0) <= 0.3


def test_natural_needs_wide_annulus():
    _, model = model_from_entry("matrix", eps=0.5)
    spec = NoiseSpec(kind="gaussian", dim=2, seed=3, burn_in=60)
    for form in ("natural_ns", "natural_s"):
        with pytest.raises(NaturalFormDiverges):
            represent(form, model, spec, 50)


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


def test_represent_validation():
    _, model = model_from_entry("matrix", eps=0.5)
    spec = NoiseSpec(kind="gaussian", dim=2, seed=0)
    with pytest.raises(InputError):
        represent("sideways", model, spec, 10)
    with pytest.raises(InputError):
        represent("extended_ns", model, spec, -1)


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
    pencil = model.pencil()
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


@pytest.mark.parametrize("n", [16, 64, 128])
def test_trend_filter_is_exact_on_deep_volterra_poles(n):
    # a cumulation series of depth n loses every digit here; the filter has
    # no depth and sums the series exactly
    model = _volterra_model(n)
    pencil = model.pencil()
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
    pencil = model.pencil()
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
    pencil = model.pencil()
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
    pencil = model.pencil()
    basic = basic_solution(pencil)
    spec = NoiseSpec(kind="gaussian", dim=2, seed=3, burn_in=10)
    g = ma1_g(model, simulate_noise(spec, 30)).window(0, 30)
    got = represent("natural_ns", model, spec, 30, basic=basic).components["stationary"]
    series = regular_series(basic.t_zero, pencil.c1, g, 400)
    assert np.abs(got - series).max() <= 1e-6 * np.abs(got).max()
