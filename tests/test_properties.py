"""Invariants over randomly engineered inputs.

The generators live in oracles.py; every property below must hold for any
pencil with a single unit root, not just the worked examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gjrep import (
    ArmaModel,
    LinearPencil,
    NoiseSpec,
    Trajectory,
    basic_solution,
    classify_singularity,
    closed_form_resolvent,
    laurent_range,
    make,
    projections,
    reduce_arma,
    represent,
    solve_at,
    spectral_norm,
    verify_fundamental,
)
from oracles import (
    arma_pq_path,
    coeff_q,
    coeff_r,
    coeff_u,
    coeff_v,
    diff_neg,
    diff_pos,
    random_unit_root_pencil,
    separation_within_bound,
)

# contour radius safely inside [0, mu_min) for the engineered pencils
RADIUS = 0.2
COMMON = dict(deadline=None, print_blob=True)


def engineered(seed, n, order):
    rng = np.random.default_rng(seed)
    c0, c1 = random_unit_root_pencil(rng, n, order)
    return LinearPencil(c0, c1)


@settings(max_examples=25, **COMMON)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    order=st.integers(1, 2),
)
def test_fundamental_identities_hold(seed, n, order):
    pencil = engineered(seed, n, min(order, n))
    basic = basic_solution(pencil, radius=RADIUS)
    table = laurent_range(basic, pencil, -3, 4)
    t_size = max(spectral_norm(t) for t in table.values())
    c_size = max(pencil.norms)
    scale = t_size * max(*pencil.norms, 1.0)
    report = verify_fundamental(pencil, table, -2, 4)
    # the window reads every table entry, T_{-3} to T_4
    assert report.max_residual <= 1e-8 * scale * max(1.0, c_size * t_size), report.max_residual


@settings(max_examples=25, **COMMON)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    order=st.integers(1, 2),
)
def test_projections_split_the_pencil(seed, n, order):
    order = min(order, n)
    pencil = engineered(seed, n, order)
    basic = basic_solution(pencil, radius=RADIUS)
    pair = projections(basic, pencil)
    # the cross blocks are cross products of the pair that basic_solution
    # bounds, and the reassembly adds the unit defects: all must still vanish
    assert separation_within_bound(pair, pencil)[0]
    # the singular side of an order-k pole has rank >= 1
    rank = int(round(np.trace(pair.domain_sin).real))
    assert 1 <= rank <= n


@settings(max_examples=20, **COMMON)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 5),
    order=st.integers(1, 3),
)
def test_classification_recovers_engineered_order(seed, n, order):
    order = min(order, n)
    pencil = engineered(seed, n, order)
    basic = basic_solution(pencil, radius=RADIUS)
    sclass = classify_singularity(basic, pencil)
    if order == n:
        # collapse at the truncation dimension is indistinguishable from a
        # truncated essential singularity; only the order is determined
        assert sclass.kind in ("pole", "essential_at_truncation")
    else:
        assert sclass.kind == "pole"
    assert sclass.order == order


@settings(max_examples=15, **COMMON)
@given(seed=st.integers(0, 2**32 - 1), angle=st.floats(0.0, 2 * np.pi))
def test_closed_form_matches_direct_solve(seed, angle):
    pencil = engineered(seed, 4, 2)
    basic = basic_solution(pencil, radius=RADIUS)
    z = 1.0 + RADIUS * np.exp(1j * angle)
    got = closed_form_resolvent(basic, pencil, z)
    want = solve_at(pencil, z)
    assert spectral_norm(got - want) <= 1e-8 * max(spectral_norm(want), 1.0)


@settings(max_examples=15, **COMMON)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_coefficient_stack_identities(seed, n):
    pencil = engineered(seed, n, 1)
    basic = basic_solution(pencil, radius=RADIUS)
    v = coeff_v(basic, pencil, 12)
    q = coeff_q(basic, pencil, 12)
    u = coeff_u(basic, pencil, 12)
    r = coeff_r(pencil, 12)
    scale = max(np.abs(q).max(), np.abs(u).max(), 1.0)
    assert np.abs(v - q).max() <= 1e-10 * scale
    assert np.abs(r - (q + u)).max() <= 1e-8 * scale
    # singular projection annihilates the stationary stack
    pair = projections(basic, pencil)
    for s in range(13):
        assert spectral_norm(pair.domain_sin @ q[s]) <= 1e-8 * scale


@settings(max_examples=30, **COMMON)
@given(
    seed=st.integers(0, 2**31),
    start=st.integers(-4, 0),
    length=st.integers(6, 24),
    k=st.integers(0, 3),
)
def test_difference_operators_invert(seed, start, length, k):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((length, 2)) + 1j * rng.standard_normal((length, 2))
    g = Trajectory(start=start, values=vals)
    summed = diff_neg(g.values, g.start, k)
    recovered = diff_pos(summed, 0, k, mode="truncated")
    causal = g.window(0, g.end)
    assert np.abs(recovered - causal).max() <= 1e-10 * max(
        1.0, np.abs(causal).max()
    )


@settings(max_examples=15, **COMMON)
@given(
    seed=st.integers(0, 2**31),
    p=st.integers(1, 3),
    q=st.integers(0, 3),
)
def test_stacked_reduction_matches_oracle(seed, p, q):
    rng = np.random.default_rng(seed)
    n, t_end = 2, 25
    a = [np.eye(n) + 0.2 * rng.standard_normal((n, n))]
    a += [0.3**i * rng.standard_normal((n, n)) for i in range(1, p + 1)]
    f = [0.4**j * rng.standard_normal((n, n)) for j in range(q + 1)]
    r = max(p, q, 1)
    w_vals = rng.standard_normal((t_end + 1 + r, n)) + 1j * rng.standard_normal(
        (t_end + 1 + r, n)
    )
    w = Trajectory(start=-r, values=w_vals)
    want = arma_pq_path(a, f, w_vals, -r, t_end)
    scale = max(1.0, np.abs(want).max())

    stacked = reduce_arma(a, f)
    big = stacked.stack(w)
    model = stacked.model()
    blocks = big.values.shape[0]
    drive = np.stack(
        [
            model.f0 @ big.values[i + 1] + model.f1 @ big.values[i]
            for i in range(blocks - 1)
        ]
    )
    # solve the stacked one-lag system step by step
    x = np.zeros(n * r, dtype=np.complex128)
    rows = []
    for t in range(blocks - 1):
        x = np.linalg.solve(model.a0, drive[t] - model.a1 @ x)
        rows.append(x.copy())
    top = np.stack(rows)[: t_end // r + 1]
    unstacked = stacked.unstack(Trajectory(start=0, values=top))
    m = min(unstacked.end, t_end)
    assert (
        np.abs(unstacked.window(0, m) - want[: m + 1]).max() <= 1e-9 * scale
    )


@settings(max_examples=6, **COMMON)
@given(
    # the natural forms need the outer radius (1 - lam) / lam above one
    lam=st.floats(0.10, 0.24),
    seed=st.integers(0, 2**31),
)
def test_four_forms_reconstruct(lam, seed):
    e = make("c0", lam=lam, n=5)
    n = e.pencil.dim
    model = ArmaModel(
        a0=e.pencil.c0 - e.pencil.c1,
        a1=e.pencil.c1,
        f0=np.eye(n),
        f1=0.5 * np.eye(n),
        c=np.zeros(n),
    )
    spec = NoiseSpec(kind="gaussian", dim=n, seed=seed, burn_in=110)
    reports = {
        form: represent(form, model, spec, 30)
        for form in ("natural_ns", "natural_s", "extended_ns", "extended_s")
    }
    for form, rep in reports.items():
        assert rep.passed, (form, rep.residual_max)
        assert rep.residual_max <= 1e-6
    # the stochastic trend is form-independent
    base = reports["natural_ns"].components["stochastic_trend"]
    for form in ("natural_s", "extended_ns", "extended_s"):
        other = reports[form].components["stochastic_trend"]
        assert np.abs(base - other).max() <= 1e-8 * max(1.0, np.abs(base).max())


@settings(max_examples=5, **COMMON)
@given(seed=st.integers(0, 2**31))
def test_zero_noise_gives_zero_stochastic_parts(seed):
    e = make("c0", lam=0.25, n=4)
    n = e.pencil.dim
    model = ArmaModel(
        a0=e.pencil.c0 - e.pencil.c1,
        a1=e.pencil.c1,
        f0=np.eye(n),
        f1=0.5 * np.eye(n),
        c=np.zeros(n),
    )
    spec = NoiseSpec(
        kind="gaussian", dim=n, seed=seed, burn_in=20, params={"sigma": 0.0}
    )
    rep = represent("extended_s", model, spec, 20)
    assert rep.passed
    for name in ("stochastic_trend", "stationary"):
        assert np.abs(rep.components[name]).max() == 0.0
