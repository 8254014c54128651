"""End-to-end acceptance battery.

One test per criterion, each printing a single PASS/FAIL line (visible
under ``pytest -s``; the per-test verdict of ``pytest -v`` mirrors it).
Tolerances and runtime budgets are asserted, never relaxed.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from gjrep import (
    ArmaModel,
    NaturalFormDiverges,
    NoiseSpec,
    PolynomialPencil,
    Trajectory,
    annulus_estimate,
    augment,
    basic_solution,
    classify_singularity,
    closed_form_resolvent,
    cointegration_probe,
    direct_recursion,
    laurent_range,
    ma1_g,
    make,
    projections,
    reduce_arma,
    represent,
    simulate_recursion,
    sin_basis,
    solve_at,
    spectral_norm,
    split_projection,
    unpack_laurent,
    verify_fundamental,
)
from oracles import coeff_q


def verdict(num, label, checks, elapsed=None):
    ok = all(checks.values())
    tag = "PASS" if ok else "FAIL"
    extra = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"{tag} criterion {num}: {label}{extra}")
    if not ok:
        bad = sorted(k for k, v in checks.items() if not v)
        print(f"     failing checks: {bad}")
        raise AssertionError(f"criterion {num} failed: {bad}")


def arma_from(entry, f1_scale=0.5):
    n = entry.pencil.dim
    return ArmaModel(
        a0=entry.pencil.c0 - entry.pencil.c1,
        a1=entry.pencil.c1,
        f0=np.eye(n),
        f1=f1_scale * np.eye(n),
        c=np.zeros(n),
    )


@pytest.fixture(scope="module")
def natural_runs():
    # unit-root ARMA(1,1) from the two-block cascade example, whose regular
    # series converges on a disc of radius about 3
    t0 = time.perf_counter()
    entry = make("c0", lam=0.25, n=10)
    model = arma_from(entry)
    spec = NoiseSpec(kind="gaussian", dim=10, seed=12, burn_in=90)
    reports = {
        form: represent(form, model, spec, 100)
        for form in ("natural_ns", "natural_s")
    }
    return entry, model, reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def extended_runs():
    entry = make("matrix", eps=0.5)
    model = arma_from(entry)
    spec = NoiseSpec(kind="gaussian", dim=2, seed=12, burn_in=60)
    reports = {
        form: represent(form, model, spec, 200)
        for form in ("extended_ns", "extended_s")
    }
    return entry, model, spec, reports


def test_criterion_1_closed_form_pencil():
    t0 = time.perf_counter()
    entry = make("matrix", eps=0.5)
    pencil = entry.pencil
    basic = basic_solution(pencil)  # fresh contour run, not the attached pair
    want_tm1 = np.array([[0.0, -1.0], [0.0, 0.0]])
    want_t0 = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    pair = projections(basic, pencil)
    want_p = np.array([[1.0, 1.0], [0.0, 0.0]])
    want_q = np.array([[0.0, 1.0], [0.0, 1.0]])
    sclass = classify_singularity(basic, pencil)
    table = laurent_range(basic, pencil, -4, 6)
    fund = verify_fundamental(pencil, table, -3, 6)
    elapsed = time.perf_counter() - t0
    verdict(
        1,
        "two-by-two closed forms, projections, pole(1), fundamental window",
        {
            "t_minus_one": np.abs(basic.t_minus_one - want_tm1).max() <= 1e-10,
            "t_zero": np.abs(basic.t_zero - want_t0).max() <= 1e-10,
            "domain_projection": np.abs(pair.domain_sin - want_p).max() <= 1e-10,
            "range_projection": np.abs(pair.range_sin - want_q).max() <= 1e-10,
            "pole_order_one": (sclass.kind, sclass.order) == ("pole", 1),
            "fundamental": fund.passed and fund.max_residual <= 1e-10,
            "runtime": elapsed < 1.0,
        },
        elapsed,
    )


def test_criterion_2_cascade_example():
    t0 = time.perf_counter()
    entry = make("c0", lam=0.25, n=10)
    pencil = entry.pencil
    basic = basic_solution(pencil)
    pair = projections(basic, pencil)
    want_p = np.diag([1.0, 1.0] + [0.0] * 8)
    sclass = classify_singularity(basic, pencil)
    t_m2 = laurent_range(basic, pencil, -2, -2)[-2]
    want_t_m2 = np.zeros((10, 10))
    want_t_m2[0, 1] = 1.0
    closed_err = 0.0
    for k in range(8):
        z = 1.0 + 1.5 * np.exp(2j * np.pi * k / 8)
        got = closed_form_resolvent(basic, pencil, z)
        closed_err = max(closed_err, np.abs(got - solve_at(pencil, z)).max())
    basis = sin_basis(pencil)
    angles = scipy.linalg.subspace_angles(basis, np.eye(10)[:, :2])
    _, r_hat = annulus_estimate(basic, pencil)
    elapsed = time.perf_counter() - t0
    verdict(
        2,
        "rank-two projections, pole(2), closed resolvent, chain span, annulus",
        {
            "domain_projection": np.abs(pair.domain_sin - want_p).max() <= 1e-10,
            "range_projection": np.abs(pair.range_sin - want_p).max() <= 1e-10,
            "pole_order_two": (sclass.kind, sclass.order) == ("pole", 2),
            "t_minus_two_block": np.abs(t_m2 - want_t_m2).max() <= 1e-10,
            "closed_form_8_points": closed_err <= 1e-9,
            "sin_span_angle": angles.size == 2 and angles.max() <= 1e-6,
            "outer_radius": abs(r_hat - 3.0) <= 0.1 * 3.0,
            "runtime": elapsed < 2.0,
        },
        elapsed,
    )


def test_criterion_3_averaging_kernel():
    t0 = time.perf_counter()
    n = 64
    entry = make("volterra", n=n)
    pencil = entry.pencil
    v = pencil.c0
    basic = basic_solution(pencil)
    pair = projections(basic, pencil)
    sclass = classify_singularity(basic, pencil)
    reg_norm = max(
        spectral_norm(laurent_range(basic, pencil, ell, ell)[ell]) for ell in range(4)
    )
    roots = []
    power = v.copy()
    for k in range(2, 41):
        power = power @ v
        roots.append(spectral_norm(power) ** (1.0 / k))
    decreasing = all(a > b for a, b in zip(roots, roots[1:]))
    elapsed = time.perf_counter() - t0
    verdict(
        3,
        "averaging-kernel norm limit, vanishing regular part, truncation class",
        {
            "norm_near_limit": abs(spectral_norm(v) - 2.0 / np.pi) <= 5e-2,
            "regular_part_zero": reg_norm <= 1e-10,
            "projection_identity": np.abs(pair.domain_sin - np.eye(n)).max()
            <= 1e-10,
            "classification": (sclass.kind, sclass.order)
            == ("essential_at_truncation", n),
            "power_roots_decreasing": decreasing,
            "runtime": elapsed < 5.0,
        },
        elapsed,
    )


def test_criterion_4_aggregation_hierarchy():
    entry = make("hierarchy", base=0.4, n=8)
    pencil = entry.pencil
    vec, sigma = entry.expected["eigenpair"]
    eig_err = np.abs(pencil.c0 @ vec - sigma * vec).max()
    basic = basic_solution(pencil)
    law = entry.expected["resolvent"]
    law_err = 0.0
    for k in range(5):
        z = 1.0 + entry.expected["default_radius"] * np.exp(2j * np.pi * k / 5)
        law_err = max(law_err, np.abs(law(z) - solve_at(pencil, z)).max())
    pair = projections(basic, pencil)
    reg_rank = int(round(np.trace(pair.domain_reg).real))
    verdict(
        4,
        "aggregate eigenrelation, resolvent display, rank-one regular part",
        {
            "eigenrelation": eig_err <= 1e-10,
            "resolvent_display_5_points": law_err <= 1e-9,
            "regular_projection_rank": reg_rank == 1,
        },
    )


def test_criterion_5_natural_forms(natural_runs):
    entry, model, reports, elapsed = natural_runs
    checks = {"runtime": elapsed < 5.0}
    for form, rep in reports.items():
        checks[f"{form}_residual"] = rep.passed and rep.residual_max <= 1e-6
        checks[f"{form}_outer_radius_above_one"] = rep.r_hat > 1.0
    verdict(5, "natural reconstructions on the cascade model", checks, elapsed)


def test_criterion_6_extended_forms(extended_runs):
    entry, model, spec, reports = extended_runs
    checks = {}
    for form, rep in reports.items():
        checks[f"{form}_residual"] = rep.passed and rep.residual_max <= 1e-6
    for form in ("natural_ns", "natural_s"):
        try:
            represent(form, model, spec, 200)
            checks[f"{form}_diverges"] = False
        except NaturalFormDiverges:
            checks[f"{form}_diverges"] = True
    verdict(6, "extended reconstructions where the natural series diverges", checks)


def test_criterion_7_spectral_split(natural_runs, extended_runs):
    c0_entry, _, c0_reports, _ = natural_runs
    mx_entry, _, _, mx_reports = extended_runs
    checks = {}
    for tag, entry, reports in (
        ("cascade", c0_entry, c0_reports),
        ("matrix", mx_entry, mx_reports),
    ):
        basic = basic_solution(entry.pencil)
        pair = projections(basic, entry.pencil)
        for form, rep in reports.items():
            split = split_projection(rep, pair)
            checks[f"{tag}_{form}_reg_leak"] = split.max_reg_leak <= 1e-8
            checks[f"{tag}_{form}_sin_leak"] = split.max_sin_leak <= 1e-8
        q_stack = coeff_q(basic, entry.pencil, 50)
        worst = max(
            spectral_norm(pair.domain_sin @ q_stack[s]) for s in range(51)
        )
        checks[f"{tag}_annihilation"] = worst <= 1e-10
    verdict(7, "projection purity of both decomposition halves", checks)


def test_criterion_8_order_probes():
    t0 = time.perf_counter()
    checks = {}

    mx = arma_from(make("matrix", eps=0.5))
    # functional orthogonal to the range of T_{-1} = span{e1}
    flat = cointegration_probe(mx, np.array([0.0, 1.0]), t_end=2000, n_seeds=100)
    checks["depth1_flat"] = int((flat.level_slopes < 0.3).sum()) >= 95
    # functional with a component along that range
    grow = cointegration_probe(mx, np.array([1.0, 0.0]), t_end=2000, n_seeds=100)
    checks["depth1_growing"] = int((grow.level_slopes > 0.6).sum()) >= 95

    casc = arma_from(make("c0", lam=0.25, n=10))
    for idx, want in ((2, "I(0)"), (1, "I(1)"), (0, "I(2)")):
        f = np.zeros(10)
        f[idx] = 1.0
        rep = cointegration_probe(casc, f, t_end=2000, n_seeds=100)
        checks[f"depth2_coord{idx}_{want}"] = rep.counts.get(want, 0) >= 95
    elapsed = time.perf_counter() - t0
    checks["runtime"] = elapsed < 60.0
    verdict(8, "variance-growth order probes at both depths", checks, elapsed)


def test_criterion_9_reduction_and_unpacking():
    rng = np.random.default_rng(2026)
    n, p, q, t_end = 2, 2, 3, 60
    a = [np.eye(n) + 0.2 * rng.standard_normal((n, n))]
    a += [0.3 * rng.standard_normal((n, n)) for _ in range(p)]
    f = [0.4 * rng.standard_normal((n, n)) for _ in range(q + 1)]
    stacked = reduce_arma(a, f)
    r = stacked.block
    blocks = (t_end + 1 + r - 1) // r + 1
    w_len = (blocks + 1) * r
    w_vals = rng.standard_normal((w_len, n)) + 1j * rng.standard_normal((w_len, n))
    w = Trajectory(start=-r, values=w_vals)
    direct = direct_recursion(a, f, w, t_end)

    model = stacked.model()
    g = ma1_g(model, stacked.stack(w))
    y = simulate_recursion(model, g, blocks - 1)
    unstacked = stacked.unstack(y)
    stack_err = np.abs(unstacked.window(0, t_end) - direct.values).max()

    u = np.array([[1.0], [0.5]])
    poly = PolynomialPencil(
        (
            u @ np.array([[1.0, -1.0]]),  # rank-deficient at the anchor
            rng.standard_normal((2, 2)),
            0.3 * rng.standard_normal((2, 2)),
        )
    )
    aug = augment(poly)
    basic = basic_solution(aug.pencil)
    table = laurent_range(basic, aug.pencil, -3, 3)
    _, disagreement = unpack_laurent(aug, table)
    verdict(
        9,
        "stacked reduction equals direct recursion; block-consistent unpacking",
        {
            "reduction_exact": stack_err <= 1e-12,
            "unpack_consistent": disagreement <= 1e-9,
        },
    )
