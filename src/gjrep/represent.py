"""Additive decompositions of the solution of a singular linear state equation.

Every form writes the path solving ``A_0 x(t) + A_1 x(t-1) = g(t)``,
``x(-1) = c``, as

    x(t) = stochastic_trend + stationary + det_sin + det_reg + k_term

and is checked against the plain recursion.  The trend collects the
cumulation directions (principal Laurent coefficients of the resolvent),
the stationary part inverts the regular directions, the deterministic terms
carry the initial state split across the two spectral subspaces, and the
k-term accounts for presample drive history in the ``_s`` variants.

Forms:
  * ``natural_ns``: stationary part as a difference series in the regular
    Laurent coefficients, drive treated as zero before t = 0.
  * ``natural_s``: same series on actual (full) differences of the
    presample history, plus a history correction through the k vector.
  * ``extended_ns``: stationary part as a causal filter in the regular
    directions: the recursion ``z(t) = (P^c S) z(t-1) + P^c A_0^{-1} g(t)``
    with ``S = -A_0^{-1} A_1`` and the key projection ``P^c = T_0 C_0``.
    Its impulse response is the decaying component ``Q_s = R_s - U_s`` of
    the companion powers; the projected step has eigenvalue zero on the
    singular directions, so rounding cannot build up there.
  * ``extended_s``: the same recursion started at the head of the
    presample, with the presample's propagated state subtracted in the
    k-term; algebraically identical to ``extended_ns``.

The deterministic and history terms are vector recursions of the
coefficient sequences ``U_t``, ``V_t`` and ``Q_t`` applied to one vector;
``coeff_u``, ``coeff_v``, ``coeff_r`` and ``coeff_q`` build the literal
coefficient stacks for inspection and testing.

The natural variants require the regular Laurent series to converge on a
disc of radius above one (divergence raises NaturalFormDiverges) and
certify their truncation with the worst-case difference-operator bound,
which needs radius above two.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import kernels
from .arma import ArmaModel, NoiseSpec, Trajectory, diff_neg, ma1_g, simulate_noise, simulate_recursion
from .errors import (
    ClassificationInconclusive,
    InputError,
    NaturalFormDiverges,
    OrderUndefined,
    TailNotConverged,
)
from .pencil import (
    Array,
    BasicSolution,
    LinearPencil,
    SingularityClass,
    SpectralPair,
    _checked_solve,
    _laurent_orbit,
    annulus_estimate,
    basic_solution,
    classify_singularity,
    default_radius,
    spectral_norm,
)

FORMS = ("natural_ns", "natural_s", "extended_ns", "extended_s")


def _stack(step: Array, start: Array, count: int) -> Array:
    """The first ``count`` terms of ``_laurent_orbit(step, start)``, stacked."""
    return np.stack(list(islice(_laurent_orbit(step, start), count)))


def coeff_u(basic: BasicSolution, pencil: LinearPencil, t_max: int) -> Array:
    """Stack ``U_t = -(I - T_{-1} C_0)^{-(t+1)} T_{-1}`` for t = 0..t_max.

    These carry the singular-direction response to the initial state; for a
    pole of order d the factor is a nilpotent resolvent and U_t grows like
    t^(d-1).
    """
    if t_max < 0:
        raise InputError("t_max must be >= 0")
    eye = np.eye(pencil.dim, dtype=np.complex128)
    w = _checked_solve(eye - basic.t_minus_one @ pencil.c0, eye, "I - T_{-1} C_0")
    return _stack(-w, -(w @ basic.t_minus_one), t_max + 1)


def coeff_v(basic: BasicSolution, pencil: LinearPencil, s_max: int) -> Array:
    """Stack ``V_s = (-1)^s (I - T_0 C_1)^{-(s+1)} (T_0 C_1)^s T_0``.

    The causal moving-average weights of the regular directions: the
    binomial resummation of the regular Laurent coefficients.
    """
    if s_max < 0:
        raise InputError("s_max must be >= 0")
    eye = np.eye(pencil.dim, dtype=np.complex128)
    m = basic.t_zero @ pencil.c1
    w = _checked_solve(eye - m, eye, "I - T_0 C_1")
    return _stack(w @ m, w @ basic.t_zero, s_max + 1)


def coeff_r(pencil: LinearPencil, s_max: int) -> Array:
    """Companion power weights ``R_s = (-1)^s (A_0^{-1} A_1)^s A_0^{-1}``.

    Requires an invertible contemporaneous coefficient ``A_0 = C_0 - C_1``.
    """
    if s_max < 0:
        raise InputError("s_max must be >= 0")
    eye = np.eye(pencil.dim, dtype=np.complex128)
    a0_inv = _checked_solve(pencil.a0, eye, "contemporaneous coefficient A_0")
    return _stack(a0_inv @ pencil.a1, a0_inv, s_max + 1)


def coeff_q(basic: BasicSolution, pencil: LinearPencil, s_max: int) -> Array:
    """Decaying component ``Q_s = R_s - U_s`` of the companion powers.

    Annihilated on the left by the singular domain projection; agrees with
    the V weights wherever both converge.
    """
    return coeff_r(pencil, s_max) - coeff_u(basic, pencil, s_max)


def k_vector(
    basic: BasicSolution,
    pencil: LinearPencil,
    g: Trajectory,
    depth: int,
    *,
    tol_tail: float = 1e-10,
) -> Array:
    """History aggregate ``k = sum_r (-1)^r (I-T_0C_1)^{-r} (T_0C_1)^{r-1} T_0 g(-r)``.

    Truncated at r = depth; the dropped tail is estimated from the decay of
    the coefficient norms and must fall below tol_tail (relative to the
    presample scale), otherwise TailNotConverged.  Lives in the regular
    domain subspace.
    """
    if depth < 1:
        raise InputError("k vector needs at least one presample value")
    if g.start > -depth:
        raise InputError(
            f"presample depth {depth} exceeds available history (start {g.start})"
        )
    eye = np.eye(pencil.dim, dtype=np.complex128)
    m = basic.t_zero @ pencil.c1
    w = _checked_solve(eye - m, eye, "I - T_0 C_1")
    k = np.zeros(pencil.dim, dtype=np.complex128)
    # the tail estimate reads only the norms of the last and fourth-last terms
    recent = deque(maxlen=4)
    for r, coef in zip(range(1, depth + 1), _laurent_orbit(w @ m, -(w @ basic.t_zero))):
        k += coef @ g.at(-r)
        recent.append(coef)
    g_scale = max(1.0, float(np.max(np.abs(g.window(-depth, -1)))))
    last = spectral_norm(recent[-1])
    if len(recent) == 4:
        prev = spectral_norm(recent[0])
        ratio = (last / prev) ** (1.0 / 3.0) if prev > 0 else 0.0
    else:
        ratio = 0.5
    if ratio >= 1.0:
        raise TailNotConverged(
            f"history coefficients do not decay (ratio {ratio:.3f})"
        )
    tail = last * ratio / (1.0 - ratio) * g_scale
    if tail > tol_tail * g_scale * 1e3:
        raise TailNotConverged(
            f"history tail estimate {tail:.3e} too large at depth {depth}; "
            "increase the presample burn-in"
        )
    return k


def natural_budget(
    basic: BasicSolution,
    pencil: LinearPencil,
    *,
    g_scale: float = 1.0,
    tol_tail: float = 1e-10,
    l_cap: int = 400,
) -> tuple[int, float, float]:
    """Truncation depth for the natural difference series.

    Returns ``(cutoff, tail_estimate, r_hat)`` where the worst-case bound
    ``||T_l|| 2^l g_scale`` summed past the cutoff stays below tol_tail.
    Raises NaturalFormDiverges when the regular series has convergence
    radius at or below one, TailNotConverged when the radius is too small
    for the difference-operator bound to close (at or below two) or the cap
    is hit.
    """
    _, r_hat = annulus_estimate(basic, pencil, l_max=32)
    if r_hat <= 1.0:
        raise NaturalFormDiverges(
            f"regular Laurent series has convergence radius {r_hat:.4f} <= 1; "
            "the natural form does not exist"
        )
    bounds = []
    target = tol_tail
    orbit = _laurent_orbit(basic.t_zero @ pencil.c1, basic.t_zero)
    for ell, acc in zip(range(l_cap + 1), orbit):
        bounds.append(spectral_norm(acc) * (2.0**ell) * g_scale)
        if ell >= 4:
            prev, last = bounds[-5], bounds[-1]
            ratio = (last / prev) ** 0.25 if prev > 0 else 0.0
            if last == 0.0:
                return ell, 0.0, r_hat
            if ratio < 1.0 and last * ratio / (1.0 - ratio) <= target:
                return ell, last * ratio / (1.0 - ratio), r_hat
        elif bounds[-1] == 0.0:
            return ell, 0.0, r_hat
    if r_hat <= 2.0:
        raise TailNotConverged(
            f"convergence radius {r_hat:.4f} <= 2: the worst-case bound on the "
            "truncated difference operator does not contract"
        )
    raise TailNotConverged(
        f"series bound still {bounds[-1]:.3e} > {target:.3e} at cutoff cap {l_cap}"
    )


def _orbit(step: Array, first: Array, horizon: int) -> Array:
    """Rows ``step^t first`` for t = 0..horizon-1, by vector recursion.

    ``first`` is one vector (n,) or a batch of columns (n, m); the result
    has shape (horizon, n) or (horizon, n, m) accordingly.
    """
    cols = first.reshape(first.shape[0], -1)
    drive = np.zeros((horizon,) + cols.shape, dtype=np.complex128)
    drive[0] = cols
    out = kernels.arma_recursion(step, drive, np.zeros_like(drive[0]))
    return out.reshape((horizon,) + first.shape)


def _difference_series(t_stack: Array, signal: Array, *, drop: int) -> Array:
    """Accumulate ``sum_l (-1)^l T_l (diff^l signal)`` at the last rows.

    ``signal`` holds the drive from some start time; differences shrink the
    front by one row each order.  ``drop`` rows are discarded from the
    front of the order-0 signal alignment, so the output has
    ``signal.shape[0] - drop`` rows; ``drop`` must reach the cutoff, so that
    every difference window exists.  Zero-padded (truncated) differences of
    a causal signal are those of the signal with ``cutoff`` zero rows
    prepended.
    """
    cutoff = t_stack.shape[0] - 1
    if drop < cutoff:
        raise InputError(
            f"presample depth {drop} is shallower than the series cutoff {cutoff}"
        )
    out = np.zeros((signal.shape[0] - drop, signal.shape[1]), np.complex128)
    d = signal
    for ell in range(cutoff + 1):
        sign = -1.0 if ell % 2 else 1.0
        out += sign * (d[drop - ell :] @ t_stack[ell].T)
        if ell < cutoff:
            d = np.diff(d, axis=0)
    return out


@dataclass(frozen=True)
class RepresentationReport:
    """One decomposition of a simulated path, with its reconstruction check."""

    form: str
    t_end: int
    components: dict[str, Array]
    xhat: Array
    oracle: Array
    residual_max: float
    residual_mean: float
    budgets: dict[str, float]
    s_hat: float
    r_hat: float
    singularity: SingularityClass
    tol_rep: float
    tol_tail: float
    passed: bool


def represent(
    form: str,
    model: ArmaModel,
    noise: NoiseSpec,
    t_end: int,
    *,
    basic: BasicSolution | None = None,
    tol_rep: float = 1e-6,
    tol_tail: float = 1e-10,
    radius: float | None = None,
) -> RepresentationReport:
    """Decompose the simulated path per ``form`` and verify the reconstruction.

    Simulates the seeded noise, builds the MA(1) drive, runs the plain
    recursion as the oracle, assembles the five components of the requested
    form, and reports the worst reconstruction error.
    """
    if form not in FORMS:
        raise InputError(f"unknown form {form!r}; expected one of {FORMS}")
    if t_end < 0:
        raise InputError("t_end must be >= 0")
    pencil = model.pencil()
    if basic is None:
        rho = default_radius(pencil) if radius is None else radius
        basic = basic_solution(pencil, radius=rho)

    path = simulate_noise(noise, t_end)
    g = ma1_g(model, path)  # covers [-burn_in, t_end]
    oracle = simulate_recursion(model, g, t_end)

    sclass = classify_singularity(basic, pencil)
    if sclass.kind == "removable":
        trend_depth = 0
    elif sclass.kind in ("pole", "essential_at_truncation"):
        trend_depth = int(sclass.order)
    else:
        raise ClassificationInconclusive(
            "cannot pick the cumulation depth: singularity classification "
            f"came back {sclass.kind!r}"
        )
    s_hat, r_hat = annulus_estimate(basic, pencil)

    n = model.dim
    horizon = t_end + 1
    presample = -g.start
    g_causal = g.window(0, t_end)
    g_scale = max(1.0, float(np.max(np.abs(g.values))))

    trend = np.zeros((horizon, n), dtype=np.complex128)
    neg_step = basic.t_minus_one @ pencil.c0
    cum = g_causal
    for k, tkm in zip(range(1, trend_depth + 1), _laurent_orbit(neg_step, basic.t_minus_one)):
        cum = np.cumsum(cum, axis=0)
        sign = -1.0 if k % 2 else 1.0
        trend += sign * (cum @ tkm.T)

    eye = np.eye(n, dtype=np.complex128)
    c1c = pencil.c1 @ model.c
    w_sin = _checked_solve(eye - neg_step, eye, "I - T_{-1} C_0")
    det_sin = _orbit(w_sin, w_sin @ (basic.t_minus_one @ c1c), horizon)

    budgets: dict[str, float] = {
        "trend_depth": float(trend_depth),
        "presample": float(presample),
    }

    if form.startswith("natural"):
        cutoff, tail_est, _ = natural_budget(
            basic, pencil, g_scale=g_scale, tol_tail=tol_tail
        )
        budgets["series_cutoff"] = float(cutoff)
        budgets["tail_estimate"] = tail_est
        pos_step = basic.t_zero @ pencil.c1
        t_stack = _stack(pos_step, basic.t_zero, cutoff + 1)
        if form == "natural_ns":
            # cutoff zero rows before t = 0 give the truncated differences; the
            # padded copy is passed inline so it is freed before the recursions
            stationary = _difference_series(
                t_stack, np.concatenate([np.zeros((cutoff, n), np.complex128), g_causal]), drop=cutoff
            )
            kvec = np.zeros(n, dtype=np.complex128)
        else:
            if presample < cutoff:
                raise TailNotConverged(
                    f"stationary-history form needs presample depth >= series "
                    f"cutoff {cutoff}, got {presample}"
                )
            stationary = _difference_series(t_stack, g.values, drop=presample)
            kvec = k_vector(basic, pencil, g, presample, tol_tail=tol_tail)
        # V_t applied to C_1 c and C_1 k in one batched recursion
        w_reg = _checked_solve(eye - pos_step, eye, "I - T_0 C_1")
        both = -_orbit(
            -(w_reg @ pos_step),
            w_reg @ basic.t_zero @ pencil.c1 @ np.stack([model.c, kvec], axis=1),
            horizon,
        )
        det_reg, k_term = both[:, :, 0], both[:, :, 1]
    else:
        # Q_s = (P^c S)^s P^c A_0^{-1}: every extended term is a recursion in
        # the projected step, which is zero on the singular directions
        a0_inv = _checked_solve(pencil.a0, eye, "contemporaneous coefficient A_0")
        gain = basic.t_zero @ pencil.c0 @ a0_inv
        q_step = -(gain @ pencil.a1)
        start = 0 if form == "extended_ns" else presample
        # columns: the drive from -start on; the impulse -Q_0 C_1 c at t = 0;
        # minus the presample drive alone, which from t = 0 on is the
        # propagated history -(P^c S)^(t+1) z(-1)
        rows = g.values[presample - start :] @ gain.T
        drive = np.zeros(rows.shape + (3,), dtype=np.complex128)
        drive[:, :, 0] = rows
        drive[start, :, 1] = -(gain @ c1c)
        drive[:start, :, 2] = -rows[:start]
        z = kernels.arma_recursion(
            q_step, drive, np.zeros((n, 3), dtype=np.complex128)
        )[start:]
        stationary, det_reg, k_term = z[:, :, 0], z[:, :, 1], z[:, :, 2]
        budgets["convolution_depth"] = float(t_end + start)

    components = {
        "stochastic_trend": trend,
        "stationary": stationary,
        "det_sin": det_sin,
        "det_reg": det_reg,
        "k_term": k_term,
    }
    xhat = trend + stationary + det_sin + det_reg + k_term
    err = np.abs(xhat - oracle.values)
    residual_max = float(err.max())
    residual_mean = float(err.mean())
    return RepresentationReport(
        form=form,
        t_end=t_end,
        components=components,
        xhat=xhat,
        oracle=oracle.values,
        residual_max=residual_max,
        residual_mean=residual_mean,
        budgets=budgets,
        s_hat=s_hat,
        r_hat=r_hat,
        singularity=sclass,
        tol_rep=tol_rep,
        tol_tail=tol_tail,
        passed=residual_max <= tol_rep,
    )


@dataclass(frozen=True)
class SplitReport:
    """Projection purity of the two halves of a decomposition."""

    x_sin: Array
    x_reg: Array
    max_reg_leak: float  # worst ||P_reg applied to the singular half||
    max_sin_leak: float  # worst ||P_sin applied to the regular half||
    tol: float
    passed: bool


def split_projection(
    report: RepresentationReport,
    pair: SpectralPair,
    *,
    tol: float = 1e-8,
) -> SplitReport:
    """Check that trend + det_sin and the rest live in complementary subspaces.

    The singular half must be annihilated by the regular domain projection
    and vice versa, uniformly over the sample path.
    """
    comp = report.components
    x_sin = comp["stochastic_trend"] + comp["det_sin"]
    x_reg = comp["stationary"] + comp["det_reg"] + comp["k_term"]
    reg_leak = float(
        np.max(np.linalg.norm(x_sin @ pair.domain_reg.T, axis=1), initial=0.0)
    )
    sin_leak = float(
        np.max(np.linalg.norm(x_reg @ pair.domain_sin.T, axis=1), initial=0.0)
    )
    return SplitReport(
        x_sin=x_sin,
        x_reg=x_reg,
        max_reg_leak=reg_leak,
        max_sin_leak=sin_leak,
        tol=tol,
        passed=max(reg_leak, sin_leak) <= tol,
    )


def integration_order(sclass: SingularityClass) -> str:
    """Integration order label implied by the singularity class."""
    if sclass.kind == "removable":
        return "I(0)"
    if sclass.kind == "pole":
        return f"I({sclass.order})"
    raise OrderUndefined(
        f"no finite integration order for singularity kind {sclass.kind!r}"
    )


@dataclass(frozen=True)
class ProbeReport:
    """Monte Carlo integration-order probe of one linear functional."""

    functional: Array
    t_end: int
    n_seeds: int
    level_slopes: Array
    diff_slopes: Array
    labels: tuple[str, ...]
    counts: dict[str, int]
    majority: str
    thresholds: tuple[float, float, float]


def _variance_time_slopes(y: Array, scales: Array) -> Array:
    """Log-log slope of the window sample variance against window length.

    y has shape (T+1, m); for each scale w the within-window variance is
    averaged over half-overlapping windows, which concentrates the per-path
    statistic enough for threshold classification.  Returns one slope per
    column.
    """
    rows, m = y.shape
    zero = np.zeros((1, m))
    s1 = np.concatenate([zero, np.cumsum(y, axis=0)])
    s2 = np.concatenate([zero, np.cumsum(y * y, axis=0)])
    log_var = np.empty((scales.shape[0], m))
    for i, w in enumerate(scales):
        offs = np.arange(0, rows - w + 1, max(1, w // 2))
        mu = (s1[offs + w] - s1[offs]) / w
        var = (s2[offs + w] - s2[offs]) / w - mu * mu
        log_var[i] = np.log(np.maximum(var.mean(axis=0), 1e-300))
    lt = np.log(scales.astype(float))[:, None]
    lt_c = lt - lt.mean(axis=0)
    return (lt_c * (log_var - log_var.mean(axis=0))).sum(axis=0) / (
        lt_c**2
    ).sum(axis=0)


def cointegration_probe(
    model: ArmaModel,
    functional: Array,
    *,
    t_end: int = 2000,
    n_seeds: int = 100,
    base_seed: int = 0,
    sigma: float = 1.0,
    n_scales: int = 10,
    thresholds: tuple[float, float, float] = (0.3, 0.6, 1.4),
) -> ProbeReport:
    """Estimate the integration order of ``f . x(t)`` by variance growth.

    Drives the state equation with seeded gaussian noise (zero initial
    state), one path per seed, and fits the growth rate of the window
    sample variance of the functional against the window length on a
    geometric scale grid: the variance is flat for a stationary
    functional, grows linearly for a once-integrated one, and at least
    quadratically beyond that.  Slopes below the first threshold read as
    I(0); between the second and third as I(1); above the third, with the
    differenced series reading I(1), as I(2).
    """
    f = np.asarray(functional, dtype=np.complex128).reshape(-1)
    if f.shape[0] != model.dim:
        raise InputError(f"functional must have length {model.dim}")
    if t_end < 32:
        raise InputError("probe horizon too short")
    n, m = model.dim, n_seeds
    length = t_end + 2  # noise on [-1, t_end]
    noise = np.empty((length, n, m), dtype=np.complex128)
    for i in range(m):
        rng = np.random.default_rng(base_seed + i)
        noise[:, :, i] = rng.standard_normal((length, n)) * sigma
    drive = model.f0 @ noise[1:]
    drive += model.f1 @ noise[:-1]
    del noise  # at most three (T, n, m) arrays are alive at once
    a0_inv = _checked_solve(
        model.a0, np.eye(n, dtype=np.complex128), "contemporaneous coefficient A_0"
    )
    step = -(a0_inv @ model.a1)
    drive = a0_inv @ drive
    x = kernels.arma_recursion(step, drive, np.zeros((n, m), np.complex128))
    y = np.real(np.conj(f) @ x)

    scales = np.unique(
        np.geomspace(16, max(64, t_end // 4), n_scales).astype(int)
    )
    level = _variance_time_slopes(y, scales)
    diff = _variance_time_slopes(np.diff(y, axis=0), scales)

    t0, t1, t2 = thresholds
    labels = []
    for sl, sd in zip(level, diff):
        if sl < t0:
            labels.append("I(0)")
        elif t1 < sl < t2:
            labels.append("I(1)")
        elif sl >= t2 and t1 < sd < t2:
            labels.append("I(2)")
        else:
            labels.append("inconclusive")
    counts: dict[str, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    majority = max(sorted(counts), key=lambda lab: counts[lab])
    return ProbeReport(
        functional=f,
        t_end=t_end,
        n_seeds=n_seeds,
        level_slopes=level,
        diff_slopes=diff,
        labels=tuple(labels),
        counts=counts,
        majority=majority,
        thresholds=thresholds,
    )
