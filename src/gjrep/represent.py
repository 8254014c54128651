"""Additive decompositions of the solution of a singular linear state equation.

Every form writes the path solving ``A_0 x(t) + A_1 x(t-1) = g(t)``,
``x(-1) = c``, as

    x(t) = stochastic_trend + stationary + det_sin + det_reg + k_term

and is checked against the plain recursion.  The trend collects the
cumulation directions (principal Laurent coefficients of the resolvent),
the stationary part inverts the regular directions, the deterministic terms
carry the initial state split across the two spectral subspaces, and the
k-term accounts for presample drive history in the ``_s`` variants.

The trend is the whole principal series ``sum_k (-1)^k T_{-k} cum^k g``
summed in closed form: with ``N = T_{-1} C_0`` and ``W = (I - N)^{-1}`` it is
the causal filter ``h(t) = W h(t-1) - W T_{-1} g(t)``.  The series is a
Neumann series in the nilpotent or quasinilpotent ``N``, so the filter needs
no cumulation depth and is exact for poles of any order and for truncations
of an essential singularity.  The singularity classification only guards
that the pair belongs to the unit root alone: a principal part that is not
nilpotent raises ClassificationInconclusive.

The stationary part is the other half of the same idea.  The natural forms
write it as the paper's series ``sum_l (-1)^l T_l diff^l g`` of backward
differences; since ``(-1)^l T_l = M^l T_0`` with ``M = T_0 C_1``, the series
sums to ``(I - M diff)^{-1} T_0 g``, the causal filter
``y(t) = S y(t-1) + G g(t)`` with ``W = (I - M)^{-1}``, ``S = -W M`` and
``G = W T_0``.  The extended forms use the projected recursion
``z(t) = (P^c S_A) z(t-1) + P^c A_0^{-1} g(t)`` instead, with the companion
step ``S_A = -A_0^{-1} A_1`` and the key projection ``P^c = T_0 C_0``.  Its
impulse response is the decaying component ``Q_s = R_s - U_s`` of the
companion powers, and the projected step has eigenvalue zero on the
singular directions, so rounding cannot build up there.  So every form runs
one batched recursion in its own ``(step, gain)``, with three columns: the
drive, the impulse ``-gain C_1 c`` at t = 0 that gives det_reg, and minus
the presample drive alone, which from t = 0 on is the propagated history
in the k-term.

Forms:
  * ``natural_ns``: the series filter, drive treated as zero before t = 0.
  * ``natural_s``: the series filter started at the head of the presample,
    with the presample's propagated state subtracted in the k-term.
  * ``extended_ns``: the projected recursion, drive treated as zero before
    t = 0.
  * ``extended_s``: the projected recursion started at the head of the
    presample; algebraically identical to ``extended_ns``.

The natural forms need the regular Laurent series to converge on a disc of
radius above one: the drive is zero before the head of the presample, and
on such drive the series converges exactly when ``M`` has spectral radius
below one, the weight of ``g(t-i)`` being ``M^i (I - M)^{-(i+1)}`` summed
over every difference order.  An outer annulus estimate at or below one
raises NaturalFormDiverges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .arma import ArmaModel, NoiseSpec, ma1_g, simulate_noise, simulate_recursion
from .errors import (
    ClassificationInconclusive,
    InputError,
    NaturalFormDiverges,
    OrderUndefined,
)
from .pencil import (
    Array,
    BasicSolution,
    SingularityClass,
    SpectralPair,
    _checked_solve,
    annulus_estimate,
    basic_solution,
    classify_singularity,
)

FORMS = ("natural_ns", "natural_s", "extended_ns", "extended_s")
SPLIT_TOL = 1e-8  # largest leak the projection split allows
PROBE_SCALES = 10  # window lengths on the probe's geometric grid
PROBE_THRESHOLDS = (0.3, 0.6, 1.4)  # variance-slope cuts between the probe's labels


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
    passed: bool


def represent(
    form: str,
    model: ArmaModel,
    noise: NoiseSpec,
    t_end: int,
    *,
    basic: BasicSolution | None = None,
    tol_rep: float = 1e-6,
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
        basic = basic_solution(pencil, radius=radius)

    path = simulate_noise(noise, t_end)
    g = ma1_g(model, path)  # covers [-burn_in, t_end]
    oracle = simulate_recursion(model, g, t_end)

    sclass = classify_singularity(basic, pencil)
    if sclass.kind == "inconclusive":
        raise ClassificationInconclusive(
            "the principal part T_{-1} C_0 is not nilpotent: the contour may "
            "enclose a singularity other than the unit root"
        )
    s_hat, r_hat = annulus_estimate(basic, pencil)

    n = model.dim
    horizon = t_end + 1
    presample = -g.start
    g_causal = g.window(0, t_end)

    # The whole principal series -cum (I - N cum)^{-1} T_{-1} g, with N = T_{-1} C_0
    # and cum the causal running sum, is the filter h(t) = W h(t-1) - W T_{-1} g(t)
    # with W = (I - N)^{-1}; det_sin is W^(t+1) T_{-1} C_1 c, the same recursion
    # from one impulse.  No cumulation depth enters, and nothing cancels.
    eye = np.eye(n, dtype=np.complex128)
    c1c = pencil.c1 @ model.c
    w_sin = _checked_solve(eye - basic.t_minus_one @ pencil.c0, eye, "I - T_{-1} C_0")
    drive = np.zeros((horizon, n, 2), dtype=np.complex128)
    drive[:, :, 0] = -(g_causal @ (w_sin @ basic.t_minus_one).T)
    drive[0, :, 1] = w_sin @ (basic.t_minus_one @ c1c)
    sin = kernels.arma_recursion(w_sin, drive, np.zeros((n, 2), dtype=np.complex128))
    trend, det_sin = sin[:, :, 0], sin[:, :, 1]

    budgets: dict[str, float] = {"presample": float(presample)}
    start = presample if form.endswith("_s") else 0
    if form.startswith("natural"):
        if r_hat <= 1.0:
            raise NaturalFormDiverges(
                f"regular Laurent series has convergence radius {r_hat:.4f} <= 1; "
                "the natural form does not exist"
            )
        # sum_l (-1)^l T_l diff^l g = (I - M diff)^{-1} T_0 g with M = T_0 C_1:
        # the filter in S = -W M and G = W T_0, W = (I - M)^{-1}
        m = basic.t_zero @ pencil.c1
        w_reg = _checked_solve(eye - m, eye, "I - T_0 C_1")
        step, gain = -(w_reg @ m), w_reg @ basic.t_zero
    else:
        # Q_s = (P^c S_A)^s P^c A_0^{-1}: every extended term is a recursion in
        # the projected step, which is zero on the singular directions
        a0_inv = _checked_solve(pencil.a0, eye, "contemporaneous coefficient A_0")
        gain = basic.t_zero @ pencil.c0 @ a0_inv
        step = -(gain @ pencil.a1)
        budgets["convolution_depth"] = float(t_end + start)
    # columns: the drive from -start on; the impulse -gain C_1 c at t = 0;
    # minus the presample drive alone, which from t = 0 on is the
    # propagated history -step^(t+1) z(-1)
    drive = np.zeros((horizon + start, n, 3), dtype=np.complex128)
    drive[:, :, 0] = g.values[presample - start :] @ gain.T
    drive[start, :, 1] = -(gain @ c1c)
    drive[:start, :, 2] = -drive[:start, :, 0]
    z = kernels.arma_recursion(step, drive, np.zeros((n, 3), dtype=np.complex128))[start:]
    stationary, det_reg, k_term = z[:, :, 0], z[:, :, 1], z[:, :, 2]

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


def split_projection(report: RepresentationReport, pair: SpectralPair) -> SplitReport:
    """Check that trend + det_sin and the rest live in complementary subspaces.

    The singular half must be annihilated by the regular domain projection
    and vice versa, uniformly over the sample path, up to ``SPLIT_TOL``.
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
        tol=SPLIT_TOL,
        passed=max(reg_leak, sin_leak) <= SPLIT_TOL,
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
) -> ProbeReport:
    """Estimate the integration order of ``f . x(t)`` by variance growth.

    Drives the state equation with seeded standard gaussian noise (zero
    initial state), one path per seed, and fits the growth rate of the
    window sample variance of the functional against the window length on
    a geometric grid of ``PROBE_SCALES`` lengths: the variance is flat for
    a stationary functional, grows linearly for a once-integrated one, and
    at least quadratically beyond that.  Slopes below the first of
    ``PROBE_THRESHOLDS`` read as I(0); between the second and third as
    I(1); above the third, with the differenced series reading I(1), as
    I(2).

    The probe takes no noise scale.  The state is linear in the noise, so
    scaling the noise by s scales every window variance by s^2, which adds
    the constant ``2 log s`` to each log-variance; the slope of a line
    fitted to them does not change, and neither do the labels.
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
        noise[:, :, i] = rng.standard_normal((length, n))
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
        np.geomspace(16, max(64, t_end // 4), PROBE_SCALES).astype(int)
    )
    level = _variance_time_slopes(y, scales)
    diff = _variance_time_slopes(np.diff(y, axis=0), scales)

    t0, t1, t2 = PROBE_THRESHOLDS
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
        thresholds=PROBE_THRESHOLDS,
    )
