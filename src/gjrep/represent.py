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
over every difference order.  That radius is the exact ``r_hat`` of
``annulus_estimate``; one at or below one raises NaturalFormDiverges.

Each form runs in the result type of the pencil, the pair, the drive and
the initial state: float64 for a real model and its own pair, complex128
once any of them, a complex ``basic`` included, is complex.

The pair ``(T_{-1}, T_0)`` is the caller's ``basic`` (by default
``basic_solution`` of the model's pencil), and ``A_0^{-1}`` is the model's
cached ``ArmaModel.a0_inv``; the extended forms take ``A_1`` from the model.
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
    _checked_integer,
    _checked_solve,
    annulus_estimate,
    as_vector,
    basic_solution,
    classify_singularity,
)

FORMS = ("natural_ns", "natural_s", "extended_ns", "extended_s")
TOL_REP = 1e-6  # largest reconstruction error a path passes with
SPLIT_TOL = 1e-8  # largest leak the projection split allows
PROBE_SCALES = 10  # window lengths on the probe's geometric grid
PROBE_THRESHOLDS = (0.3, 0.6, 1.4)  # variance-slope cuts between the probe's labels
_PROBE_WINDOW = 64  # floor of the largest window, so the shortest horizon the probe takes
_PROBE_ROWS = 128  # time rows of every seed that the probe draws, drives and advances at once


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
    s_hat: float
    r_hat: float
    singularity: SingularityClass
    passed: bool


def represent(
    form: str,
    model: ArmaModel,
    noise: NoiseSpec,
    t_end: int,
    *,
    basic: BasicSolution | None = None,
) -> RepresentationReport:
    """Decompose the simulated path per ``form`` and verify the reconstruction.

    Simulates the seeded noise, builds the MA(1) drive, runs the plain
    recursion as the oracle, assembles the five components of the requested
    form, and reports the worst reconstruction error, which passes at or
    below ``TOL_REP``.  ``basic`` is the Laurent pair of the model's pencil;
    omitted, it is ``basic_solution(model.pencil)``.
    """
    if form not in FORMS:
        raise InputError(f"unknown form {form!r}; expected one of {FORMS}")
    t_end = _checked_integer(t_end, "t_end", 0)
    pencil = model.pencil
    if basic is None:
        basic = basic_solution(pencil)

    g = ma1_g(model, simulate_noise(noise, t_end))  # covers [-burn_in, t_end]
    oracle = simulate_recursion(model, g, t_end)

    sclass = classify_singularity(basic, pencil)
    if sclass.kind == "inconclusive":
        raise ClassificationInconclusive(
            "the principal part T_{-1} C_0 is not nilpotent: the contour may "
            "enclose a singularity other than the unit root"
        )
    s_hat, r_hat = annulus_estimate(basic, pencil, sclass)

    n = model.dim
    horizon = t_end + 1
    presample = -g.start
    g_causal = g.window(0, t_end)

    # The whole principal series -cum (I - N cum)^{-1} T_{-1} g, with N = T_{-1} C_0
    # and cum the causal running sum, is the filter h(t) = W h(t-1) - W T_{-1} g(t)
    # with W = (I - N)^{-1}; det_sin is W^(t+1) T_{-1} C_1 c, the same recursion
    # from one impulse.  No cumulation depth enters, and nothing cancels.
    dtype = np.result_type(pencil.c0, basic.t_minus_one, basic.t_zero, g.values, model.c)
    eye = np.eye(n, dtype=dtype)
    c1c = pencil.c1 @ model.c
    w_sin = _checked_solve(eye - basic.t_minus_one @ pencil.c0, what="I - T_{-1} C_0")
    drive = np.zeros((horizon, n, 2), dtype=dtype)
    drive[:, :, 0] = -(g_causal @ (w_sin @ basic.t_minus_one).T)
    drive[0, :, 1] = w_sin @ (basic.t_minus_one @ c1c)
    sin = kernels.arma_recursion(w_sin, drive, np.zeros((n, 2)))
    trend, det_sin = sin[:, :, 0], sin[:, :, 1]

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
        w_reg = _checked_solve(eye - m, what="I - T_0 C_1")
        step, gain = -(w_reg @ m), w_reg @ basic.t_zero
    else:
        # Q_s = (P^c S_A)^s P^c A_0^{-1}: every extended term is a recursion in
        # the projected step, which is zero on the singular directions
        gain = basic.t_zero @ pencil.c0 @ model.a0_inv
        step = -(gain @ model.a1)
    # columns: the drive from -start on; the impulse -gain C_1 c at t = 0;
    # minus the presample drive alone, which from t = 0 on is the
    # propagated history -step^(t+1) z(-1)
    drive = np.zeros((horizon + start, n, 3), dtype=dtype)
    drive[:, :, 0] = g.values[presample - start :] @ gain.T
    drive[start, :, 1] = -(gain @ c1c)
    drive[:start, :, 2] = -drive[:start, :, 0]
    del g, g_causal  # the check below needs only the components and the oracle
    z = kernels.arma_recursion(step, drive, np.zeros((n, 3)))[start:]
    stationary, det_reg, k_term = z[:, :, 0], z[:, :, 1], z[:, :, 2]

    components = {
        "stochastic_trend": trend,
        "stationary": stationary,
        "det_sin": det_sin,
        "det_reg": det_reg,
        "k_term": k_term,
    }
    # one path-sized buffer each for xhat and the error, summed in the order
    # of trend + stationary + det_sin + det_reg + k_term
    xhat = trend + stationary
    xhat += det_sin
    xhat += det_reg
    xhat += k_term
    err = xhat - oracle.values
    # the modulus of a complex error is real, so only a real one is taken in place
    err = np.abs(err, out=None if np.iscomplexobj(err) else err)
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
        s_hat=s_hat,
        r_hat=r_hat,
        singularity=sclass,
        passed=residual_max <= TOL_REP,
    )


@dataclass(frozen=True)
class SplitReport:
    """Projection purity of the two halves of a decomposition."""

    x_sin: Array
    x_reg: Array
    max_reg_leak: float  # worst ||P_reg applied to the singular half||
    max_sin_leak: float  # worst ||P_sin applied to the regular half||
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


class _WindowVariances:
    """Variance-time slopes of a series that is fed one block of rows at a time.

    The statistic is that of the whole series: for each scale w, the
    sample variance over windows of w rows that start every
    ``max(1, w // 2)`` rows, the last at or before ``rows - w``, is
    averaged over the windows, and each column gets the log-log slope of
    that mean against w.  Kept between blocks are the prefix sums of the
    series and of its square at the last row fed, the prefix rows at the
    starts of windows not yet closed (about three per scale) and one
    running sum per scale, so with two or more columns memory does not
    grow with the series.  A block's prefix sums are the cumulative sum of
    ``[carry; block]``, and each scale's closed windows are added to its
    running sum in window order, as the whole series' ``np.cumsum`` and
    ``var.mean(axis=0)`` do: the slopes are bit for bit those of the whole
    series.
    """

    def __init__(self, rows: int, scales: Array, m: int):
        self.scales = scales
        hops = [max(1, w // 2) for w in scales.tolist()]
        # (w, hop, number of windows) per scale
        self.windows = [(w, h, (rows - w) // h + 1) for w, h in zip(scales.tolist(), hops)]
        self.fed = 0
        self.carry = np.zeros((2, m))
        self.held = np.empty((0, 2, m))  # start rows of the open windows, scale by scale
        self.first = [0] * len(scales)  # each scale's first window not yet closed
        self.seen = [0] * len(scales)  # and its first window whose start is not held
        # numpy sums a lone column pairwise, not in window order, so one
        # column keeps its closed variances (fewer than rows values) whole
        self.pairwise = m == 1
        self.closed = [[] for _ in scales] if self.pairwise else np.zeros((len(scales), m))

    def feed(self, block: Array) -> None:
        lo, hi, held = self.fed, self.fed + block.shape[0], self.held.shape[0]
        rows = np.empty((held + block.shape[0] + 1, *self.carry.shape))
        rows[:held] = self.held
        pre = rows[held:]  # prefix sums of the series and its square at lo..hi
        pre[0] = self.carry
        pre[1:, 0] = block
        np.square(block, out=pre[1:, 1])
        np.cumsum(pre, axis=0, out=pre)
        self.fed, self.carry = hi, pre[-1].copy()
        # rows of the starts and ends of the windows that close in this
        # block, and of the starts of those that stay open
        base, slot = held - lo, 0
        starts, ends, keep, widths, cuts = [], [], [], [], [0]
        for i, (w, hop, count) in enumerate(self.windows):
            first, seen = self.first[i], self.seen[i]
            opened = min(count, hi // hop + 1)
            shut = max(first, min(count, (hi - w) // hop + 1))
            at = [*range(slot, slot + seen - first)]  # held starts, then new ones
            at += range(base + seen * hop, base + opened * hop, hop)
            slot += seen - first
            starts += at[: shut - first]
            ends += range(base + first * hop + w, base + shut * hop + w, hop)
            keep += at[shut - first :]
            widths += [w] * (shut - first)
            cuts.append(len(starts))
            self.first[i], self.seen[i] = shut, opened
        c = len(starts)
        picked = rows[starts + ends + keep]
        self.held = picked[2 * c :].copy()
        sums = picked[c : 2 * c] - picked[:c]
        w = np.array(widths, dtype=float)[:, None]
        mu = sums[:, 0] / w
        var = sums[:, 1] / w - mu * mu
        for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            if a == b:
                continue
            if self.pairwise:
                self.closed[i].append(var[a:b])
            else:
                var[a] += self.closed[i]
                self.closed[i] = var[a:b].sum(axis=0)

    def slopes(self) -> Array:
        counts = np.array([[count] for _, _, count in self.windows])
        if self.pairwise:
            mean = np.stack([np.concatenate(c).mean(axis=0) for c in self.closed])
        else:
            mean = self.closed / counts
        log_var = np.log(np.maximum(mean, 1e-300))
        lt = np.log(self.scales.astype(float))[:, None]
        lt_c = lt - lt.mean(axis=0)
        return (lt_c * (log_var - log_var.mean(axis=0))).sum(axis=0) / (
            lt_c**2
        ).sum(axis=0)


def _probe_slopes(
    model: ArmaModel, f: Array, t_end: int, m: int, base_seed: int
) -> tuple[Array, Array]:
    """Level and difference slopes of ``Re(f^H x(t))`` on ``[0, t_end]``.

    The paths are those of seeds ``base_seed + i``, i < m; they live one
    block of ``_PROBE_ROWS`` rows at a time, and so does the functional's
    series, which both slopes take in as it is made.
    """
    n = model.dim
    step = -(model.a0_inv @ model.a1)
    gain0, gain1 = model.a0_inv @ model.f0, model.a0_inv @ model.f1
    # both products write into one buffer of the gains' one type; a complex
    # gain acts on the real noise as the real view of its transpose, so the
    # noise is never cast to complex and the product is read back as dt
    dt = np.result_type(gain0, gain1)
    w0, w1 = (np.ascontiguousarray(g.T, dtype=dt).view(np.float64) for g in (gain0, gain1))
    # Seed i draws n(-1), then the rows of each block in turn, from its own
    # generator; row 0 of the noise buffer carries n(t-1) into the block.
    # The drive A_0^{-1} (F_0 n(t) + F_1 n(t-1)) of every seed is two
    # products of the whole buffer, written into the kernel's layout.
    rngs = [np.random.default_rng(base_seed + i) for i in range(m)]
    # the products run over every row of the buffer, a short block's stale
    # rows included, so it starts at zero
    noise = np.zeros((m, _PROBE_ROWS + 1, n))
    for rng, seed_noise in zip(rngs, noise):
        rng.standard_normal((1, n), out=seed_noise[:1])
    x = np.empty((_PROBE_ROWS, n, m), dtype=np.result_type(step, dt))
    state = np.zeros((n, m), dtype=x.dtype)
    y = np.empty((_PROBE_ROWS + 1, m))  # row 0 carries y(t-1) into the block
    scales = np.unique(
        np.geomspace(16, max(_PROBE_WINDOW, t_end // 4), PROBE_SCALES).astype(int)
    )
    level = _WindowVariances(t_end + 1, scales, m)
    diff = _WindowVariances(t_end, scales, m)
    for lo in range(0, t_end + 1, _PROBE_ROWS):
        rows = min(_PROBE_ROWS, t_end + 1 - lo)
        for rng, seed_noise in zip(rngs, noise):
            rng.standard_normal((rows, n), out=seed_noise[1 : rows + 1])
        flat = noise.reshape(-1, n)
        prod = flat @ w0
        x[:rows] = prod.view(dt).reshape(noise.shape)[:, 1 : rows + 1].transpose(1, 2, 0)
        np.matmul(flat, w1, out=prod)
        x[:rows] += prod.view(dt).reshape(noise.shape)[:, :rows].transpose(1, 2, 0)
        del prod  # freed before the slopes take in the block
        path = kernels.arma_recursion(step, x[:rows], state)
        y[1 : rows + 1] = np.real(np.conj(f) @ path)
        level.feed(y[1 : rows + 1])
        # the first block has no y(-1): its differences start at row 1
        diff.feed(np.diff(y[int(lo == 0) : rows + 1], axis=0))
        state[...] = path[-1]
        noise[:, 0] = noise[:, rows]
        y[0] = y[rows]
    return level.slopes(), diff.slopes()


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

    ``t_end`` is at least 64.  The largest window is ``max(64, t_end // 4)``
    samples, and the differenced series, ``t_end`` samples long, must hold
    it; a shorter horizon raises InputError.

    The paths run in blocks of 128 time rows (``_PROBE_ROWS``).  Each seed keeps
    its own generator and draws only its next rows of noise, so the noise
    is the same as one draw over the whole horizon; the block's drive, in
    the kernel's ``(rows, n, n_seeds)`` layout, is advanced in place from
    the last state of the block before.  The functional's series lives one
    block at a time too: each block of it, and of its first difference, is
    taken into running prefix sums and per-scale running sums of the closed
    windows' variances.  With two or more seeds no array grows with
    ``t_end``, and memory is O(n_seeds * (n * 128 + number of scales)) at
    any horizon; one seed also keeps its closed windows' variances, fewer
    than ``t_end`` values, because numpy sums a lone column pairwise.  The
    slopes are bit for bit those of the whole series' statistic.

    The noise is real, so the state has the result type of the model's four
    coefficients: float64 for a real model, complex128 otherwise.  Both give
    the same slopes, up to rounding, for the same path.

    The probe takes no noise scale.  The state is linear in the noise, so
    scaling the noise by s scales every window variance by s^2, which adds
    the constant ``2 log s`` to each log-variance; the slope of a line
    fitted to them does not change, and neither do the labels.
    """
    f = as_vector(functional, model.dim, "functional")
    t_end = _checked_integer(t_end, "probe t_end", _PROBE_WINDOW)
    n_seeds = _checked_integer(n_seeds, "n_seeds", 1)
    base_seed = _checked_integer(base_seed, "base_seed", 0)
    level, diff = _probe_slopes(model, f, t_end, n_seeds, base_seed)

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
    )
