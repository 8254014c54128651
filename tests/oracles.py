"""Independent oracles used by the test suite.

Everything here is deliberately written against the bare definitions with
plain numpy loops, sharing no code with the package internals, so the two
sides of every comparison fail independently.
"""

from __future__ import annotations

import csv
import io
import json
from math import comb

import numpy as np
import scipy.linalg


def trapezoid_laurent(c0, c1, j, radius, nodes=4096):
    """Laurent coefficient by direct quadrature of the Cauchy integral.

    T_j = (1/2 pi i) \\oint R(z) (z - 1)^{-j-1} dz over |z - 1| = radius,
    evaluated with a plain uniform trapezoid rule and numpy.linalg.inv.
    """
    c0 = np.asarray(c0, dtype=np.complex128)
    c1 = np.asarray(c1, dtype=np.complex128)
    n = c0.shape[0]
    acc = np.zeros((n, n), dtype=np.complex128)
    for m in range(nodes):
        w = radius * np.exp(2j * np.pi * m / nodes)
        acc += np.linalg.inv(c0 + c1 * w) * w ** (-j)
    return acc / nodes


def trapezoid_doubling(c0, c1, js, radius, *, tol=1e-9, nodes=32, max_nodes=1 << 14):
    """Laurent coefficients ``T_j`` by the trapezoid rule with node doubling.

    Each round sums all ``nodes`` resolvent values afresh (no node is
    reused) with ``trapezoid_laurent``; the count doubles until the largest
    move of a ``T_j`` is at most ``tol`` times the largest ``||T_j||``, in
    the spectral norm.  Returns ``(coefficients, nodes)``, or raises
    ValueError at the node cap.
    """
    current = {j: trapezoid_laurent(c0, c1, j, radius, nodes) for j in js}
    while nodes < max_nodes:
        nodes *= 2
        refined = {j: trapezoid_laurent(c0, c1, j, radius, nodes) for j in js}
        move = max(_spectral_norm(refined[j] - current[j]) for j in js)
        settled = move <= tol * max(_spectral_norm(refined[j]) for j in js)
        current = refined
        if settled:
            return current, nodes
    raise ValueError(f"trapezoid rule did not settle within {max_nodes} nodes")


def binom_diff(y, ell):
    """ell-fold backward difference via the explicit binomial sum.

    Input rows are y[t]; output rows are sum_i (-1)^i C(ell, i) y[t - i],
    defined for t >= ell (the output is shorter by ell rows).
    """
    y = np.asarray(y)
    T = y.shape[0]
    out = np.zeros((T - ell,) + y.shape[1:], dtype=y.dtype)
    for t in range(ell, T):
        for i in range(ell + 1):
            out[t - ell] += (-1) ** i * comb(ell, i) * y[t - i]
    return out


def diff_neg(values, start, k):
    """k-fold running sum of the causal part of a path.

    ``values[i]`` is the path at time ``start + i``; the rows before t = 0
    are dropped, and the result holds t = 0 .. end.
    """
    if k < 0 or start > 0:
        raise ValueError(f"need k >= 0 and a path from t <= 0, got k={k}, start={start}")
    vals = np.asarray(values)[-start:]
    for _ in range(k):
        vals = np.cumsum(vals, axis=0)
    return vals


def diff_pos(values, start, ell, mode="truncated"):
    """Order ``ell`` backward difference of a path whose first row is time ``start``.

    ``truncated`` differences the causal part with the values before t = 0
    taken as zero, on t = 0 .. end.  ``full`` uses the actual presample
    rows, so the result starts where the whole window exists, at
    ``start + ell``.
    """
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    vals = np.asarray(values)
    if mode == "truncated":
        vals = diff_neg(vals, start, 0)
        for _ in range(ell):
            vals = np.diff(vals, axis=0, prepend=np.zeros((1,) + vals.shape[1:]))
        return vals
    if mode == "full":
        if vals.shape[0] <= ell:
            raise ValueError(f"difference order {ell} needs more than {ell} samples")
        for _ in range(ell):
            vals = np.diff(vals, axis=0)
        return vals
    raise ValueError(f"unknown mode {mode!r}")


def arma_pq_path(a_coeffs, f_coeffs, w_values, w_start, t_end):
    """Direct ARMA(p, q) recursion with zero presample state.

    Solves a_0 x(t) + ... + a_p x(t-p) = f_0 w(t) + ... + f_q w(t-q) for
    t = 0..t_end, with x(s) = 0 for s < 0.  ``w_values[i]`` is w(w_start + i)
    and must cover [-q, t_end].
    """
    a_coeffs = [np.asarray(a, dtype=np.complex128) for a in a_coeffs]
    f_coeffs = [np.asarray(f, dtype=np.complex128) for f in f_coeffs]
    p = len(a_coeffs) - 1
    q = len(f_coeffs) - 1
    n = a_coeffs[0].shape[0]
    assert w_start <= -q

    def w_at(t):
        return np.asarray(w_values[t - w_start], dtype=np.complex128)

    xs = {}

    def x_at(t):
        if t < 0:
            return np.zeros(n, dtype=np.complex128)
        return xs[t]

    for t in range(t_end + 1):
        rhs = np.zeros(n, dtype=np.complex128)
        for jj in range(q + 1):
            rhs += f_coeffs[jj] @ w_at(t - jj)
        for i in range(1, p + 1):
            rhs -= a_coeffs[i] @ x_at(t - i)
        xs[t] = np.linalg.solve(a_coeffs[0], rhs)
    return np.stack([xs[t] for t in range(t_end + 1)])


def scalar_laurent(c0, c1, j):
    """Closed-form Laurent coefficient of 1 / (c0 + c1 (z-1)) at z = 1."""
    if c0 == 0:
        return 1.0 / c1 if j == -1 else 0.0
    if j < 0:
        return 0.0
    return (-1) ** j * c1**j / c0 ** (j + 1)


def random_unit_root_pencil(rng, n, order, mu_min=0.4, mu_max=4.0):
    """Engineered pencil with a pole of the requested order at z = 1.

    Builds M = S (J_order(0) + diag(mu)) S^{-1} with |mu| in
    [mu_min, mu_max], then C1 invertible random and C0 = C1 M, so
    A(z) = C1 (M + (z-1) I): the nilpotent block forces a pole of order
    ``order`` and the mu's are the other singularity offsets.
    """
    assert 1 <= order <= n
    jordan = np.zeros((n, n), dtype=np.complex128)
    for i in range(order - 1):
        jordan[i, i + 1] = 1.0
    n_extra = n - order
    radii = mu_min + (mu_max - mu_min) * rng.random(n_extra)
    angles = 2 * np.pi * rng.random(n_extra)
    for i, (r, a) in enumerate(zip(radii, angles)):
        jordan[order + i, order + i] = r * np.exp(1j * a)
    while True:
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(s) < 50:
            break
    m = s @ jordan @ np.linalg.inv(s)
    while True:
        c1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(c1) < 50:
            break
    c0 = c1 @ m
    return c0, c1


def _jordan_draw(n, seed, order, real=False):
    """The unitary (real: orthogonal) Q and the offsets ``mu`` (the first
    ``order`` zero) of ``jordan_similarity``."""
    rng = np.random.default_rng(seed)
    if real:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        mu = rng.uniform(1.0, 3.0, n)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mu = rng.uniform(1.0, 3.0, n) * np.exp(2j * np.pi * rng.random(n))
    mu[:order] = 0.0
    return q, mu


def jordan_similarity(n, seed, order=2, real=False):
    """``(C0, C1) = (Q blockdiag(J_order(0), diag(mu)) Q^H, I)`` with a seeded unitary Q.

    A pole of order ``order`` at the anchor; the other offsets have ``|mu|``
    in [1, 3].  ``real`` draws a real orthogonal Q and real positive ``mu``.
    """
    q, mu = _jordan_draw(n, seed, order, real)
    block = np.diag(mu)
    for i in range(order - 1):
        block[i, i + 1] = 1.0
    return q @ block @ q.conj().T, np.eye(n)


def jordan_span(n, seed, order=2, real=False):
    """The first ``order`` columns of Q: an orthonormal basis of the singular
    subspace of ``jordan_similarity(n, seed, order, real)``."""
    return _jordan_draw(n, seed, order, real)[0][:, :order]


def jordan_outer_radius(n, seed, order=2):
    """The smallest nonzero ``|mu|`` of ``jordan_similarity(n, seed, order)``:
    its exact outer radius."""
    return float(np.abs(_jordan_draw(n, seed, order)[1][order:]).min())


def complex_lists(value):
    """Nested lists with one ``complex()`` call per entry, written as [re, im]."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        z = complex(arr)
        return [z.real, z.imag]
    return [complex_lists(row) for row in arr]


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_ready(complex_lists(obj) if np.iscomplexobj(obj) else obj.tolist())
    if isinstance(obj, complex):
        return [_json_ready(obj.real), _json_ready(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return _json_ready(obj.item())
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def report_text(report):
    """Report JSON by the literal route: a recursive conversion to nested
    lists (complex entries as [re, im], one ``complex()`` per entry, and
    each non-finite float as its repr, ``"nan"``, ``"inf"`` or ``"-inf"``),
    then ``json.dumps(sort_keys=True, indent=2)``.
    """
    return json.dumps(_json_ready(report), sort_keys=True, indent=2) + "\n"


def components_csv_literal(components, start):
    """The CSV of ``components_to_csv`` by the literal route: one
    ``csv.writer`` row per entry, with a ``complex()`` and two ``repr`` calls."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "component", "coordinate", "re", "im"])
    names = sorted(components)
    rows = {name: np.asarray(components[name]) for name in names}
    for i in range(len(rows[names[0]]) if names else 0):
        for name in names:
            for coord, z in enumerate(np.atleast_1d(rows[name][i]).tolist()):
                z = complex(z)
                writer.writerow([start + i, name, coord, repr(z.real), repr(z.imag)])
    return buf.getvalue()


def causal_stack_apply(stack: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Causal convolution ``out[t] = sum_{s=0}^{min(t, S-1)} stack[s] @ signal[t-s]``.

    Parameters
    ----------
    stack : (S, n, n) real or complex ndarray
    signal : (T, n) real or complex ndarray

    Returns
    -------
    (T, n) ndarray of dtype ``np.result_type(stack, signal)``.
    """
    T = signal.shape[0]
    S = stack.shape[0]
    out = np.zeros(signal.shape, dtype=np.result_type(stack, signal))
    for t in range(T):
        s_hi = min(t, S - 1)
        # window of signal[t-s] for s = 0..s_hi, oldest first
        window = signal[t - s_hi : t + 1][::-1]
        out[t] = np.einsum("sij,sj->i", stack[: s_hi + 1], window)
    return out


def recursion_loop(step, drive, x0):
    """First-order recursion ``x[t] = step @ x[t-1] + drive[t]`` from ``x[-1] = x0``.

    The literal loop over t into a fresh array, reading ``drive`` only.
    Returns the (T, n, m) states in ``np.result_type(step, drive, x0, np.float64)``.
    """
    out = np.empty(drive.shape, dtype=np.result_type(step, drive, x0, np.float64))
    prev = x0
    for t in range(drive.shape[0]):
        prev = step @ prev + drive[t]
        out[t] = prev
    return out


def probe_drive_block(model, t_end, n_seeds, base_seed):
    """The order probe's drive for all seeds at once, as an (m, T+1, n) block.

    Seed ``base_seed + i`` draws ``default_rng(base_seed + i)
    .standard_normal((t_end + 2, n))`` on ``[-1, t_end]``; the whole block is
    cast once to the gains' type, and the drive is
    ``A_0^{-1} F_0 n(t) + A_0^{-1} F_1 n(t-1)``, two stacked products.
    Returns ``(step, drive)`` with ``step = -A_0^{-1} A_1``.
    """
    n = model.a0.shape[0]
    a0_inv = np.linalg.inv(model.a0)
    gain0, gain1 = a0_inv @ model.f0, a0_inv @ model.f1
    noise = np.stack(
        [np.random.default_rng(base_seed + i).standard_normal((t_end + 2, n)) for i in range(n_seeds)]
    ).astype(np.result_type(gain0, gain1))
    drive = noise[:, 1:] @ gain0.T
    drive += noise[:, :-1] @ gain1.T
    return -(a0_inv @ model.a1), drive


def variance_time_slopes_literal(y, scales):
    """Log-log slope of the window sample variance against window length.

    The order probe's statistic over the whole series at once: y has shape
    (T+1, m); for each scale w the within-window variance is averaged over
    half-overlapping windows, from the prefix sums of y and of its square.
    Returns one slope per column.
    """
    rows, m = y.shape
    s1, s2 = np.zeros((rows + 1, m)), np.zeros((rows + 1, m))
    np.cumsum(y, axis=0, out=s1[1:])
    np.cumsum(np.square(y, out=s2[1:]), axis=0, out=s2[1:])
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


def _spectral_norm(a):
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def separation_within_bound(pair, pencil, tol=1e-9):
    """Whether every cross block ``Q C_i P^c``, ``Q^c C_i P`` and every
    reassembly residual ``Q C_i P + Q^c C_i P^c - C_i`` of a ``SpectralPair``
    is within ``tol max ||C_i|| max(1, ||P|| ||Q||)``, all by SVD; with the
    largest of those norms."""
    c0, c1 = pencil.c0, pencil.c1
    worst = 0.0
    for ci in (c0, c1):
        for block in (
            pair.range_reg @ ci @ pair.domain_sin,
            pair.range_sin @ ci @ pair.domain_reg,
            pair.range_sin @ ci @ pair.domain_sin + pair.range_reg @ ci @ pair.domain_reg - ci,
        ):
            worst = max(worst, _spectral_norm(block))
    size = max(_spectral_norm(c0), _spectral_norm(c1))
    pq = _spectral_norm(pair.domain_sin) * _spectral_norm(pair.range_sin)
    return worst <= tol * size * max(1.0, pq), worst


def classify_singularity_literal(basic, pencil, *, tol=1e-9, k_max=None, cliff_factor=1e-3):
    """Singularity dichotomy with an SVD for every norm, as ``(kind, order)``.

    The all-SVD classification, kept literally: ``basic`` and ``pencil``
    only need ``t_minus_one``/``t_zero`` and ``c0`` attributes.
    """
    n = pencil.c0.shape[0]
    if k_max is None:
        k_max = n + 2
    if _spectral_norm(basic.t_minus_one) <= tol * _spectral_norm(basic.t_zero):
        return "removable", None
    nil = basic.t_minus_one @ pencil.c0
    anchor = max(
        _spectral_norm(basic.t_minus_one) * _spectral_norm(pencil.c0), np.finfo(float).tiny
    )
    norms = []
    power = np.eye(n, dtype=np.complex128)
    prev_ratio = 1.0
    for k in range(1, k_max + 1):
        power = power @ nil
        a_k = _spectral_norm(power)
        norms.append(a_k)
        prev = norms[k - 2] if k >= 2 else anchor
        ratio = a_k / prev if prev > 0 else 0.0
        collapsed = a_k <= tol * anchor and ratio <= cliff_factor * prev_ratio
        if prev == 0.0:
            collapsed = True  # already exactly nilpotent at the previous index
        if collapsed:
            # a collapse at n is a truncation only after a smooth decay
            truncated = k == n and prev <= tol * anchor
            kind = "essential_at_truncation" if truncated else "pole"
            return kind, k
        prev_ratio = ratio
    return "inconclusive", None


def annulus_estimate_literal(basic, pencil, kind, *, k_max=12, l_max=48):
    """Root-test annulus ``(s_hat, r_hat)`` with an SVD for every norm.

    ``s_hat`` is 0 for a removable ``kind`` or a pole, whose principal part
    is a finite sum, and otherwise ``max ||T_{-k}||^{1/k}`` over the top
    half of k up to ``k_max``.  ``r_hat`` is ``1 / max ||T_l||^{1/l}`` over
    the top half of l up to ``l_max``: a biased estimate of the exact outer
    radius, kept as a cross-check of the pair.
    """
    neg_norms = []
    acc = basic.t_minus_one
    step = basic.t_minus_one @ pencil.c0
    for _ in range(k_max):
        neg_norms.append(_spectral_norm(acc))
        acc = -(step @ acc)
    pos_norms = []
    acc = basic.t_zero
    step = basic.t_zero @ pencil.c1
    for _ in range(l_max + 1):
        pos_norms.append(_spectral_norm(acc))
        if pos_norms[-1] > 1e200:
            break
        acc = -(step @ acc)

    if kind in ("removable", "pole"):
        s_hat = 0.0
    else:
        s_candidates = [
            neg_norms[k - 1] ** (1.0 / k)
            for k in range(max(1, k_max // 2), len(neg_norms) + 1)
            if neg_norms[k - 1] > 0
        ]
        s_hat = max(s_candidates) if s_candidates else 0.0

    l_top = len(pos_norms) - 1
    r_candidates = [
        pos_norms[ell] ** (1.0 / ell)
        for ell in range(max(1, l_top // 2), l_top + 1)
        if pos_norms[ell] > 0
    ]
    r_hat = float("inf") if not r_candidates else 1.0 / max(r_candidates)
    return s_hat, r_hat


def qz_basis_sorted(c0, c1, singular, *, zero_tol=1e-6):
    """Basis of the right deflating subspace of ``(C0, -C1)`` for the anchor's
    cluster (``singular``) or for the rest, from a QZ computed and sorted for
    this side alone by ``scipy.linalg.ordqz`` (real for a real pencil).

    The cluster is every finite ``mu = alpha / beta`` with
    ``|mu| <= zero_tol * (1 + ||C0|| / ||C1||)``.
    """
    cut = zero_tol * (1.0 + _spectral_norm(c0) / _spectral_norm(c1))

    def side(alpha, beta):
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = alpha / beta
        return (np.isfinite(mu) & (np.abs(mu) <= cut)) == singular

    output = "real" if np.isrealobj(c0) else "complex"
    _, _, alpha, beta, _, z = scipy.linalg.ordqz(c0, -c1, sort=side, output=output)
    return z[:, : int(side(alpha, beta).sum())]


def max_principal_angle(a, b):
    """Largest principal angle between the column spans (radians); pi / 2
    when the spans differ in dimension."""
    if a.shape[1] != b.shape[1]:
        return float(np.pi / 2)
    if a.shape[1] == 0:
        return 0.0
    angles = scipy.linalg.subspace_angles(a, b)
    return float(angles.max()) if angles.size else 0.0


def lstsq_chain(matrix, partner, seed, *, steps=16, tol=1e-9, project=None):
    """Chain ``matrix @ x_next = -partner @ x`` with one ``lstsq`` per step.

    Returns ``(vectors, terminated)``; an inconsistent step raises ValueError.
    """
    scale = max(_spectral_norm(matrix), _spectral_norm(partner))
    vectors = [np.asarray(seed, dtype=np.complex128)]
    norms = [float(np.linalg.norm(vectors[0]))]
    terminated = False
    for _ in range(steps):
        rhs = -(partner @ vectors[-1])
        x_next, *_ = np.linalg.lstsq(matrix, rhs, rcond=None)
        if project is not None:
            x_next = project @ x_next
        residual = float(np.linalg.norm(matrix @ x_next - rhs))
        if residual > tol * scale * norms[-1]:
            raise ValueError(f"chain step has no solution: residual {residual:.3e}")
        vectors.append(x_next)
        norms.append(float(np.linalg.norm(x_next)))
        if norms[-1] <= tol * norms[0]:
            terminated = True
            break
    return vectors, terminated


def _orbit_stack(step, first, count):
    """``[first, step @ first, step @ step @ first, ...]``, ``count`` terms stacked."""
    out = [np.asarray(first, dtype=np.complex128)]
    for _ in range(count - 1):
        out.append(step @ out[-1])
    return np.stack(out)


def coeff_u(basic, pencil, t_max):
    """Stack ``U_t = -(I - T_{-1} C_0)^{-(t+1)} T_{-1}`` for t = 0..t_max.

    The singular-direction response to the initial state; for a pole of
    order d the factor is a nilpotent resolvent and U_t grows like t^(d-1).
    """
    eye = np.eye(pencil.c0.shape[0])
    w = np.linalg.inv(eye - basic.t_minus_one @ pencil.c0)
    return _orbit_stack(w, -(w @ basic.t_minus_one), t_max + 1)


def coeff_v(basic, pencil, s_max):
    """Stack ``V_s = (-1)^s (I - T_0 C_1)^{-(s+1)} (T_0 C_1)^s T_0`` for s = 0..s_max.

    The causal moving-average weights of the regular directions: the
    binomial resummation of the regular Laurent coefficients.
    """
    eye = np.eye(pencil.c0.shape[0])
    m = basic.t_zero @ pencil.c1
    w = np.linalg.inv(eye - m)
    return _orbit_stack(-(w @ m), w @ basic.t_zero, s_max + 1)


def coeff_r(pencil, s_max):
    """Companion power weights ``R_s = (-1)^s (A_0^{-1} A_1)^s A_0^{-1}``, A_0 = C_0 - C_1."""
    a0_inv = np.linalg.inv(pencil.c0 - pencil.c1)
    return _orbit_stack(-(a0_inv @ pencil.c1), a0_inv, s_max + 1)


def coeff_q(basic, pencil, s_max):
    """Decaying component ``Q_s = R_s - U_s`` of the companion powers.

    Annihilated on the left by the singular domain projection; agrees with
    the V weights wherever both converge.
    """
    return coeff_r(pencil, s_max) - coeff_u(basic, pencil, s_max)


def cumulation_trend(t_minus_one, c0, g, depth):
    """Stochastic trend ``sum_{k=1}^{depth} (-1)^k T_{-k} cum^k g`` by literal cumulation.

    ``g`` holds the drive rows from t = 0 on, taken as zero before; ``cum``
    is the running sum and ``T_{-k} = (-1)^{k-1} (T_{-1} C_0)^{k-1} T_{-1}``.
    The k-th cumulation grows like t^k / k!, so the sum loses digits for
    deep poles on long paths.
    """
    g = np.asarray(g, dtype=np.complex128)
    nil = t_minus_one @ c0
    coef = np.asarray(t_minus_one, dtype=np.complex128)
    cum = g
    trend = np.zeros_like(g)
    for k in range(1, depth + 1):
        cum = np.cumsum(cum, axis=0)
        trend += (-1) ** k * (cum @ coef.T)
        coef = -(nil @ coef)
    return trend


def regular_series(t_zero, c1, g, cutoff):
    """Stationary part ``sum_{l=0}^{cutoff} (-1)^l T_l diff^l g`` by literal differences.

    ``g`` holds the drive rows from some head on, taken as zero before it,
    so every difference is the truncated one.  ``T_l = -(T_0 C_1) T_{l-1}``
    from ``T_0``.  The l-th difference can grow like 2^l, so the cutoff
    must outrun ``(2 / r)^l`` for an outer radius r; with ``r <= 2`` the
    terms shrink only through the cancellation of the binomial weights.
    """
    g = np.asarray(g, dtype=np.complex128)
    step = np.asarray(t_zero, dtype=np.complex128) @ c1
    coef = np.asarray(t_zero, dtype=np.complex128)
    diff = g
    out = np.zeros_like(g)
    for ell in range(cutoff + 1):
        out += (-1) ** ell * (diff @ coef.T)
        coef = -(step @ coef)
        diff = diff_pos(diff, 0, 1)
    return out
