"""Laurent analysis of a linear matrix pencil around an isolated singular point.

The pencil is stored in anchored form ``A(z) = C0 + C1*(z - 1)``: ``C0`` is the
(typically singular) value at the anchor ``z = 1`` and ``C1`` is the slope.  The
resolvent ``R(z) = A(z)^{-1}`` then has a Laurent expansion
``R(z) = sum_j T_j (z - 1)^j`` on a punctured annulus around the anchor, and the
pair ``(T_{-1}, T_0)`` determines every other coefficient through a pair of
one-step recurrences.  This module computes that pair by contour quadrature,
expands it, verifies the defining identities, classifies the singularity, and
evaluates the closed-form (partial-fraction) resolvent.

The quadrature is the trapezoid rule on nested grids.  The m-point grid is
the even half of the 2m-point grid, so node doubling solves only the new odd
nodes and adds them to one running sum per coefficient; no node value is
kept between rounds.  Every other inverse goes through one condition-checked
solve (``_checked_solve``), and every one-step matrix recurrence
``X_{t+1} = -S X_t`` through one generator (``_laurent_orbit``).

Spectral norms follow one rule.  A norm that a report writes is an exact SVD
norm (``spectral_norm``), computed once per object where several checks share
it (``LinearPencil.norms``, ``BasicSolution.norms``).  A norm that only feeds
a pass/fail verdict is first screened with certified two-sided bounds
(``_norm_bounds``, O(n^2) work), and the SVD is taken only when the bounds
straddle the verdict's threshold.  The verdicts are therefore exactly those
of the all-SVD evaluation.  A written maximum over many terms
(``_screened_max``) is exact too: only the terms whose upper bound reaches
the largest lower bound can hold it, so only those take an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import frexp, ldexp, sqrt

import numpy as np
import scipy.linalg

from .errors import (
    ContourNotConverged,
    FundamentalResidualError,
    InputError,
    NumericError,
    ProjectionError,
    SingularMatrixError,
    UnsupportedModelError,
)

Array = np.ndarray

# Default tolerances; every check below scales them by the magnitude of the
# matrices involved, so they are relative, not absolute.
TOL_SOLVE = 1e-9
TOL_CONTOUR = 1e-9
TOL_FUND = 1e-9
COND_CAP = 1e12
START_NODES = 32  # first grid of the contour quadrature; doubling sets the rest
MAX_NODES = 1 << 14  # node cap of the contour quadrature
# offsets below ANCHOR_TOL * (1 + max |mu|) belong to the anchor's cluster
ANCHOR_TOL = 1e-8
# a pole shows as ||N^k|| dropping by this factor more than the step before
CLIFF_FACTOR = 1e-3
INNER_TERMS = 12  # principal coefficients the annulus root test samples
OUTER_TERMS = 48  # highest regular coefficient index the annulus root test samples


def as_matrix(value, name: str = "matrix") -> Array:
    """Validate and convert to a square complex128 ndarray."""
    a = np.asarray(value, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InputError(f"{name} has non-finite entries")
    return a


def as_vector(value, dim: int | None = None, name: str = "vector") -> Array:
    a = np.asarray(value, dtype=np.complex128).reshape(-1)
    if dim is not None and a.shape[0] != dim:
        raise InputError(f"{name} must have length {dim}, got {a.shape[0]}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InputError(f"{name} has non-finite entries")
    return a


def spectral_norm(a: Array) -> float:
    """The largest singular value of ``a``; NumericError if an entry is not finite."""
    if not np.isfinite(a).all():
        raise NumericError("spectral norm of a matrix with non-finite entries (overflow)")
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


def _checked_solve(a: Array, b: Array, what: str) -> Array:
    """``a^{-1} b``, or SingularMatrixError naming ``what``.

    ``a`` counts as singular when its condition estimate is above
    ``COND_CAP`` or not finite, or when the LU factorisation breaks down.
    """
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > COND_CAP:
        raise SingularMatrixError(f"{what} is singular (condition {cond:.3e})")
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{what} is singular") from exc


# Relative padding of the bounds: covers the rounding in the bounds and in
# the SVD that the exact route would take.
_SCREEN_MARGIN = 1e-10
# Entry magnitudes the screen scales safely; outside, the bounds say "undecided".
_SCREEN_TINY, _SCREEN_HUGE = 1e-280, 1e280


def _norm_bounds(a: Array) -> tuple[float, float]:
    """Certified ``(lo, hi)`` with ``lo <= spectral_norm(a) <= hi``.

    ``hi = min(||a||_F, sqrt(||a||_1 ||a||_inf))``; ``lo`` is the largest of
    ``||a||_F / sqrt(min(m, n))``, the largest column norm and one power step
    ``||a v|| / ||v||`` with ``v = a^H a e_j`` started from that column
    (Golub & Van Loan, *Matrix Computations*, 2.3).  The entries are scaled
    by a power of two near ``max |a_ij|`` first, so no squared sum underflows
    or overflows.  ``(0, inf)`` means undecided: entries outside
    [1e-280, 1e280] or not finite.  ``lo == hi`` only for the zero matrix.
    """
    mag = np.abs(a)
    top = float(mag.max())
    if top == 0.0:
        return 0.0, 0.0
    if not _SCREEN_TINY <= top <= _SCREEN_HUGE:  # also False for NaN
        return 0.0, np.inf
    unit = ldexp(1.0, frexp(top)[1])
    mag /= unit
    b = a / unit
    col2 = np.square(mag).sum(axis=0)
    j = int(col2.argmax())
    fro = sqrt(col2.sum())
    hi = min(fro, sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max()))
    v = (b[:, j].conj() @ b).conj()  # a^H a e_j, up to the scale
    w = b @ v
    step = sqrt(np.vdot(w, w).real / np.vdot(v, v).real)
    lo = max(fro / sqrt(min(a.shape)), sqrt(col2[j]), step)
    lo *= unit * (1.0 - _SCREEN_MARGIN)
    hi *= unit * (1.0 + _SCREEN_MARGIN)
    if not 0.0 <= lo <= hi < np.inf:
        return 0.0, np.inf
    return lo, hi


def _screened(test, harmful=(), helpful=()) -> bool:
    """``test(*norms)`` on the spectral norms of ``harmful`` then ``helpful``.

    ``test`` must be monotone: a larger harmful norm or a smaller helpful one
    can only turn True into False.  Rounded ``*``, ``/`` and ``max`` keep that
    order in floating point, so evaluating ``test`` at the worst and at the
    best ends of the bounds certifies the exact verdict; the SVDs are taken
    only when those two disagree.
    """
    bounds = [_norm_bounds(a) for a in harmful]
    bounds += [_norm_bounds(a)[::-1] for a in helpful]
    if all(max(b) < np.inf for b in bounds):
        if test(*(b[1] for b in bounds)):
            return True
        if not test(*(b[0] for b in bounds)):
            return False
    return bool(test(*(spectral_norm(a) for a in (*harmful, *helpful))))


def _screened_max(terms) -> float:
    """Exact ``max ||a|| ** (1 / j)`` over terms ``(j, a, lo, hi)`` with
    ``lo <= ||a|| <= hi`` and ``j >= 1``; 0.0 when there is no term.

    ``j = 1`` gives the plain maximum norm.  Only terms whose upper-bound
    root reaches the largest lower-bound root can hold the maximum, so only
    those need the exact norm; a term whose bounds meet already holds it,
    and the others take an SVD.
    """
    terms = list(terms)
    floor = max((lo ** (1.0 / j) for j, _, lo, _ in terms), default=0.0)
    return max(
        (
            (lo if lo == hi else spectral_norm(a)) ** (1.0 / j)
            for j, a, lo, hi in terms
            if hi ** (1.0 / j) >= floor
        ),
        default=0.0,
    )


def _max_norm(mats) -> float:
    """Exact ``max(spectral_norm(a) for a in mats)``, 0.0 for none, screened."""
    return _screened_max((1, a, *_norm_bounds(a)) for a in mats)


@dataclass(frozen=True)
class LinearPencil:
    """Anchored pencil ``A(z) = c0 + c1*(z - 1)``."""

    c0: Array
    c1: Array

    def __post_init__(self):
        object.__setattr__(self, "c0", as_matrix(self.c0, "c0"))
        object.__setattr__(self, "c1", as_matrix(self.c1, "c1"))
        if self.c0.shape != self.c1.shape:
            raise InputError(
                f"c0 and c1 must match, got {self.c0.shape} vs {self.c1.shape}"
            )

    @property
    def dim(self) -> int:
        return self.c0.shape[0]

    # Lag-polynomial view A(z) = a0 + a1*z of the same pencil.
    @property
    def a0(self) -> Array:
        return self.c0 - self.c1

    @property
    def a1(self) -> Array:
        return self.c1

    @property
    def coeffs(self) -> tuple[Array, Array]:
        """``(c0, c1)``: the degree-1 case of ``PolynomialPencil.coeffs``."""
        return self.c0, self.c1

    def evaluate(self, z: complex) -> Array:
        return self.c0 + (z - 1.0) * self.c1

    @cached_property
    def norms(self) -> tuple[float, float]:
        """Exact ``(||c0||, ||c1||)``, computed once per pencil."""
        return spectral_norm(self.c0), spectral_norm(self.c1)

    def scale(self) -> float:
        return max(*self.norms, 1.0)

    @cached_property
    def slope(self) -> tuple[Array, float]:
        """``(M, 1 + ||M||)`` with ``M = c1^{-1} c0``, computed once per pencil.

        M carries the whole spectral picture: the anchor singularity is its
        eigenvalue 0 and every other singularity sits at offset -mu for an
        eigenvalue mu.
        """
        try:
            m = _checked_solve(self.c1, self.c0, "slope coefficient c1")
        except SingularMatrixError as exc:
            raise UnsupportedModelError(f"chain bases need an invertible slope: {exc}") from exc
        return m, 1.0 + spectral_norm(m)


@dataclass(frozen=True)
class BasicSolution:
    """The determining Laurent pair ``(T_{-1}, T_0)`` of a pencil resolvent."""

    t_minus_one: Array
    t_zero: Array

    @cached_property
    def norms(self) -> tuple[float, float]:
        """Exact ``(||T_{-1}||, ||T_0||)``, computed once per solution."""
        return spectral_norm(self.t_minus_one), spectral_norm(self.t_zero)


@dataclass(frozen=True)
class SpectralPair:
    """Complementary projections separating singular and regular dynamics.

    ``domain_sin + domain_reg = I`` on the solution space and
    ``range_sin + range_reg = I`` on the equation space.
    """

    domain_sin: Array
    domain_reg: Array
    range_sin: Array
    range_reg: Array


@dataclass
class LaurentExpansion:
    """Coefficient table ``j -> T_j``."""

    coefficients: dict[int, Array]

    def __getitem__(self, j: int) -> Array:
        return self.coefficients[j]


@dataclass(frozen=True)
class SingularityClass:
    """Outcome of the singularity dichotomy at the anchor point.

    kind is one of ``removable``, ``pole``, ``essential_at_truncation``,
    ``inconclusive``; ``order`` is the pole order / collapse index where
    that applies.  ``power_norms`` are the Frobenius norms ``||N^k||_F``
    of the powers scanned, computed without underflow.
    """

    kind: str
    order: int | None = None
    power_norms: tuple[float, ...] = field(default=())


def solve_at(pencil: LinearPencil, z: complex, *, tol: float = TOL_SOLVE) -> Array:
    """Resolvent value ``A(z)^{-1}`` with a conditioning guard.

    Raises SingularMatrixError when the point is (numerically) singular:
    condition estimate above ``COND_CAP`` or an exactly singular factor.
    """
    a = pencil.evaluate(z)
    eye = np.eye(pencil.dim, dtype=np.complex128)
    r = _checked_solve(a, eye, f"pencil at z = {z}")
    defect = a @ r - eye
    if not _screened(
        lambda res, na, nr: res <= tol * max(1.0, na * nr), (defect,), (a, r)
    ):
        raise SingularMatrixError(
            f"solve at z = {z} failed residual check: {spectral_norm(defect):.3e}"
        )
    return r


def singular_offsets(pencil: LinearPencil) -> Array:
    """Finite offsets ``mu`` (from the anchor) where ``C0 + mu*C1`` is singular."""
    with np.errstate(all="ignore"):
        mu = scipy.linalg.eigvals(pencil.c0, -pencil.c1)
    return mu[np.isfinite(mu)]


def default_radius(pencil: LinearPencil) -> float:
    """Contour radius: half the distance to the nearest other singularity.

    The anchor itself appears as a (cluster of) zero offsets and is ignored:
    every offset at or below ``ANCHOR_TOL * (1 + max |mu|)``.
    When no other finite singularity exists the resolvent is analytic on the
    whole punctured plane and any radius works; 1.0 is returned.
    """
    mu = singular_offsets(pencil)
    if mu.size == 0:
        return 1.0
    mags = np.abs(mu)
    nonzero = mags[mags > ANCHOR_TOL * (1.0 + mags.max())]
    if nonzero.size == 0:
        return 1.0
    return float(nonzero.min()) / 2.0


def contour_coefficients(
    pencil: LinearPencil,
    js: tuple[int, ...] | list[int],
    radius: float | None = None,
    *,
    tol: float = TOL_CONTOUR,
) -> tuple[dict[int, Array], dict]:
    """Laurent coefficients by trapezoid quadrature with node doubling.

    Equispaced nodes ``z_k = 1 + radius e^{2 pi i k/m}`` on the circle; the
    node count m starts at ``START_NODES`` and doubles, up to ``MAX_NODES``,
    until every requested
    coefficient moves by no more than ``tol * max(1, ||T_j||)`` between
    rounds.  The grids are nested: the m-point grid is the even half of the
    2m-point grid, with the same phases ``e^{-2 pi i j k/m}``.  So each
    round solves only the new odd nodes and adds them to one running sum
    per ``j``; ``T_j`` is that sum times ``radius^{-j} / m``, and no node
    value is stored.  Returns the coefficient table and an info dict
    (radius, node count).
    """
    if radius is None:
        radius = default_radius(pencil)
    if not 0.0 < radius < np.inf:  # also False for NaN
        raise InputError(f"contour radius must be finite and positive, got {radius}")
    eye = np.eye(pencil.dim, dtype=np.complex128)
    sums = {j: np.zeros_like(eye) for j in js}

    def add_nodes(m: int, ks: range) -> dict[int, Array]:
        """Add nodes ``ks`` of the m-point grid to the sums; return the m-point ``T_j``."""
        for k in ks:
            angle = 2 * np.pi * k / m
            try:
                r = np.linalg.solve(pencil.evaluate(1.0 + radius * np.exp(1j * angle)), eye)
            except np.linalg.LinAlgError as exc:
                raise SingularMatrixError(
                    f"contour of radius {radius} passes through a "
                    f"singular point near angle {angle:.4f}"
                ) from exc
            for j in js:
                sums[j] += r * np.exp(-1j * j * angle)
        return {j: sums[j] * (radius ** (-j) / m) for j in js}

    m = START_NODES
    current = add_nodes(m, range(m))
    while m < MAX_NODES:
        m *= 2
        refined = add_nodes(m, range(1, m, 2))
        settled = all(
            _screened(
                lambda move, size: move / max(1.0, size) <= tol,
                (refined[j] - current[j],),
                (refined[j],),
            )
            for j in js
        )
        current = refined
        if settled:
            return current, {"radius": radius, "nodes": m}
    raise ContourNotConverged(
        f"contour quadrature did not stabilise within {MAX_NODES} nodes "
        f"(radius {radius})"
    )


def _basic_defects(basic: BasicSolution, pencil: LinearPencil) -> dict[str, Array]:
    tm, t0 = basic.t_minus_one, basic.t_zero
    c0, c1 = pencil.c0, pencil.c1
    eye = np.eye(pencil.dim)
    out = {
        "left_unit": tm @ c1 + t0 @ c0 - eye,
        "right_unit": c1 @ tm + c0 @ t0 - eye,
    }
    for i, ci in enumerate((c0, c1)):
        out[f"cross_neg_pos_c{i}"] = tm @ ci @ t0
        out[f"cross_pos_neg_c{i}"] = t0 @ ci @ tm
    return out


def basic_residuals(basic: BasicSolution, pencil: LinearPencil) -> dict[str, float]:
    """Residual norms of the four identities characterising a basic solution."""
    return {k: spectral_norm(d) for k, d in _basic_defects(basic, pencil).items()}


def _all_within(mats, limit: float) -> bool:
    """``max(spectral_norm(a) for a in mats) <= limit``, screened."""
    return all(_screened(lambda r: r <= limit, (a,)) for a in mats)


def basic_solution(
    pencil: LinearPencil,
    radius: float | None = None,
    *,
    tol: float = TOL_CONTOUR,
    verify_tol: float = TOL_FUND,
) -> BasicSolution:
    """Compute ``(T_{-1}, T_0)`` by contour quadrature and verify it.

    The verification covers the unit identities on both sides and the
    four cross-annihilation products; failure raises
    FundamentalResidualError rather than returning doubtful data.  With
    ``t = max ||T_j||`` and ``c = max ||C_i||``, a unit identity (a sum of
    products ``T C``) is held to ``verify_tol * t * c`` and a cross product
    ``T C T`` to ``verify_tol * t^2 * c``: both bounds keep their ratio to
    the residual when the pencil is scaled, whatever its size.
    """
    coeffs, _ = contour_coefficients(pencil, (-1, 0), radius, tol=tol)
    basic = BasicSolution(coeffs[-1], coeffs[0])
    t_size, c_size = max(basic.norms), max(pencil.norms)
    defects = _basic_defects(basic, pencil)
    units = [defects.pop(k) for k in ("left_unit", "right_unit")]
    unit_limit = verify_tol * t_size * c_size
    if not (
        _all_within(units, unit_limit) and _all_within(defects.values(), unit_limit * t_size)
    ):
        raise FundamentalResidualError(
            f"basic solution residuals too large: {basic_residuals(basic, pencil)}"
        )
    return basic


def _laurent_orbit(step: Array, start: Array):
    """``start, -(step @ start), step @ step @ start, ...``: one Laurent recurrence."""
    acc = start
    while True:
        yield acc
        acc = -(step @ acc)


def laurent_range(
    basic: BasicSolution,
    pencil: LinearPencil,
    j_lo: int,
    j_hi: int,
) -> LaurentExpansion:
    """Coefficient table for ``j_lo <= j <= j_hi`` via the one-step recurrences.

    ``T_{-k} = (-1)^{k-1} (T_{-1} C_0)^{k-1} T_{-1}`` for the principal part
    and ``T_l = (-1)^l (T_0 C_1)^l T_0`` for the regular part.
    """
    if j_lo > j_hi:
        raise InputError(f"empty coefficient range [{j_lo}, {j_hi}]")
    neg_step = basic.t_minus_one @ pencil.c0
    pos_step = basic.t_zero @ pencil.c1
    # zip stops on the exhausted range before it asks the orbit for more
    coeffs = dict(zip(range(-1, j_lo - 1, -1), _laurent_orbit(neg_step, basic.t_minus_one)))
    coeffs.update(zip(range(0, j_hi + 1), _laurent_orbit(pos_step, basic.t_zero)))
    coeffs = {j: coeffs[j] for j in range(j_lo, j_hi + 1)}
    return LaurentExpansion(coefficients=coeffs)


def projections(
    basic: BasicSolution,
    pencil: LinearPencil,
    *,
    tol: float = TOL_FUND,
) -> SpectralPair:
    """Spectral projections from the basic solution, with idempotency checks.

    Domain side: ``P = T_{-1} C_1``, complement ``T_0 C_0``.
    Range side:  ``Q = C_1 T_{-1}``, complement ``C_0 T_0``.
    """
    p = basic.t_minus_one @ pencil.c1
    p_c = basic.t_zero @ pencil.c0
    q = pencil.c1 @ basic.t_minus_one
    q_c = pencil.c0 @ basic.t_zero
    eye = np.eye(pencil.dim)
    scale = max(1.0, max(basic.norms) * pencil.scale())
    defects = {
        "domain_idempotent": p @ p - p,
        "domain_complement": p + p_c - eye,
        "range_idempotent": q @ q - q,
        "range_complement": q + q_c - eye,
    }
    if not _all_within(defects.values(), tol * max(scale, scale**2)):
        checks = {k: spectral_norm(d) for k, d in defects.items()}
        raise ProjectionError(f"projection checks failed: {checks}")
    return SpectralPair(domain_sin=p, domain_reg=p_c, range_sin=q, range_reg=q_c)


@dataclass(frozen=True)
class FundamentalReport:
    """The largest residual of the fundamental identities over a j-window."""

    js: tuple[int, ...]
    max_residual: float
    tol: float
    passed: bool


def verify_fundamental(
    pencil,
    coefficients: dict[int, Array],
    j_lo: int,
    j_hi: int,
    *,
    tol: float = TOL_FUND,
) -> FundamentalReport:
    """Check ``sum_{i=0}^{p} T_{j-p+i} C_{p-i} = [j = 0] I`` and its right-hand twin.

    ``pencil`` is any pencil with ``coeffs = (C_0, ..., C_p)``: a
    LinearPencil (p = 1) or a PolynomialPencil.  The table must cover
    ``[j_lo - p, j_hi]``.  The window passes when its largest residual norm
    is at most ``tol * max(1, max_i ||C_i|| * max_j ||T_j||)`` over the
    coefficients and the table entries it reads: each residual is a sum of
    products ``T_j C_i``, so it keeps its size when every ``C_i`` is scaled
    by s and every ``T_j`` by 1/s, and so does the bound.
    """
    rev = pencil.coeffs[::-1]  # C_p, ..., C_0
    p = len(rev) - 1
    if j_lo > j_hi:
        raise InputError(f"empty verification window [{j_lo}, {j_hi}]")
    need = range(j_lo - p, j_hi + 1)
    missing = [j for j in need if j not in coefficients]
    if missing:
        raise InputError(f"coefficient table is missing indices {missing}")
    eye = np.eye(pencil.dim)
    js = range(j_lo, j_hi + 1)
    defects = []
    for j in js:
        target = eye if j == 0 else 0.0
        ts = [coefficients[j - p + i] for i in range(p + 1)]
        defects.append(reduce(np.add, map(np.matmul, ts, rev)) - target)
        defects.append(reduce(np.add, map(np.matmul, rev, ts)) - target)
    worst = _max_norm(defects)
    return FundamentalReport(
        js=tuple(js),
        max_residual=worst,
        tol=tol,
        passed=_screened(
            lambda *norms: worst <= tol * max(1.0, max(norms[: p + 1]) * max(norms[p + 1 :])),
            helpful=(*rev, *(coefficients[j] for j in need)),
        ),
    )


def classify_singularity(basic: BasicSolution, pencil: LinearPencil) -> SingularityClass:
    """Dichotomy at the anchor from powers of ``N = T_{-1} C_0``.

    A pole of order d means N is nilpotent with index d.  Numerically the
    collapse shows as a cliff: the ratio ``||N^k|| / ||N^{k-1}||`` drops
    below ``CLIFF_FACTOR`` times the ratio before it AND ``||N^k||`` lands
    below ``TOL_FUND * ||T_{-1}|| * ||C_0||``.  A smooth decay that only
    crosses the tolerance without a cliff (quadrature-style quasi-nilpotent
    truncations) is scanned further for the hard collapse; when that
    happens exactly at the truncation dimension the singular part is an
    essential-singularity truncation, not a genuine pole.  Norms that
    plateau without collapsing by ``k = n + 2`` give ``inconclusive``.

    Each ``a_k = ||N^k||`` is screened: the collapse is ruled out from the
    bounds of ``a_{k-2..k}`` whenever they decide it, and the exact norms
    are taken only at the indices where they do not.
    """
    n = pencil.dim
    t_minus_norm, t_zero_norm = basic.norms
    t_scale = max(t_zero_norm, 1.0)
    if t_minus_norm <= TOL_FUND * t_scale:
        return SingularityClass(kind="removable", order=None)
    nil = basic.t_minus_one @ pencil.c0
    anchor = max(t_minus_norm * pencil.norms[0], np.finfo(float).tiny)
    # a_k = ||N^k|| lies in [lo[k], hi[k]], and a(k) narrows both to the
    # exact norm on demand; a_0 is the anchor, and only the last three powers
    # are kept
    lo, hi, powers = [anchor], [anchor], {}

    def a(k: int) -> float:
        if lo[k] != hi[k]:
            lo[k] = hi[k] = spectral_norm(powers[k])
        return lo[k]

    frobenius: list[float] = []
    power = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 3):
        power = power @ nil
        powers[k] = power
        powers.pop(k - 3, None)
        # BLAS nrm2 scales as it sums: entries near 1e-160 do not underflow
        frobenius.append(float(scipy.linalg.norm(power.ravel(), check_finite=False)))
        bounds = _norm_bounds(power)
        lo.append(bounds[0])
        hi.append(bounds[1])
        # Certified no collapse at k: a_{k-1} > 0, and either
        # a_k > TOL_FUND * anchor or ratio = a_k / a_{k-1} >= lo_k / hi_{k-1}
        # exceeds the cliff times prev_ratio = a_{k-1} / a_{k-2}
        # <= hi_{k-1} / lo_{k-2} (1 at k = 1).
        if lo[k - 1] > 0.0:
            if lo[k] > TOL_FUND * anchor:
                continue
            if k == 1 or lo[k - 2] > 0.0:
                prev_ratio_hi = 1.0 if k == 1 else hi[k - 1] / lo[k - 2]
                if lo[k] / hi[k - 1] > CLIFF_FACTOR * prev_ratio_hi:
                    continue
        prev = a(k - 1)
        prev_ratio = 1.0 if k == 1 else (prev / a(k - 2) if a(k - 2) > 0 else 0.0)
        ratio = a(k) / prev if prev > 0 else 0.0
        collapsed = a(k) <= TOL_FUND * anchor and ratio <= CLIFF_FACTOR * prev_ratio
        if prev == 0.0:
            collapsed = True  # already exactly nilpotent at the previous index
        if collapsed:
            kind = "essential_at_truncation" if k == n else "pole"
            return SingularityClass(kind=kind, order=k, power_norms=tuple(frobenius))
    return SingularityClass(kind="inconclusive", order=None, power_norms=tuple(frobenius))


def annulus_estimate(basic: BasicSolution, pencil: LinearPencil) -> tuple[float, float]:
    """Root-test estimates of the annulus of convergence.

    Returns ``(s_hat, r_hat)``: the inner radius estimate
    ``max ||T_{-k}||^{1/k}`` and the outer radius estimate
    ``1 / max ||T_l||^{1/l}``, each maximised over the top half of the
    sampled index range: k up to ``INNER_TERMS``, l up to ``OUTER_TERMS``.  An
    identically-zero regular part gives ``r_hat = inf``; a terminating
    principal part gives ``s_hat = 0``.
    Both are exact SVD roots; the norms of the other terms are only screened.
    """
    # terms (index, T_j, lo, hi) with lo <= ||T_j|| <= hi
    orbit = _laurent_orbit(basic.t_minus_one @ pencil.c0, basic.t_minus_one)
    ks = range(1, INNER_TERMS + 1)
    neg = [(k, acc, *_norm_bounds(acc)) for k, acc in zip(ks, orbit)]
    pos = []
    orbit = _laurent_orbit(basic.t_zero @ pencil.c1, basic.t_zero)
    for ell, acc in zip(range(OUTER_TERMS + 1), orbit):
        lo, hi = _norm_bounds(acc)
        if lo <= 1e200 < hi:
            lo = hi = spectral_norm(acc)  # the bounds cannot decide the break
        pos.append((ell, acc, lo, hi))
        if ell >= 2:
            pos[ell // 2 - 1] = None  # below every later cut l_top // 2
        if lo > 1e200:
            break

    # A principal part that terminates inside the window converges on the
    # whole punctured disc: a vanishing trailing norm forces s_hat = 0.
    los, his = [t[2] for t in neg], [t[3] for t in neg]
    if max(his) == 0.0 or his[-1] <= 1e-13 * max(los):
        terminates = True
    elif los[-1] > 1e-13 * max(his):
        terminates = False
    else:
        exact = [spectral_norm(t[1]) for t in neg]
        neg = [(k, acc, v, v) for (k, acc, _, _), v in zip(neg, exact)]
        terminates = max(exact) == 0.0 or exact[-1] <= 1e-13 * max(exact)
    s_hat = 0.0 if terminates else _screened_max(neg[INNER_TERMS // 2 - 1 :])

    l_top = len(pos) - 1
    r_root = _screened_max(pos[max(1, l_top // 2) :])
    r_hat = 1.0 / r_root if r_root else float("inf")
    return s_hat, r_hat


def closed_form_parts(
    basic: BasicSolution, pencil: LinearPencil, z: complex
) -> tuple[Array, Array]:
    """Singular and regular resolvent parts at ``z`` in closed form.

    ``R_sin(z) = [ (z-1) I + T_{-1} C_0 ]^{-1} T_{-1}`` sums the whole
    principal series; ``R_reg(z) = [ I + T_0 C_1 (z-1) ]^{-1} T_0`` sums the
    regular series.  Valid on the annulus of the expansion.
    """
    n = pencil.dim
    eye = np.eye(n, dtype=np.complex128)
    w = z - 1.0
    sin_core = w * eye + basic.t_minus_one @ pencil.c0
    reg_core = eye + basic.t_zero @ pencil.c1 * w
    r_sin = _checked_solve(
        sin_core, basic.t_minus_one, f"closed-form singular factor at z = {z}"
    )
    r_reg = _checked_solve(reg_core, basic.t_zero, f"closed-form regular factor at z = {z}")
    return r_sin, r_reg


def closed_form_resolvent(basic: BasicSolution, pencil: LinearPencil, z: complex) -> Array:
    r_sin, r_reg = closed_form_parts(basic, pencil, z)
    return r_sin + r_reg


@dataclass(frozen=True)
class SeparationReport:
    """Restriction of the pencil coefficients to the singular/regular split."""

    sin_blocks: tuple[Array, Array]  # Q C_i P for i = 0, 1
    reg_blocks: tuple[Array, Array]  # Q^c C_i P^c for i = 0, 1
    off_residuals: dict[str, float]
    tol: float
    passed: bool


def separate(
    pair: SpectralPair,
    pencil: LinearPencil,
    *,
    tol: float = TOL_FUND,
) -> SeparationReport:
    """Verify the coefficients act block-diagonally across the split.

    Both cross blocks ``Q C_i P^c`` and ``Q^c C_i P`` must vanish; the
    retained diagonal blocks reconstruct ``C_i`` exactly.
    """
    off: dict[str, float] = {}
    sin_blocks, reg_blocks = [], []
    scale = pencil.scale()
    for i, ci in enumerate((pencil.c0, pencil.c1)):
        sin_blocks.append(pair.range_sin @ ci @ pair.domain_sin)
        reg_blocks.append(pair.range_reg @ ci @ pair.domain_reg)
        off[f"sin_to_reg_c{i}"] = spectral_norm(pair.range_reg @ ci @ pair.domain_sin)
        off[f"reg_to_sin_c{i}"] = spectral_norm(pair.range_sin @ ci @ pair.domain_reg)
        off[f"reassemble_c{i}"] = spectral_norm(sin_blocks[i] + reg_blocks[i] - ci)
    worst = max(off.values())
    return SeparationReport(
        sin_blocks=tuple(sin_blocks),
        reg_blocks=tuple(reg_blocks),
        off_residuals=off,
        tol=tol,
        passed=_screened(
            lambda p, q: worst <= tol * scale * max(1.0, p * q),
            helpful=(pair.domain_sin, pair.range_sin),
        ),
    )
