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
kept between rounds.  Every inverse, the contour's nodes included, goes
through one condition-checked solve (``_checked_solve``: one LU, LAPACK's
1-norm condition estimate from it, and the solve from the same LU), and
every one-step matrix recurrence ``X_{t+1} = -S X_t`` through one generator
(``_laurent_orbit``).

Spectral norms follow one rule.  A norm that a report writes is an exact SVD
norm (``spectral_norm``), computed once per object where several checks share
it (``LinearPencil.norms``, ``BasicSolution.norms``).  A norm that only feeds
a pass/fail verdict is first screened with certified two-sided bounds
(``_norm_bounds``, O(n^2) work), and the SVD is taken only when the bounds
straddle the verdict's threshold.  The verdicts are therefore exactly those
of the all-SVD evaluation.  A written maximum over many terms
(``_screened_max``) is exact too: only the terms whose upper bound reaches
the largest lower bound can hold it, so only those take an SVD.

A real pencil (both coefficients with zero imaginary part) is stored in
float64.  Its resolvent satisfies ``R(conj z) = conj R(z)``, so its Laurent
coefficients are real and the quadrature solves only the nodes on the upper
half of the circle (Trefethen & Weideman, SIAM Review 56, 2014).  The pair,
the checks, the classification and the annulus estimate then all run in
real arithmetic; the dtype of the pencil is the only switch, and a complex
pencil takes the same code on the full grid.  That dtype, like the dtype of
every input of the package, is chosen once, by ``as_matrix`` and ``as_vector``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from math import frexp, ldexp, sqrt

import numpy as np
import scipy.linalg

from .errors import (
    ContourNotConverged,
    FundamentalResidualError,
    InputError,
    NumericError,
    SingularMatrixError,
    UnsupportedModelError,
)

Array = np.ndarray

# Tolerances of the verdicts; every check below scales them by the norms its
# residual is built from, with no clamp at 1, so each verdict reads the same
# when the pencil is scaled.
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


def _narrowed(a: Array, name: str) -> Array:
    """Finite complex ``a`` as float64 when no entry has a nonzero imaginary
    part: the package's one choice between real and complex arithmetic."""
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InputError(f"{name} has non-finite entries")
    return a if a.imag.any() else np.ascontiguousarray(a.real)


def as_matrix(value, name: str = "matrix") -> Array:
    """Validate and convert to a square float64 or complex128 ndarray."""
    a = np.asarray(value, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    return _narrowed(a, name)


def as_vector(value, dim: int | None = None, name: str = "vector") -> Array:
    a = np.asarray(value, dtype=np.complex128).reshape(-1)
    if dim is not None and a.shape[0] != dim:
        raise InputError(f"{name} must have length {dim}, got {a.shape[0]}")
    return _narrowed(a, name)


def _checked_integer(value, name: str, minimum: int) -> int:
    """``value`` as an int, or InputError unless it is an integer, not a bool,
    at or above ``minimum``; no coercion from floats or strings."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def spectral_norm(a: Array) -> float:
    """The largest singular value of ``a``; NumericError if an entry is not finite."""
    if not np.isfinite(a).all():
        raise NumericError("spectral norm of a matrix with non-finite entries (overflow)")
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


@cache
def _lu_routines(dtype: np.dtype):
    """LAPACK's ``(getrf, gecon, getrs)`` for ``dtype``, fetched once per dtype."""
    return scipy.linalg.lapack.get_lapack_funcs(("getrf", "gecon", "getrs"), dtype=dtype)


def _checked_solve(a: Array, b: Array, what: str) -> Array:
    """``a^{-1} b`` from one LU of ``a``, or SingularMatrixError naming ``what``.

    The LU gives LAPACK's 1-norm condition estimate (``?gecon``, O(n^2);
    Higham, ACM TOMS 14, 1988) and then the solve.  ``a`` counts as singular
    at an exact zero pivot or when the estimate is above ``COND_CAP`` or NaN;
    a 1-norm that is not finite raises NumericError.  The routines follow the
    dtype of ``a`` and ``b`` together, so a complex ``b`` is never cast to real.
    """
    getrf, gecon, getrs = _lu_routines(np.result_type(a, b))
    norm = float(np.abs(a).sum(axis=0).max())
    if not np.isfinite(norm):
        raise NumericError(f"{what}: 1-norm is not finite (overflow)")
    lu, piv, info = getrf(a)
    rcond = gecon(lu, norm, norm="1")[0] if info == 0 else 0.0
    cond = 1.0 / rcond if rcond > 0.0 else np.inf  # NaN counts as singular too
    if not cond <= COND_CAP:
        raise SingularMatrixError(f"{what} is singular (condition {cond:.3e})")
    return getrs(lu, piv, b)[0]


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


def _times_pow2(x: float, e: int) -> float:
    """``x * 2**e`` rounded once, inf where it overflows."""
    try:
        return ldexp(x, e)
    except OverflowError:
        return np.inf


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
    """Anchored pencil ``A(z) = c0 + c1*(z - 1)``.

    Both coefficients are float64 when every entry of both has zero
    imaginary part, and complex128 otherwise (a mixed pair is promoted, since
    the contour reads its grid off ``c0.dtype``); everything computed from
    the pencil follows that dtype.
    """

    c0: Array
    c1: Array

    def __post_init__(self):
        c0, c1 = as_matrix(self.c0, "c0"), as_matrix(self.c1, "c1")
        if c0.shape != c1.shape:
            raise InputError(f"c0 and c1 must match, got {c0.shape} vs {c1.shape}")
        dtype = np.result_type(c0, c1)
        c0, c1 = c0.astype(dtype, copy=False), c1.astype(dtype, copy=False)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)

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

    @cached_property
    def offsets(self) -> Array:
        """The finite offsets of ``singular_offsets``, computed once per pencil."""
        return singular_offsets(self)

    @cached_property
    def slope(self) -> tuple[Array, Array, float]:
        """``(T, Z, 1 + ||M||)``: the complex Schur form ``M = Z T Z^H`` of
        ``M = c1^{-1} c0``, computed once per pencil.

        M carries the whole spectral picture: the anchor singularity is its
        eigenvalue 0 and every other singularity sits at offset -mu for an
        eigenvalue mu.  Both chain bases reorder this one form.
        """
        try:
            m = _checked_solve(self.c1, self.c0, "slope coefficient c1")
        except SingularMatrixError as exc:
            raise UnsupportedModelError(f"chain bases need an invertible slope: {exc}") from exc
        t, z = scipy.linalg.schur(m, output="complex")
        return t, z, 1.0 + spectral_norm(m)


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


@dataclass(frozen=True)
class SingularityClass:
    """Outcome of the singularity dichotomy at the anchor point.

    kind is one of ``removable``, ``pole``, ``essential_at_truncation``,
    ``inconclusive``; ``order`` is the pole order / collapse index where
    that applies.  ``power_norms`` are the Frobenius norms ``||N^k||_F``
    of the powers scanned, computed without underflow and then rounded to
    the nearest double (0.0 below its range).
    """

    kind: str
    order: int | None = None
    power_norms: tuple[float, ...] = field(default=())


def solve_at(pencil: LinearPencil, z: complex) -> Array:
    """Resolvent value ``A(z)^{-1}`` with a conditioning guard.

    Raises SingularMatrixError when the point is (numerically) singular:
    condition estimate above ``COND_CAP`` or an exactly singular factor, or
    when the residual ``A(z) R - I`` is above ``TOL_SOLVE * ||A(z)|| ||R||``
    (at least ``TOL_SOLVE``, since ``||A|| ||A^{-1}|| >= 1``).
    """
    a = pencil.evaluate(z)
    eye = np.eye(pencil.dim, dtype=a.dtype)
    r = _checked_solve(a, eye, f"pencil at z = {z}")
    defect = a @ r - eye
    if not _screened(
        lambda res, na, nr: res <= TOL_SOLVE * na * nr, (defect,), (a, r)
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


def _outer_offset(pencil: LinearPencil) -> float:
    """Distance to the nearest singularity but the anchor, inf for none; the
    anchor's cluster is every offset at or below ``ANCHOR_TOL * (1 + max |mu|)``."""
    mags = np.abs(pencil.offsets)
    outside = mags[mags > ANCHOR_TOL * (1.0 + mags.max(initial=0.0))]
    return float(outside.min(initial=np.inf))


def default_radius(pencil: LinearPencil) -> float:
    """Contour radius: half the distance to the nearest other singularity.

    When no other finite singularity exists the resolvent is analytic on the
    whole punctured plane and any radius works; 1.0 is returned.
    """
    outer = _outer_offset(pencil)
    return outer / 2.0 if outer < np.inf else 1.0


def contour_coefficients(
    pencil: LinearPencil,
    js: tuple[int, ...] | list[int],
    radius: float | None = None,
) -> tuple[dict[int, Array], dict]:
    """Laurent coefficients by trapezoid quadrature with node doubling.

    Equispaced nodes ``z_k = 1 + radius e^{2 pi i k/m}`` on the circle; the
    node count m starts at ``START_NODES`` and doubles, up to ``MAX_NODES``,
    until ``max_j ||T_j(2m) - T_j(m)|| <= TOL_CONTOUR * max_j ||T_j(2m)||``
    over the requested set: one screened verdict per doubling, relative to
    the largest coefficient, so a coefficient that is zero in exact
    arithmetic (``T_0`` of a Volterra section) settles once its rounding
    noise is small beside the others, at any scale.  Each node goes through
    ``_checked_solve``: a node singular up to rounding raises
    SingularMatrixError with its angle on the first grid that holds it.  The
    grids are nested: the m-point grid is the even half of the 2m-point
    grid, with the same phases ``e^{-2 pi i j k/m}``.  So each round solves
    only the new odd nodes and adds them to one running sum per ``j``;
    ``T_j`` is that sum times ``radius^{-j} / m``, and no node value is
    stored.

    A real (float64) pencil has ``R(conj z) = conj R(z)``, and the grid is
    closed under conjugation: node ``k`` and node ``m - k`` are twins.  So
    only the nodes with angle in ``[0, pi]`` are solved, ``m/2 + 1`` of
    them.  The two on the real axis (``k = 0``, ``k = m/2``) are solved at
    a real point and count once; every other one adds
    ``2 Re(R(z_k) e^{-i j theta_k})`` for itself and its twin.  The new odd
    nodes of a doubling pair up as ``k <-> 2m - k`` too, and the sums and
    the returned ``T_j`` are float64.

    Returns the coefficient table and an info dict: the radius, and as
    ``nodes`` the size m of the last grid (not the number of solves).
    """
    if radius is None:
        radius = default_radius(pencil)
    if not 0.0 < radius < np.inf:  # also False for NaN
        raise InputError(f"contour radius must be finite and positive, got {radius}")
    half = pencil.c0.dtype.kind == "f"  # the solves cover the upper half circle
    sums = {j: np.zeros_like(pencil.c0) for j in js}

    def add_nodes(m: int, ks: range) -> dict[int, Array]:
        """Add nodes ``ks`` of the m-point grid to the sums; return the m-point ``T_j``."""
        for k in ks:
            angle = 2 * np.pi * k / m
            point = 1.0 + radius * np.exp(1j * angle)
            # on the half grid node k stands in for its twin m - k as well,
            # except on the real axis (k = 0 or m/2), where the point is real
            weight = 2.0 if half and 0 < 2 * k < m else 1.0
            if half and weight == 1.0:
                point = point.real
            a = pencil.evaluate(point)
            eye = np.eye(pencil.dim, dtype=a.dtype)
            r = _checked_solve(a, eye, f"contour node near angle {angle:.4f} (radius {radius})")
            for j in js:
                term = r * (weight * np.exp(-1j * j * angle))
                sums[j] += term.real if half else term
        return {j: sums[j] * (radius ** (-j) / m) for j in js}

    m = START_NODES
    current = add_nodes(m, range(m // 2 + 1 if half else m))
    while m < MAX_NODES:
        m *= 2
        refined = add_nodes(m, range(1, m // 2 if half else m, 2))
        settled = _screened(
            lambda *norms: max(norms[: len(js)]) <= TOL_CONTOUR * max(norms[len(js) :]),
            [refined[j] - current[j] for j in js],
            [refined[j] for j in js],
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


def basic_solution(pencil: LinearPencil, radius: float | None = None) -> BasicSolution:
    """Compute ``(T_{-1}, T_0)`` by contour quadrature and verify it.

    The verification covers the unit identities on both sides and the
    four cross-annihilation products; failure raises
    FundamentalResidualError rather than returning doubtful data.  With
    ``t = max ||T_j||`` and ``c = max ||C_i||``, a unit identity (a sum of
    products ``T C``) is held to ``TOL_FUND * t * c`` and a cross product
    ``T C T`` to ``TOL_FUND * t^2 * c``: both bounds keep their ratio to
    the residual when the pencil is scaled, whatever its size.
    """
    coeffs, _ = contour_coefficients(pencil, (-1, 0), radius)
    basic = BasicSolution(coeffs[-1], coeffs[0])
    t_size, c_size = max(basic.norms), max(pencil.norms)
    defects = _basic_defects(basic, pencil)
    units = [defects.pop(k) for k in ("left_unit", "right_unit")]
    unit_limit = TOL_FUND * t_size * c_size
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
) -> dict[int, Array]:
    """Coefficient table ``j -> T_j`` for ``j_lo <= j <= j_hi`` via the
    one-step recurrences.

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
    return {j: coeffs[j] for j in range(j_lo, j_hi + 1)}


def projections(basic: BasicSolution, pencil: LinearPencil) -> SpectralPair:
    """Spectral projections from the basic solution.

    Domain side: ``P = T_{-1} C_1``, complement ``P^c = T_0 C_0``.
    Range side:  ``Q = C_1 T_{-1}``, complement ``Q^c = C_0 T_0``.

    The four products are returned unchecked: the identities that
    ``basic_solution`` verifies already make them complementary
    projections.  ``P + P^c - I`` is the left-unit defect, and
    ``P^2 - P = -(T_{-1} C_1 T_0) C_0 + P (T_{-1} C_1 + T_0 C_0 - I)``, a
    cross product times ``C_0`` plus ``P`` times that defect; the range
    side is the mirror image, with the right-unit defect.
    """
    return SpectralPair(
        domain_sin=basic.t_minus_one @ pencil.c1,
        domain_reg=basic.t_zero @ pencil.c0,
        range_sin=pencil.c1 @ basic.t_minus_one,
        range_reg=pencil.c0 @ basic.t_zero,
    )


@dataclass(frozen=True)
class FundamentalReport:
    """The largest residual of the fundamental identities over a j-window."""

    js: tuple[int, ...]
    max_residual: float
    passed: bool


def verify_fundamental(
    pencil,
    coefficients: dict[int, Array],
    j_lo: int,
    j_hi: int,
) -> FundamentalReport:
    """Check ``sum_{i=0}^{p} T_{j-p+i} C_{p-i} = [j = 0] I`` and its right-hand twin.

    ``pencil`` is any pencil with ``coeffs = (C_0, ..., C_p)``: a
    LinearPencil (p = 1) or a PolynomialPencil.  The table must cover
    ``[j_lo - p, j_hi]``.  The window passes when its largest residual norm
    is at most ``TOL_FUND * max_i ||C_i|| * max_j ||T_j||`` over the
    coefficients and the table entries it reads (the unit identity keeps that
    product near 1 or above): each residual is a sum of
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
        passed=_screened(
            lambda *norms: worst <= TOL_FUND * max(norms[: p + 1]) * max(norms[p + 1 :]),
            helpful=(*rev, *(coefficients[j] for j in need)),
        ),
    )


def classify_singularity(basic: BasicSolution, pencil: LinearPencil) -> SingularityClass:
    """Dichotomy at the anchor from powers of ``N = T_{-1} C_0``.

    The singularity is removable when ``||T_{-1}|| <= TOL_FUND * ||T_0||``:
    both coefficients scale as one over the pencil, so the test does too.
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
    if t_minus_norm <= TOL_FUND * t_zero_norm:
        return SingularityClass(kind="removable", order=None)
    nil = basic.t_minus_one @ pencil.c0
    anchor = max(t_minus_norm * pencil.norms[0], np.finfo(float).tiny)
    floor = TOL_FUND * anchor
    # N^k = 2^e[k] powers[k]: each power is scaled by an exact power of two
    # so that its largest entry lies in [1/2, 1), and a power that decays
    # like 1/k! keeps all its entries clear of underflow.  ||powers[k]|| lies
    # in [lo[k], hi[k]], and a(k) narrows both to the exact norm on demand;
    # a_0 is the anchor, and only the last three powers are kept.
    lo, hi, e, powers = [anchor], [anchor], [0], {}

    def a(k: int) -> float:
        if lo[k] != hi[k]:
            lo[k] = hi[k] = spectral_norm(powers[k])
        return lo[k]

    def ratio(x: float, k: int, y: float) -> float:
        """``(2^e[k] x) / (2^e[k-1] y)``, the ratio of two consecutive norms."""
        return _times_pow2(x / y, e[k] - e[k - 1])

    frobenius: list[float] = []
    power = np.eye(n, dtype=nil.dtype)
    for k in range(1, n + 3):
        power = power @ nil
        flat = power.view(np.float64)  # the entries, or their real and imaginary parts
        top = float(np.abs(flat).max())
        shift = frexp(top)[1] if 0.0 < top < np.inf else 0
        np.ldexp(flat, -shift, out=flat)
        e.append(e[-1] + shift)
        powers[k] = power
        powers.pop(k - 3, None)
        fro = float(scipy.linalg.norm(power.ravel(), check_finite=False))
        frobenius.append(_times_pow2(fro, e[k]))
        bounds = _norm_bounds(power)
        lo.append(bounds[0])
        hi.append(bounds[1])
        # Certified no collapse at k: a_{k-1} > 0, and either
        # a_k > TOL_FUND * anchor or ratio = a_k / a_{k-1} >= lo_k / hi_{k-1}
        # exceeds the cliff times prev_ratio = a_{k-1} / a_{k-2}
        # <= hi_{k-1} / lo_{k-2} (1 at k = 1).
        if lo[k - 1] > 0.0:
            if _times_pow2(lo[k], e[k]) > floor:
                continue
            if k == 1 or lo[k - 2] > 0.0:
                prev_ratio_hi = 1.0 if k == 1 else ratio(hi[k - 1], k - 1, lo[k - 2])
                if ratio(lo[k], k, hi[k - 1]) > CLIFF_FACTOR * prev_ratio_hi:
                    continue
        prev = a(k - 1)
        prev_ratio = 1.0 if k == 1 else (ratio(prev, k - 1, a(k - 2)) if a(k - 2) > 0 else 0.0)
        step = ratio(a(k), k, prev) if prev > 0 else 0.0
        collapsed = _times_pow2(a(k), e[k]) <= floor and step <= CLIFF_FACTOR * prev_ratio
        if prev == 0.0:
            collapsed = True  # already exactly nilpotent at the previous index
        if collapsed:
            kind = "essential_at_truncation" if k == n else "pole"
            return SingularityClass(kind=kind, order=k, power_norms=tuple(frobenius))
    return SingularityClass(kind="inconclusive", order=None, power_norms=tuple(frobenius))


def annulus_estimate(basic: BasicSolution, pencil: LinearPencil) -> tuple[float, float]:
    """The annulus of convergence ``(s_hat, r_hat)`` of the Laurent expansion.

    ``r_hat`` is exact and scale-free: the regular series converges exactly
    on ``|z - 1| <`` the smallest offset outside the anchor's cluster (inf
    for none), the offset ``default_radius`` halves.  ``s_hat`` is the root
    test ``max ||T_{-k}||^{1/k}`` over the top half of k up to
    ``INNER_TERMS``, an exact SVD root (the other norms only screened), and
    0 for a terminating principal part; it is the only view of a truncated
    essential singularity, whose offsets all sit at the anchor.
    """
    # terms (index, T_{-k}, lo, hi) with lo <= ||T_{-k}|| <= hi
    orbit = _laurent_orbit(basic.t_minus_one @ pencil.c0, basic.t_minus_one)
    ks = range(1, INNER_TERMS + 1)
    neg = [(k, acc, *_norm_bounds(acc)) for k, acc in zip(ks, orbit)]

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
    return s_hat, _outer_offset(pencil)


def closed_form_parts(
    basic: BasicSolution, pencil: LinearPencil, z: complex
) -> tuple[Array, Array]:
    """Singular and regular resolvent parts at ``z`` in closed form.

    ``R_sin(z) = [ (z-1) I + T_{-1} C_0 ]^{-1} T_{-1}`` sums the whole
    principal series; ``R_reg(z) = [ I + T_0 C_1 (z-1) ]^{-1} T_0`` sums the
    regular series.  Valid on the annulus of the expansion.
    """
    w = z - 1.0
    eye = np.eye(pencil.dim, dtype=np.result_type(w, pencil.c0))
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
    passed: bool


def separate(pair: SpectralPair, pencil: LinearPencil) -> SeparationReport:
    """Verify the coefficients act block-diagonally across the split.

    Both cross blocks ``Q C_i P^c`` and ``Q^c C_i P`` must vanish and the
    retained diagonal blocks reconstruct ``C_i``: each residual is held to
    ``TOL_FUND * max_i ||C_i|| * max(1, ||P|| ||Q||)``, which scales with
    the pencil as the residuals do; the projections do not scale.  The one
    clamp is on ``||P|| ||Q||``: it is at least 1 for nonzero projections
    and 0 at a removable singularity, where the reassembly residual still
    carries ``C_i``.
    """
    off: dict[str, float] = {}
    sin_blocks, reg_blocks = [], []
    c_size = max(pencil.norms)
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
        passed=_screened(
            lambda p, q: worst <= TOL_FUND * c_size * max(1.0, p * q),
            helpful=(pair.domain_sin, pair.range_sin),
        ),
    )
