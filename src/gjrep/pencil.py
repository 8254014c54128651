"""Laurent analysis of a linear matrix pencil around an isolated singular point.

The pencil is stored in anchored form ``A(z) = C0 + C1*(z - 1)``: ``C0`` is the
(typically singular) value at the anchor ``z = 1`` and ``C1`` is the slope.  The
resolvent ``R(z) = A(z)^{-1}`` then has a Laurent expansion
``R(z) = sum_j T_j (z - 1)^j`` on a punctured annulus around the anchor, and the
pair ``(T_{-1}, T_0)`` determines every other coefficient through a pair of
one-step recurrences.  This module computes that pair by contour quadrature,
expands it, verifies the defining identities, classifies the singularity, and
evaluates the closed-form (partial-fraction) resolvent.  It also owns the
anchor's cluster of offsets for both of its users: the contour radius and
``r_hat`` cut it on ``ANCHOR_TOL`` from ``LinearPencil.offsets``, and the
chain bases (``_schur_basis``, which ``chains`` only calls) on ``ZERO_TOL``
from ``LinearPencil.qz``.

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
a pass/fail verdict is screened: one ``_Norm`` holds the matrix, its
certified two-sided bounds (``_norm_bounds``, O(n^2) work) and, once taken,
its exact SVD norm.  ``_screened`` takes the SVDs only when the bounds
straddle the verdict's threshold, so the verdicts are exactly those of the
all-SVD evaluation, the classification's included.  A written maximum over
many terms (``_screened_max``) is exact too: only the terms whose upper
bound reaches the largest lower bound can hold it, so only those take an SVD.

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
# the anchor's cluster (``_anchor_cluster``) on two tolerances: the contour
# radius and r_hat leave out the offsets within ANCHOR_TOL, and the chain
# bases (``_schur_basis``) take those within ZERO_TOL
ANCHOR_TOL = 1e-8
ZERO_TOL = 1e-6
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


class _Norm:
    """``||a||`` as the screens read it: ``lo <= ||a|| <= hi`` from
    ``_norm_bounds``, or from ``bounds`` (``(x, x)`` for a norm already
    exact), narrowed to the exact SVD norm at most once by ``exact``."""

    def __init__(self, a: Array | None, bounds: tuple[float, float] | None = None):
        self.a = a
        self.lo, self.hi = _norm_bounds(a) if bounds is None else bounds

    def exact(self) -> float:
        if self.lo != self.hi:
            self.lo = self.hi = spectral_norm(self.a)
        return self.lo


def _screened(test, harmful=(), helpful=()) -> bool:
    """``test(*norms)`` on the spectral norms of ``harmful`` then ``helpful``,
    each a matrix or a ``_Norm``.

    ``test`` must be monotone: a larger harmful norm or a smaller helpful one
    can only turn True into False.  Rounded ``*``, ``/`` and ``max`` keep that
    order in floating point, so evaluating ``test`` at the worst and at the
    best ends of the bounds certifies the exact verdict; the exact norms are
    taken only when those two disagree.
    """
    harmful, helpful = (
        [x if isinstance(x, _Norm) else _Norm(x) for x in side] for side in (harmful, helpful)
    )
    if all(x.hi < np.inf for x in (*harmful, *helpful)):
        if test(*(x.hi for x in harmful), *(x.lo for x in helpful)):
            return True
        if not test(*(x.lo for x in harmful), *(x.hi for x in helpful)):
            return False
    return bool(test(*(x.exact() for x in (*harmful, *helpful))))


def _screened_max(terms) -> float:
    """Exact ``max ||a|| ** (1 / j)`` over terms ``(j, norm)`` with a
    ``_Norm`` of ``a`` and ``j >= 1``; 0.0 when there is no term.

    ``j = 1`` gives the plain maximum norm.  Only terms whose upper-bound
    root reaches the largest lower-bound root can hold the maximum, so only
    those need the exact norm.
    """
    terms = list(terms)
    floor = max((x.lo ** (1.0 / j) for j, x in terms), default=0.0)
    return max(
        (x.exact() ** (1.0 / j) for j, x in terms if x.hi ** (1.0 / j) >= floor), default=0.0
    )


def _max_norm(mats) -> float:
    """Exact ``max(spectral_norm(a) for a in mats)``, 0.0 for none, screened."""
    return _screened_max((1, _Norm(a)) for a in mats)


@dataclass(frozen=True)
class LinearPencil:
    """Anchored pencil ``A(z) = c0 + c1*(z - 1)``.

    Both coefficients are float64 when every entry of both has zero
    imaginary part, and complex128 otherwise (a mixed pair is promoted, since
    the contour reads its grid off ``c0.dtype``); everything computed from
    the pencil follows that dtype.  Its spectral data are computed once:
    ``norms``, the ``offsets`` and the QZ form ``qz`` of the chain bases.
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
        """Finite offsets ``mu`` (from the anchor) where ``c0 + mu c1`` is
        singular, from one eigenvalues-only QZ, computed once per pencil."""
        with np.errstate(all="ignore"):
            mu = scipy.linalg.eigvals(self.c0, -self.c1)
        return mu[np.isfinite(mu)]

    @cached_property
    def qz(self) -> tuple[Array, Array, Array, Array]:
        """``(S, T, Z, mu)``: the generalized Schur form ``Q^H (c0, -c1) Z = (S, T)``
        with its right Schur vectors ``Z``, computed once per pencil.

        LAPACK ``?gges`` in the pencil's dtype (a real pencil gets a real
        QZ), without the left vectors ``Q``.  ``mu = alpha / beta`` are the
        offsets in the order of the form: ``c0 + mu c1`` is singular, and
        ``beta = 0`` (a singular ``c1``) gives an infinite or NaN ``mu``.
        Both chain bases reorder this one form.
        """
        gges = scipy.linalg.get_lapack_funcs("gges", (self.c0,))
        s, t, _, *ab, _, z, _, info = gges(lambda *_: None, self.c0, -self.c1, jobvsl=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"QZ iteration failed (info {info})")
        return s, t, z, _generalized_offsets(ab)


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


def _generalized_offsets(ab) -> Array:
    """``alpha / beta`` from a QZ's ``(alphar, alphai, beta)`` (real) or ``(alpha, beta)``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (ab[0] + 1j * ab[1] if len(ab) == 3 else ab[0]) / ab[-1]


def _anchor_cluster(pencil: LinearPencil, mu: Array, tol: float) -> Array:
    """Which offsets ``mu`` are in the anchor's cluster: the finite ones with
    ``|mu| <= tol * (1 + ||c0|| / ||c1||)``, a cut that does not move when
    the pencil is scaled (a zero ``c1`` has no finite offsets to cut).

    ``ANCHOR_TOL`` (1e-8) cuts for the contour radius and ``r_hat``, which
    must not take a near unit root into the cluster and enclose it;
    ``ZERO_TOL`` (1e-6) cuts for the chain bases, which must hold a Jordan
    cluster that rounding splits to about ``eps^{1/d}``.  A rank rule for
    the cluster size would replace both (ROADMAP item 2).
    """
    c0, c1 = pencil.norms
    cut = tol * (1.0 + c0 / c1) if c1 > 0.0 else np.inf
    return np.isfinite(mu) & (np.abs(mu) <= cut)


def _schur_basis(pencil: LinearPencil, singular: bool) -> Array:
    """Orthonormal basis of the right deflating subspace of ``(C_0, -C_1)``
    for the anchor's cluster on ``ZERO_TOL`` (``singular``) or for the rest
    of the spectrum.

    Both sides reorder the pencil's one generalized Schur form (LAPACK
    ``?tgsen``; Kagstrom & Poromaa, Numer. Algorithms 12, 1996) to put their
    offsets first, as ``scipy.linalg.ordqz`` does to a fresh one; an infinite
    offset is on the regular side.  A failed reordering, or one that rounding
    leaves with a leading offset on the wrong side of the cut, raises
    LinAlgError.
    """
    s, t, z, mu = pencil.qz
    select = _anchor_cluster(pencil, mu, ZERO_TOL) == singular
    tgsen = scipy.linalg.get_lapack_funcs("tgsen", (s,))
    # with wantq=0 the left vectors are not referenced: z stands in for them
    _, _, *ab, _, zs, sdim, _, _, _, info = tgsen(select, s, t, z, z, ijob=0, wantq=0)
    leading = _anchor_cluster(pencil, _generalized_offsets(ab)[:sdim], ZERO_TOL)
    if info != 0 or not (leading == singular).all():
        raise np.linalg.LinAlgError("QZ reordering failed or left the cluster unsorted")
    return zs[:, :sdim]


def _outer_offset(pencil: LinearPencil) -> float:
    """Distance to the nearest singularity but the anchor, inf for none: the
    smallest offset outside the anchor's cluster on ``ANCHOR_TOL``."""
    mu = pencil.offsets
    return float(np.abs(mu[~_anchor_cluster(pencil, mu, ANCHOR_TOL)]).min(initial=np.inf))


def default_radius(pencil: LinearPencil) -> float:
    """Contour radius: half the distance to the nearest other singularity,
    the smallest offset outside the anchor's cluster on ``ANCHOR_TOL``.

    When no other finite singularity exists the resolvent is analytic on the
    whole punctured plane and any radius works; 1.0 is returned.
    """
    outer = _outer_offset(pencil)
    return outer / 2.0 if outer < np.inf else 1.0


def contour_coefficients(
    pencil: LinearPencil, radius: float | None = None
) -> tuple[dict[int, Array], dict]:
    """The pair ``{-1: T_{-1}, 0: T_0}`` by trapezoid quadrature with node doubling.

    Equispaced nodes ``z_k = 1 + radius e^{2 pi i k/m}`` on the circle; the
    node count m starts at ``START_NODES`` and doubles, up to ``MAX_NODES``,
    until ``max_j ||T_j(2m) - T_j(m)|| <= TOL_CONTOUR * max_j ||T_j(2m)||``
    over the pair: one screened verdict per doubling, relative to
    the larger coefficient, so a coefficient that is zero in exact
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
    js = (-1, 0)  # the pair fixes every other coefficient (``laurent_range``)
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
    coeffs, _ = contour_coefficients(pencil, radius)
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
    projections that split the pencil.  ``P + P^c - I`` is the left-unit
    defect, and
    ``P^2 - P = -(T_{-1} C_1 T_0) C_0 + P (T_{-1} C_1 + T_0 C_0 - I)``, a
    cross product times ``C_0`` plus ``P`` times that defect; the range
    side is the mirror image, with the right-unit defect.  The cross blocks
    of each coefficient are cross products too,
    ``Q C_i P^c = C_1 (T_{-1} C_i T_0) C_0`` and
    ``Q^c C_i P = C_0 (T_0 C_i T_{-1}) C_1``, and the diagonal blocks
    reassemble ``C_i`` up to those blocks and the unit defects times ``C_i``.
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
    happens exactly at the truncation dimension, after ``||N^{n-1}||`` had
    already crossed the tolerance, the singular part is an
    essential-singularity truncation, not a genuine pole.  A collapse at
    ``k = n`` straight from above the tolerance is a pole of order n, as
    for ``C_0 = J_n(0)``, ``C_1 = I`` or the simple pole of ``C_0 = [[0]]``,
    ``C_1 = [[1]]``.  Norms that plateau without collapsing by
    ``k = n + 2`` give ``inconclusive``.

    The collapse rule is one monotone predicate, ``kept`` (no collapse at
    ``k``), screened by ``_screened`` on the ``_Norm`` of each power: the
    bounds decide a certain collapse as well as a certain continuation, and
    each power takes at most one SVD, only where its bounds do not decide.
    """
    n = pencil.dim
    t_minus_norm, t_zero_norm = basic.norms
    if t_minus_norm <= TOL_FUND * t_zero_norm:
        return SingularityClass(kind="removable", order=None)
    nil = basic.t_minus_one @ pencil.c0
    anchor = max(t_minus_norm * pencil.norms[0], np.finfo(float).tiny)
    floor = TOL_FUND * anchor
    # N^k = 2^e power: each power is scaled by an exact power of two so that
    # its largest entry lies in [1/2, 1), and a power that decays like 1/k!
    # keeps all its entries clear of underflow.  The last three norms and
    # exponents are kept; the exact anchor stands in for N^0, and for N^{-1}
    # so that the ratio before k = 1 is 1.  A zero power collapses at its own
    # index, so no norm that ``kept`` divides by is zero.
    norms, e = [_Norm(None, (anchor, anchor))] * 2, [0, 0]

    def kept(prev: float, cur: float, before: float) -> bool:
        """No collapse at the newest power: its norm is above the floor, or
        its ratio to ``prev`` drops by less than the cliff."""
        step = _times_pow2(cur / prev, e[2] - e[1])
        prev_step = _times_pow2(prev / before, e[1] - e[0])
        return _times_pow2(cur, e[2]) > floor or step > CLIFF_FACTOR * prev_step

    frobenius: list[float] = []
    power = np.eye(n, dtype=nil.dtype)
    for k in range(1, n + 3):
        power = power @ nil
        flat = power.view(np.float64)  # the entries, or their real and imaginary parts
        top = float(np.abs(flat).max())
        shift = frexp(top)[1] if 0.0 < top < np.inf else 0
        np.ldexp(flat, -shift, out=flat)
        norms, e = [*norms[-2:], _Norm(power)], [*e[-2:], e[-1] + shift]
        fro = float(scipy.linalg.norm(power.ravel(), check_finite=False))
        frobenius.append(_times_pow2(fro, e[2]))
        before, prev, cur = norms
        if not _screened(kept, (prev,), (cur, before)):
            truncated = k == n and _screened(lambda p: _times_pow2(p, e[1]) <= floor, (prev,))
            kind = "essential_at_truncation" if truncated else "pole"
            return SingularityClass(kind=kind, order=k, power_norms=tuple(frobenius))
    return SingularityClass(kind="inconclusive", order=None, power_norms=tuple(frobenius))


def annulus_estimate(
    basic: BasicSolution, pencil: LinearPencil, sclass: SingularityClass
) -> tuple[float, float]:
    """The annulus of convergence ``(s_hat, r_hat)`` of the Laurent expansion.

    ``r_hat`` is exact and scale-free: the regular series converges exactly
    on ``|z - 1| <`` the smallest offset outside the anchor's cluster (inf
    for none), the offset ``default_radius`` halves.  ``s_hat`` reads the
    pair's class ``sclass`` (``classify_singularity``): the principal part
    of a removable singularity or a pole is a finite sum, which converges
    on the whole punctured plane, so ``s_hat`` is 0.  Otherwise it is the
    root test ``max ||T_{-k}||^{1/k}`` over k = 6..12 (``INNER_TERMS // 2``
    to ``INNER_TERMS``), an exact SVD root (the other norms only screened):
    the only view of a truncated essential singularity, whose offsets all
    sit at the anchor.
    """
    if sclass.kind in ("removable", "pole"):
        return 0.0, _outer_offset(pencil)
    orbit = _laurent_orbit(basic.t_minus_one @ pencil.c0, basic.t_minus_one)
    top = [
        (k, _Norm(acc))
        for k, acc in zip(range(1, INNER_TERMS + 1), orbit)
        if k >= INNER_TERMS // 2
    ]
    return _screened_max(top), _outer_offset(pencil)


def closed_form_resolvent(basic: BasicSolution, pencil: LinearPencil, z: complex) -> Array:
    """The resolvent at ``z`` summed in closed form from the pair.

    ``R_sin(z) = [ (z-1) I + T_{-1} C_0 ]^{-1} T_{-1}`` sums the whole
    principal series and ``R_reg(z) = [ I + T_0 C_1 (z-1) ]^{-1} T_0`` the
    regular series; ``R(z) = R_sin(z) + R_reg(z)`` on the annulus of the
    expansion.
    """
    w = z - 1.0
    eye = np.eye(pencil.dim, dtype=np.result_type(w, pencil.c0))
    sin_core = w * eye + basic.t_minus_one @ pencil.c0
    reg_core = eye + basic.t_zero @ pencil.c1 * w
    r_sin = _checked_solve(
        sin_core, basic.t_minus_one, f"closed-form singular factor at z = {z}"
    )
    r_reg = _checked_solve(reg_core, basic.t_zero, f"closed-form regular factor at z = {z}")
    return r_sin + r_reg
