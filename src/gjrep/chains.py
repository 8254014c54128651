"""Jordan-type chains of the pencil and the invariant subspaces they span.

A singular chain extends a seed backwards through
``C_0 x_{-n} + C_1 x_{-n-1} = 0``; its root-test rate bounds the inner
radius of the resolvent annulus.  A regular chain extends forwards through
``C_1 x_n + C_0 x_{n+1} = 0``; its rate is the reciprocal of the outer
radius.  The chain subspaces coincide with the ranges of the spectral
projections computed from the basic solution, which gives an independent
cross-check between the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ChainStepError
from .pencil import Array, LinearPencil, as_vector

# a chain step solves when its residual is at most CHAIN_TOL times the
# pencil scale and the current norm; a chain terminates at CHAIN_TOL times
# its seed norm
CHAIN_TOL = 1e-9
# eigenvalues of M = C_1^{-1} C_0 at most ZERO_TOL * (1 + ||M||) form the
# zero cluster
ZERO_TOL = 1e-6


@dataclass(frozen=True)
class ChainResult:
    """A finite stretch of a chain with its decay/growth diagnostics.

    ``vectors[0]`` is the seed.  ``root_rates[i]`` is ``||x_n||^{1/n}``
    for n = i + 1; ``tail_ratio`` is the last consecutive norm ratio,
    which converges much faster than the root test on exactly geometric
    chains.  ``terminated`` marks a chain that hit (numerical) zero.
    """

    vectors: tuple[Array, ...]
    norms: tuple[float, ...]
    root_rates: tuple[float, ...]
    tail_ratio: float
    terminated: bool


def _extend(
    matrix: Array,
    partner: Array,
    scale: float,
    seed: Array,
    steps: int,
    project: Array | None,
) -> ChainResult:
    # Each step solves matrix @ x_next = -partner @ x_cur by least squares
    # and rejects inconsistent systems: the chain simply does not extend.
    # The matrix is the same at every step, so it is factored once: the
    # pseudo-inverse with lstsq's default cutoff eps * max(m, n) * s_max
    # gives lstsq's minimum-norm solution.
    solver = np.linalg.pinv(matrix, rcond=np.finfo(float).eps * max(matrix.shape))
    vectors = [seed]
    norms = [float(np.linalg.norm(seed))]
    if norms[0] == 0.0:
        raise ChainStepError("chain seed is the zero vector")
    terminated = False
    for _ in range(steps):
        rhs = -(partner @ vectors[-1])
        x_next = solver @ rhs
        if project is not None:
            # the coefficients respect the spectral split, so a projected
            # solution still solves; this strips cross-subspace seepage that
            # the ladder directions would otherwise amplify without bound
            x_next = project @ x_next
        residual = float(np.linalg.norm(matrix @ x_next - rhs))
        if residual > CHAIN_TOL * scale * max(norms[-1], 1.0):
            raise ChainStepError(
                f"chain step has no solution: residual {residual:.3e} "
                f"at chain position {len(vectors)}"
            )
        nrm = float(np.linalg.norm(x_next))
        vectors.append(x_next)
        norms.append(nrm)
        if nrm <= CHAIN_TOL * norms[0]:
            terminated = True
            break
    root_rates = tuple(norms[n] ** (1.0 / n) for n in range(1, len(norms)))
    tail_ratio = 0.0
    if len(norms) >= 2 and norms[-2] > 0:
        tail_ratio = norms[-1] / norms[-2]
    return ChainResult(
        vectors=tuple(vectors),
        norms=tuple(norms),
        root_rates=root_rates,
        tail_ratio=tail_ratio,
        terminated=terminated,
    )


def singular_chain(
    pencil: LinearPencil,
    seed,
    *,
    steps: int = 16,
    project: Array | None = None,
) -> ChainResult:
    """Extend ``seed = x_{-1}`` through ``C_0 x_{-n} + C_1 x_{-n-1} = 0``.

    ``project`` optionally re-projects each iterate (pass the singular
    domain projection) to stop rounding noise from seeding a cross-subspace
    component that later steps amplify.
    """
    seed = as_vector(seed, pencil.dim, "seed")
    return _extend(pencil.c1, pencil.c0, pencil.scale(), seed, steps, project)


def regular_chain(
    pencil: LinearPencil,
    seed,
    *,
    steps: int = 16,
    project: Array | None = None,
) -> ChainResult:
    """Extend ``seed = x_1`` through ``C_1 x_n + C_0 x_{n+1} = 0``.

    ``C_0`` is singular at a unit root, so each step is a consistency-checked
    least-squares solve; seeds whose chain leaves the solvable set raise
    ChainStepError.  The minimum-norm solve picks one of many valid
    continuations; pass the regular domain projection as ``project`` to pin
    the chain to its subspace, otherwise a seeded singular-ladder component
    can dominate the growth diagnostics.
    """
    seed = as_vector(seed, pencil.dim, "seed")
    return _extend(pencil.c0, pencil.c1, pencil.scale(), seed, steps, project)


def _schur_basis(pencil: LinearPencil, singular: bool) -> Array:
    """Reordered-Schur basis of ``M = C_1^{-1} C_0`` for its zero cluster
    (``singular``) or for the complement of that cluster.

    Both sides reorder the pencil's one Schur form (LAPACK ``?trsen``; Bai &
    Demmel, LAA 186, 1993), as ``scipy.linalg.schur(sort=)`` does to a fresh
    one, and raise LinAlgError where it does."""
    t, z, size = pencil.slope
    thr = ZERO_TOL * size
    select = (np.abs(np.diag(t)) <= thr) == singular
    trsen = scipy.linalg.get_lapack_funcs("trsen", (t,))
    ts, zs, _, sdim, _, _, info = trsen(select, t, z, job="N")
    if info != 0 or not ((np.abs(np.diag(ts)[:sdim]) <= thr) == singular).all():
        raise np.linalg.LinAlgError("Schur reordering failed or left the cluster unsorted")
    return zs[:, :sdim]


def sin_basis(pencil: LinearPencil) -> Array:
    """Orthonormal basis of the singular subspace (columns).

    The invariant subspace of ``M = C_1^{-1} C_0`` for the eigenvalue
    cluster at zero, which is the span of all terminating singular chains.
    """
    return _schur_basis(pencil, True)


def reg_basis(pencil: LinearPencil) -> Array:
    """Orthonormal basis of the regular subspace (columns).

    The invariant subspace of ``M`` for every eigenvalue outside the zero
    cluster: the complement of sin_basis.
    """
    return _schur_basis(pencil, False)


def max_principal_angle(a: Array, b: Array) -> float:
    """Largest principal angle between the column spans (radians)."""
    if a.shape[1] != b.shape[1]:
        return float(np.pi / 2)
    if a.shape[1] == 0:
        return 0.0
    angles = scipy.linalg.subspace_angles(a, b)
    return float(angles.max()) if angles.size else 0.0
