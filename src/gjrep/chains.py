"""Jordan-type chains of the pencil and the deflating subspaces they span.

A singular chain extends a seed backwards through
``C_0 x_{-n} + C_1 x_{-n-1} = 0``; its root-test rate bounds the inner
radius of the resolvent annulus.  A regular chain extends forwards through
``C_1 x_n + C_0 x_{n+1} = 0``; its rate is the reciprocal of the outer
radius.  Their spans are the right deflating subspaces of ``(C_0, -C_1)``
for the anchor's cluster of offsets and for the rest of the spectrum, read
off the pencil's one QZ (``LinearPencil.qz``), which a singular ``C_1`` does
not stop (Moler & Stewart, SIAM J. Numer. Anal. 10, 1973; Van Dooren, LAA 27,
1979).  Where the cluster ends is the pencil module's decision: the bases
are ``pencil._schur_basis``, beside the contour radius's cut of the same
cluster.  They coincide with the ranges of the spectral projections computed
from the basic solution, an independent cross-check between the two routes.

Only the pencil is read here: the pair is ``basic_solution``'s, and
``A_0^{-1}`` is ``ArmaModel.a0_inv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChainStepError
from .pencil import Array, LinearPencil, _schur_basis, as_vector

# a chain step solves when its residual is at most CHAIN_TOL times the
# largest coefficient norm and the current vector norm; a chain terminates
# at CHAIN_TOL times its seed norm
CHAIN_TOL = 1e-9


@dataclass(frozen=True)
class ChainResult:
    """A finite stretch of a chain with its decay/growth diagnostics.

    ``vectors[0]`` is the seed.  ``tail_ratio`` is the last consecutive
    norm ratio, which converges much faster than the root test
    ``||x_n||^{1/n}`` on exactly geometric chains.  ``terminated`` marks a
    chain that hit (numerical) zero.
    """

    vectors: tuple[Array, ...]
    norms: tuple[float, ...]
    tail_ratio: float
    terminated: bool


def _extend(
    matrix: Array,
    partner: Array,
    c_size: float,
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
        if residual > CHAIN_TOL * c_size * norms[-1]:
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
    tail_ratio = 0.0
    if len(norms) >= 2 and norms[-2] > 0:
        tail_ratio = norms[-1] / norms[-2]
    return ChainResult(
        vectors=tuple(vectors),
        norms=tuple(norms),
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

    Each step is a least-squares solve; a step whose residual is above
    ``CHAIN_TOL * max_i ||C_i|| * ||x_{-n}||`` raises ChainStepError, a
    bound that reads the same when the pencil or the seed is scaled.
    ``project`` optionally re-projects each iterate (pass the singular
    domain projection) to stop rounding noise from seeding a cross-subspace
    component that later steps amplify.
    """
    seed = as_vector(seed, pencil.dim, "seed")
    return _extend(pencil.c1, pencil.c0, max(pencil.norms), seed, steps, project)


def regular_chain(
    pencil: LinearPencil,
    seed,
    *,
    steps: int = 16,
    project: Array | None = None,
) -> ChainResult:
    """Extend ``seed = x_1`` through ``C_1 x_n + C_0 x_{n+1} = 0``.

    ``C_0`` is singular at a unit root, so each step is a consistency-checked
    least-squares solve, held to ``CHAIN_TOL * max_i ||C_i|| * ||x_n||`` as
    in ``singular_chain``; seeds whose chain leaves the solvable set raise
    ChainStepError.  The minimum-norm solve picks one of many valid
    continuations; pass the regular domain projection as ``project`` to pin
    the chain to its subspace, otherwise a seeded singular-ladder component
    can dominate the growth diagnostics.
    """
    seed = as_vector(seed, pencil.dim, "seed")
    return _extend(pencil.c0, pencil.c1, max(pencil.norms), seed, steps, project)


def sin_basis(pencil: LinearPencil) -> Array:
    """Orthonormal basis of the singular subspace (columns).

    The right deflating subspace of ``(C_0, -C_1)`` for the anchor's cluster:
    the offsets ``mu`` (``C_0 + mu C_1`` singular) with
    ``|mu| <= ZERO_TOL * (1 + ||C_0|| / ||C_1||)``.  It is the span of all
    terminating singular chains.  Real for a real pencil.
    """
    return _schur_basis(pencil, True)


def reg_basis(pencil: LinearPencil) -> Array:
    """Orthonormal basis of the regular subspace (columns).

    The right deflating subspace of ``(C_0, -C_1)`` for every offset outside
    the anchor's cluster, the infinite ones of a singular ``C_1`` included:
    the complement of sin_basis.
    """
    return _schur_basis(pencil, False)

