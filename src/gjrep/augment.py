"""Reductions to the linear anchored pencil.

Two constructions land higher-order problems in the linear theory:

* ``augment`` linearizes a degree-p matrix polynomial in the anchor offset
  into a block pencil of p-times the dimension whose Laurent coefficients
  tile the polynomial's own (block (a, b) of the augmented coefficient J
  holds the polynomial coefficient of index J*p + a - b).
* ``reduce_arma`` stacks an ARMA(p, q) system on blocks of r = max(p, q)
  consecutive times into an ARMA(1, 1) system whose solution interleaves
  the original path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arma import ArmaModel, Trajectory
from .errors import BlockInconsistent, InputError
from .pencil import Array, LinearPencil, _max_norm, as_matrix


@dataclass(frozen=True)
class PolynomialPencil:
    """Matrix polynomial ``A(z) = sum_i coeffs[i] (z - 1)^i`` in the anchor offset."""

    coeffs: tuple[Array, ...]

    def __post_init__(self):
        mats = tuple(as_matrix(c, f"coeffs[{i}]") for i, c in enumerate(self.coeffs))
        if not mats:
            raise InputError("polynomial pencil needs at least one coefficient")
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise InputError("all polynomial coefficients must share one square shape")
        object.__setattr__(self, "coeffs", mats)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.coeffs[0].shape[0]

    def evaluate(self, z: complex) -> Array:
        w = complex(z) - 1.0
        acc = np.zeros_like(self.coeffs[0])
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return acc


@dataclass(frozen=True)
class AugmentedPencil:
    """Linearization of a polynomial pencil, with the bookkeeping to unpack it."""

    pencil: LinearPencil
    degree: int
    base_dim: int


def _block_companion(mats: "tuple[Array, ...] | list[Array]", r: int) -> tuple[Array, Array]:
    """Block companion pair of ``mats = (M_0, ..., M_k)`` on r consecutive times.

    Block (a, b) of the first matrix is ``M_{a-b}`` for ``0 <= a-b <= k``,
    and of the second ``M_{r+a-b}`` for ``1 <= r+a-b <= k``; all other
    blocks are zero.
    """
    k, n = len(mats) - 1, mats[0].shape[0]
    lag0 = np.zeros((r * n, r * n), dtype=np.complex128)
    lag1 = np.zeros((r * n, r * n), dtype=np.complex128)
    for a in range(r):
        for b in range(r):
            block = np.s_[a * n : (a + 1) * n, b * n : (b + 1) * n]
            if 0 <= a - b <= k:
                lag0[block] = mats[a - b]
            if 1 <= r + a - b <= k:
                lag1[block] = mats[r + a - b]
    return lag0, lag1


def augment(poly: PolynomialPencil) -> AugmentedPencil:
    """Block linearization of a degree-p polynomial pencil.

    The augmented anchored pair (dimension n*p) is the block companion pair
    of the polynomial coefficients ``C_i`` on p times:

        aug_c0[a][b] = C_{a-b}          for 0 <= a-b <= p,
        aug_c1[a][b] = C_{p-(b-a)}      for 0 <= b-a <= p-1,

    and its Laurent coefficients tile the polynomial's:
    block (a, b) of the augmented ``T_J`` equals ``T_{J p + a - b}``.
    """
    p = poly.degree
    if p < 1:
        raise InputError("augmentation needs degree >= 1")
    c0, c1 = _block_companion(poly.coeffs, p)
    return AugmentedPencil(pencil=LinearPencil(c0=c0, c1=c1), degree=p, base_dim=poly.dim)


def unpack_laurent(
    aug: AugmentedPencil,
    coefficients: dict[int, Array],
    *,
    tol: float | None = None,
) -> tuple[dict[int, Array], float]:
    """Polynomial Laurent coefficients from augmented ones.

    Each polynomial index m = J*p + a - b is covered by every block (a, b)
    of every augmented coefficient J that reaches it; the returned table
    averages the copies and the second value is the largest spectral-norm
    deviation of any copy from its average, a consistency measure of the
    linearization.  When ``tol`` is given, a deviation beyond it raises
    :class:`~gjrep.errors.BlockInconsistent`.
    """
    p, n = aug.degree, aug.base_dim
    copies: dict[int, list[Array]] = {}
    for j, big in coefficients.items():
        big = as_matrix(big, f"coefficients[{j}]")
        if big.shape != (n * p, n * p):
            raise InputError(
                f"augmented coefficient {j} must be {n * p}x{n * p}, got {big.shape}"
            )
        for a in range(p):
            for b in range(p):
                m = j * p + a - b
                copies.setdefault(m, []).append(
                    big[a * n : (a + 1) * n, b * n : (b + 1) * n]
                )
    tmap: dict[int, Array] = {}
    deviations = []
    for m in sorted(copies):
        stack = np.stack(copies[m])
        tmap[m] = stack.mean(axis=0)
        deviations.extend(stack - tmap[m])
    worst = _max_norm(deviations)
    if tol is not None and worst > tol:
        raise BlockInconsistent(
            f"repeated coefficient blocks disagree by {worst:.3e} > tol {tol:.1e}"
        )
    return tmap, worst


@dataclass(frozen=True)
class StackedArma:
    """ARMA(1, 1) system on blocks of r consecutive times of an ARMA(p, q)."""

    a0: Array
    a1: Array
    f0: Array
    f1: Array
    block: int
    base_dim: int

    def model(self, presample_x: Array | None = None) -> ArmaModel:
        """Stacked model with initial state ``(x(-r), ..., x(-1))``.

        ``presample_x`` has shape (r, n); omitted means a zero presample,
        which is exact because the stacked coefficients never reach values
        of x below the autoregressive depth.
        """
        r, n = self.block, self.base_dim
        if presample_x is None:
            c = np.zeros(r * n, dtype=np.complex128)
        else:
            presample_x = np.asarray(presample_x, dtype=np.complex128)
            if presample_x.shape != (r, n):
                raise InputError(f"presample_x must be ({r}, {n})")
            c = presample_x.reshape(r * n)
        return ArmaModel(a0=self.a0, a1=self.a1, f0=self.f0, f1=self.f1, c=c)

    def stack(self, w: Trajectory) -> Trajectory:
        """Noise blocks ``(w(r*tau), ..., w(r*tau + r - 1))`` from block time -1.

        The input must start exactly one block before zero and cover full
        blocks.
        """
        r, n = self.block, self.base_dim
        if w.dim != n:
            raise InputError(f"noise dim {w.dim} != base dim {n}")
        if w.start != -r:
            raise InputError(f"stacked noise must start at t = {-r}, got {w.start}")
        total = w.values.shape[0]
        blocks = total // r
        if blocks < 2:
            raise InputError("need at least one block beyond the presample")
        vals = w.values[: blocks * r].reshape(blocks, r * n)
        return Trajectory(start=-1, values=vals)

    def unstack(self, y: Trajectory) -> Trajectory:
        """Original-time path from a block path."""
        r, n = self.block, self.base_dim
        if y.dim != r * n:
            raise InputError(f"block dim {y.dim} != {r * n}")
        vals = y.values.reshape(y.values.shape[0] * r, n)
        return Trajectory(start=y.start * r, values=vals)


def reduce_arma(
    a_coeffs: "list[Array]",
    f_coeffs: "list[Array]",
) -> StackedArma:
    """Stack ``sum_i A_i x(t-i) = sum_k F_k w(t-k)`` on blocks of r = max(p, q).

    Row a of the stacked pair reproduces the original equation at time
    ``r*tau + a``:

        big_a0[a][b] = A_{a-b}     (0 <= a-b <= p)
        big_a1[a][b] = A_{r+a-b}   (1 <= r+a-b <= p)

    and likewise for the moving-average side with F and q.
    """
    a_mats = [as_matrix(m, f"a_coeffs[{i}]") for i, m in enumerate(a_coeffs)]
    f_mats = [as_matrix(m, f"f_coeffs[{k}]") for k, m in enumerate(f_coeffs)]
    if not a_mats or not f_mats:
        raise InputError("need at least the order-0 coefficient on both sides")
    n = a_mats[0].shape[0]
    if any(m.shape != (n, n) for m in a_mats + f_mats):
        raise InputError("all coefficients must share one square shape")
    p, q = len(a_mats) - 1, len(f_mats) - 1
    r = max(p, q, 1)

    big_a0, big_a1 = _block_companion(a_mats, r)
    big_f0, big_f1 = _block_companion(f_mats, r)
    return StackedArma(
        a0=big_a0, a1=big_a1, f0=big_f0, f1=big_f1, block=r, base_dim=n
    )


def direct_recursion(
    a_coeffs: "list[Array]",
    f_coeffs: "list[Array]",
    w: Trajectory,
    t_end: int,
) -> Trajectory:
    """Reference ARMA(p, q) path with zero presample state.

    Solves ``A_0 x(t) = sum_k F_k w(t-k) - sum_{i>=1} A_i x(t-i)`` forward
    from t = 0 with x(t) = 0 for t < 0; the noise must cover
    ``[-q, t_end]``.
    """
    a_mats = [np.asarray(m, dtype=np.complex128) for m in a_coeffs]
    f_mats = [np.asarray(m, dtype=np.complex128) for m in f_coeffs]
    n = a_mats[0].shape[0]
    p, q = len(a_mats) - 1, len(f_mats) - 1
    if w.start > -q:
        raise InputError(f"noise must start at or before {-q}")
    hist = [np.zeros(n, dtype=np.complex128) for _ in range(p)]
    out = np.empty((t_end + 1, n), dtype=np.complex128)
    for t in range(t_end + 1):
        rhs = sum(f_mats[k] @ w.at(t - k) for k in range(q + 1))
        for i in range(1, p + 1):
            rhs = rhs - a_mats[i] @ hist[i - 1]
        x_t = np.linalg.solve(a_mats[0], rhs)
        out[t] = x_t
        if p:
            hist = [x_t] + hist[:-1]
    return Trajectory(start=0, values=out)
