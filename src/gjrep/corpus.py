"""Worked pencils with closed-form resolvents, used as exact references.

Each constructor returns a CorpusEntry bundling the pencil, its exact
basic solution, and an ``expected`` table of closed-form quantities
(projections, coefficient laws, resolvent law, annulus, chain rates) that
the numerical machinery is checked against.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from math import isfinite
from typing import Callable

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InputError
from .pencil import Array, BasicSolution, LinearPencil, _checked_integer


@dataclass(frozen=True)
class CorpusEntry:
    """One reference pencil with its exact expected quantities."""

    name: str
    params: dict
    pencil: LinearPencil
    basic: BasicSolution
    expected: dict = field(default_factory=dict)


def make_matrix_example(eps: float = 0.5) -> CorpusEntry:
    """2x2 pencil with a simple pole at the anchor and a tiny outer radius.

    The regular Laurent coefficients grow like eps^-(l+1), so for eps < 1
    the regular series converges only inside radius eps and the natural
    representation does not exist.
    """
    if eps == 0:
        raise InputError("eps must be nonzero")
    c0 = np.array([[0.0, -eps], [0.0, 0.0]], dtype=np.complex128)
    c1 = np.array([[-1.0, 0.0], [-1.0, -1.0]], dtype=np.complex128)
    t_m1 = np.array([[0.0, -1.0], [0.0, 0.0]], dtype=np.complex128)
    t_0 = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.complex128) / eps
    unit = np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=np.complex128)

    def resolvent(z: complex) -> Array:
        z = complex(z)
        return (1.0 / (1.0 + eps - z)) * np.array(
            [[1.0, eps / (1.0 - z)], [-1.0, 1.0]]
        )

    def t_neg(k: int) -> Array:
        return t_m1 if k == 1 else np.zeros((2, 2), dtype=np.complex128)

    def t_pos(ell: int) -> Array:
        return unit * eps ** (-(ell + 1))

    return CorpusEntry(
        name="matrix",
        params={"eps": eps},
        pencil=LinearPencil(c0=c0, c1=c1),
        basic=BasicSolution(t_minus_one=t_m1, t_zero=t_0),
        expected={
            "domain_sin": np.array([[1.0, 1.0], [0.0, 0.0]]),
            "range_sin": np.array([[0.0, 1.0], [0.0, 1.0]]),
            "pole_order": 1,
            "annulus": (0.0, abs(eps)),
            "default_radius": abs(eps) / 2.0,
            "resolvent": resolvent,
            "t_neg": t_neg,
            "t_pos": t_pos,
            "sin_span": np.array([[1.0], [0.0]]),
        },
    )


def make_c0_example(lam: float = 0.25, n: int = 10) -> CorpusEntry:
    """Jordan-plus-diagonal pencil with an order-2 pole at the anchor.

    The first two coordinates carry a second-order unit root through a
    2x2 Jordan block; coordinate j >= 3 is a stable AR(1) with parameter
    lam^(j-2), so the regular radius is (1 - lam)/lam.
    """
    n = _checked_integer(n, "n", 3)
    if not 0 < lam < 1:
        raise InputError("lam must lie in (0, 1)")
    top = np.array([[1.0, 1.0], [0.0, 1.0]])
    rates = np.array([lam ** (j - 1) for j in range(2, n)])
    a1 = -np.block(
        [
            [top, np.zeros((2, n - 2))],
            [np.zeros((n - 2, 2)), np.diag(rates)],
        ]
    ).astype(np.complex128)
    a0 = np.eye(n, dtype=np.complex128)
    c0 = a0 + a1
    t_m1 = np.zeros((n, n), dtype=np.complex128)
    t_m1[:2, :2] = [[-1.0, 1.0], [0.0, -1.0]]
    t_0 = np.zeros((n, n), dtype=np.complex128)
    t_0[range(2, n), range(2, n)] = 1.0 / (1.0 - rates)
    t_m2 = np.zeros((n, n), dtype=np.complex128)
    t_m2[0, 1] = 1.0

    def resolvent(z: complex) -> Array:
        z = complex(z)
        out = np.zeros((n, n), dtype=np.complex128)
        out[0, 0] = out[1, 1] = 1.0 / (1.0 - z)
        out[0, 1] = z / (1.0 - z) ** 2
        out[range(2, n), range(2, n)] = 1.0 / (1.0 - rates * z)
        return out

    def t_neg(k: int) -> Array:
        out = np.zeros((n, n), dtype=np.complex128)
        if k == 1:
            out[:2, :2] = [[-1.0, 1.0], [0.0, -1.0]]
        elif k == 2:
            out[0, 1] = 1.0
        return out

    def t_pos(ell: int) -> Array:
        out = np.zeros((n, n), dtype=np.complex128)
        out[range(2, n), range(2, n)] = rates**ell / (1.0 - rates) ** (ell + 1)
        return out

    proj = np.zeros((n, n))
    proj[0, 0] = proj[1, 1] = 1.0
    span = np.zeros((n, 2))
    span[0, 0] = span[1, 1] = 1.0
    return CorpusEntry(
        name="c0",
        params={"lam": lam, "n": n},
        pencil=LinearPencil(c0=c0, c1=a1),
        basic=BasicSolution(t_minus_one=t_m1, t_zero=t_0),
        expected={
            "domain_sin": proj,
            "range_sin": proj,
            "pole_order": 2,
            "t_minus_two": t_m2,
            "annulus": (0.0, (1.0 - lam) / lam),
            "default_radius": (1.0 - lam) / lam / 2.0,
            "resolvent": resolvent,
            "t_neg": t_neg,
            "t_pos": t_pos,
            "sin_span": span,
            "singular_chain_rate": lambda m: (1.0 - lam**m) / lam**m,
            "regular_chain_rate": lambda m: lam**m / (1.0 - lam**m),
        },
    )


def make_volterra_example(n: int = 64) -> CorpusEntry:
    """Discretized cumulative-average operator: a pole as deep as the dimension.

    C_0 = V with V[i, j] = 1/n for j < i (strictly lower), C_1 = -(I - V).
    Every principal coefficient up to order n is nonzero, so any
    truncation-limited classifier must report the singularity as
    essential at this truncation; the regular part is identically zero.
    Structural zeros are preserved exactly by triangular solves.
    """
    n = _checked_integer(n, "n", 2)
    v = np.tril(np.full((n, n), 1.0 / n), -1).astype(np.complex128)
    eye = np.eye(n, dtype=np.complex128)
    c0 = v
    c1 = -(eye - v)
    # -(I - V)^{-1} via a unit-triangular solve keeps the upper triangle
    # exactly zero, which the collapse classifier depends on
    inv = solve_triangular(eye - v, eye, lower=True, unit_diagonal=True)
    t_m1 = -inv
    t_0 = np.zeros((n, n), dtype=np.complex128)

    def t_neg(k: int) -> Array:
        step = v @ inv
        out = -inv.copy()
        for _ in range(k - 1):
            out = step @ out
        return out

    return CorpusEntry(
        name="volterra",
        params={"n": n},
        pencil=LinearPencil(c0=c0, c1=c1),
        basic=BasicSolution(t_minus_one=t_m1, t_zero=t_0),
        expected={
            "domain_sin": np.eye(n),
            "range_sin": np.eye(n),
            "collapse_index": n,
            # the singular values of V are 1 / (2 n sin((2k - 1) pi / (2 (2n - 1)))),
            # k = 1..n-1, plus a 0, and the largest tends to 2/pi
            "operator_norm": 1.0 / (2 * n * np.sin(np.pi / (2 * (2 * n - 1)))),
            "t_neg": t_neg,
            "annulus_outer": np.inf,
            "default_radius": 1.0,
        },
    )


def make_hierarchy_example(base: float = 0.4, n: int = 8) -> CorpusEntry:
    """Aggregation hierarchy: n cascading levels plus one aggregate coordinate.

    Level k feeds level k-1 at rate lam_k = base * 2^-k and the aggregate
    relaxes at rate sigma = sum lam_k < 1.  The anchor pole has order n
    in dimension n + 1 and the regular part is rank one.
    """
    n = _checked_integer(n, "n", 1)
    lam = base * 2.0 ** -np.arange(1, n + 1)
    sigma = float(lam.sum())
    if sigma >= 1.0:
        raise InputError(f"aggregate rate {sigma} must stay below 1")
    u = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        u[i, i + 1] = lam[i + 1]
    c0 = np.zeros((n + 1, n + 1), dtype=np.complex128)
    c0[:n, :n] = -u
    c0[:n, n] = -lam
    c0[n, n] = sigma
    c1 = np.eye(n + 1, dtype=np.complex128)
    w = np.linalg.solve(sigma * np.eye(n) + u, lam.astype(np.complex128))
    t_m1 = np.zeros((n + 1, n + 1), dtype=np.complex128)
    t_m1[:n, :n] = np.eye(n)
    t_m1[:n, n] = w
    t_0 = np.zeros((n + 1, n + 1), dtype=np.complex128)
    t_0[:n, n] = -w / sigma
    t_0[n, n] = 1.0 / sigma
    p_reg = np.zeros((n + 1, n + 1), dtype=np.complex128)
    p_reg[:n, n] = -w
    p_reg[n, n] = 1.0
    v = np.concatenate([-w, [1.0]])

    def resolvent(z: complex) -> Array:
        zeta = complex(z) - 1.0
        core = np.linalg.inv(zeta * np.eye(n) - u)
        out = np.zeros((n + 1, n + 1), dtype=np.complex128)
        out[:n, :n] = core
        out[:n, n] = (core @ lam) / (zeta + sigma)
        out[n, n] = 1.0 / (zeta + sigma)
        return out

    def t_neg(k: int) -> Array:
        out = np.zeros((n + 1, n + 1), dtype=np.complex128)
        upow = np.linalg.matrix_power(u, k - 1)
        out[:n, :n] = upow
        out[:n, n] = upow @ w
        return out

    def t_pos(ell: int) -> Array:
        out = np.zeros((n + 1, n + 1), dtype=np.complex128)
        s = (-1.0) ** ell / sigma ** (ell + 1)
        out[:n, n] = -w * s
        out[n, n] = s
        return out

    return CorpusEntry(
        name="hierarchy",
        params={"base": base, "n": n},
        pencil=LinearPencil(c0=c0, c1=c1),
        basic=BasicSolution(t_minus_one=t_m1, t_zero=t_0),
        expected={
            "domain_sin": t_m1.copy(),
            "range_reg": p_reg,
            "range_reg_rank": 1,
            "pole_order": n,
            "eigenpair": (v, sigma),
            "annulus": (0.0, sigma),
            "default_radius": sigma / 2.0,
            "resolvent": resolvent,
            "t_neg": t_neg,
            "t_pos": t_pos,
            "regular_chain_rate": 1.0 / sigma,
        },
    )


MAKERS: dict[str, Callable[..., CorpusEntry]] = {
    "matrix": make_matrix_example,
    "c0": make_c0_example,
    "volterra": make_volterra_example,
    "hierarchy": make_hierarchy_example,
}


def make(name: str, **params) -> CorpusEntry:
    """Build a corpus entry by name.

    InputError for a name outside the maker's signature or a float that is
    not finite, before the maker does any arithmetic; each maker checks its
    integer parameters and ranges itself.
    """
    if name not in MAKERS:
        raise InputError(f"unknown corpus entry {name!r}; have {sorted(MAKERS)}")
    maker = MAKERS[name]
    known = inspect.signature(maker).parameters
    for key, value in params.items():
        if key not in known:
            raise InputError(f"{name} has no parameter {key!r}; have {sorted(known)}")
        if isinstance(value, float) and not isfinite(value):
            raise InputError(f"{name} parameter {key} must be finite, got {value!r}")
    return maker(**params)
