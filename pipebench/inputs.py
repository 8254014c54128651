"""Seeded inputs of the pipeline benchmark and their closed forms.

Everything here is plain numpy written against the definitions, sharing no
code with ``gjrep``: the benchmark checks the program's outputs against the
quantities computed in this module.

Pencil deck (workload ``pencil-deck``), all ``A(w) = C0 + w C1`` with
``w = z - 1``:

* ``sim<n>``: ``C0 = Q blockdiag(N, M) Q^H``, ``C1 = I``, with ``N`` a
  nilpotent Jordan matrix of order 2 (blocks listed in ``SIM_SHAPES``),
  ``M = diag(mu)`` with ``|mu|`` in [1, 3] and seeded phases, and ``Q`` a
  seeded unitary.  ``T_{-1} = Q blockdiag(I_d, 0) Q^H`` and
  ``T_0 = Q blockdiag(0, M^{-1}) Q^H``.
* ``cascade8``: the aggregation hierarchy with 8 levels (rates
  ``0.4 * 2^-k``) feeding one relaxing aggregate; a pole of order 8.
* ``volterra<n>``: ``C0 = V`` (strictly lower, entries ``1/n``),
  ``C1 = -(I - V)``; ``T_{-1} = -(I - V)^{-1}``, ``T_0 = 0``, essential at
  truncation with collapse index ``n``.
* ``poly<n>``: degree-2 pencils ``P(w) = Q D(w) Z^H`` with diagonal
  ``D(w) = lead (w - r1)(w - r2)``, where ``r1 = 0`` on the first ``d``
  entries (simple poles) and every other root has modulus in [1, 2.5].

Paths (workload ``paths-mid``): the ``c0`` model with
``lam = 0.25``, ``n = 10``: ``A0 = I``,
``A1 = -blockdiag([[1, 1], [0, 1]], diag(lam^1 .. lam^8))``, MA(1) drive
``F0 = I``, ``F1 = 0.5 I``, seeded initial state ``c``, and gaussian noise
with ``burn_in = PRESAMPLE``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIM_SHAPES = ((16, (2,)), (40, (2, 1)), (64, (2, 1, 1)), (96, (2,)))
CASCADE_LEVELS = 8
CASCADE_BASE = 0.4
VOLTERRA_SIZES = (64, 128)
POLY_SHAPES = ((12, 2), (24, 3))  # (base dimension, number of zero roots)

C0_LAM = 0.25
C0_DIM = 10
PRESAMPLE = 200


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex gaussian matrix."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def encode(a: np.ndarray) -> list:
    """Nested lists with complex entries as ``[re, im]`` (the pencil file format)."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def decode(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


@dataclass
class DeckMember:
    """One pencil file plus everything the checks need to judge its report."""

    name: str
    kind: str  # expected singularity kind
    order: int  # expected pole order / collapse index
    rank: int  # dimension of the singular subspace (trace of domain_sin)
    c0: np.ndarray | None = None  # linear members only
    c1: np.ndarray | None = None
    t_minus_one: np.ndarray | None = None  # closed forms; own quadrature for polynomials
    t_zero: np.ndarray | None = None
    sin_span: np.ndarray | None = None  # orthonormal basis of the singular subspace
    reg_span: np.ndarray | None = None
    coeffs: tuple = ()  # polynomial members: (P0, P1, P2)
    quad_radius: float = 0.0  # polynomial members: radius for the own quadrature

    @property
    def linear(self) -> bool:
        return self.c0 is not None

    @property
    def dim(self) -> int:
        return self.c0.shape[0] if self.linear else self.coeffs[0].shape[0]


def _linear(name, c0, c1, kind, order, rank, t_m1, t_0, sin_span, reg_span):
    return DeckMember(
        name=name,
        kind=kind,
        order=order,
        rank=rank,
        c0=c0,
        c1=c1,
        t_minus_one=t_m1,
        t_zero=t_0,
        sin_span=sin_span,
        reg_span=reg_span,
    )


def similarity_member(rng: np.random.Generator, n: int, blocks: tuple[int, ...]) -> DeckMember:
    d = sum(blocks)
    core = np.zeros((n, n), dtype=np.complex128)
    i = 0
    for b in blocks:
        for k in range(b - 1):
            core[i + k, i + k + 1] = 1.0
        i += b
    mu = rng.uniform(1.0, 3.0, n - d) * np.exp(2j * np.pi * rng.random(n - d))
    core[range(d, n), range(d, n)] = mu
    q = unitary(rng, n)
    qh = q.conj().T
    e_sin = np.zeros((n, n))
    e_sin[range(d), range(d)] = 1.0
    m_inv = np.zeros((n, n), dtype=np.complex128)
    m_inv[range(d, n), range(d, n)] = 1.0 / mu
    return _linear(
        f"sim{n}",
        q @ core @ qh,
        np.eye(n, dtype=np.complex128),
        "pole",
        max(blocks),
        d,
        q @ e_sin @ qh,
        q @ m_inv @ qh,
        q[:, :d],
        q[:, d:],
    )


def cascade_member(levels: int = CASCADE_LEVELS, base: float = CASCADE_BASE) -> DeckMember:
    n = levels
    lam = base * 2.0 ** -np.arange(1, n + 1)
    sigma = lam.sum()
    c0 = np.zeros((n + 1, n + 1), dtype=np.complex128)
    for i in range(n - 1):
        c0[i, i + 1] = -lam[i + 1]
    c0[:n, n] = -lam
    c0[n, n] = sigma
    # right eigenvector of sigma with last entry 1; the left one is e_n
    v = np.ones(n + 1, dtype=np.complex128)
    v[:n] = np.linalg.solve(c0[:n, :n] - sigma * np.eye(n), -c0[:n, n])
    p_reg = np.outer(v, np.eye(n + 1)[n])
    sin_span = np.eye(n + 1)[:, :n]
    return _linear(
        f"cascade{levels}",
        c0,
        np.eye(n + 1, dtype=np.complex128),
        "pole",
        n,
        n,
        np.eye(n + 1) - p_reg,
        p_reg / sigma,
        sin_span,
        (v / np.linalg.norm(v))[:, None],
    )


def volterra_member(n: int) -> DeckMember:
    v = np.tril(np.full((n, n), 1.0 / n), -1).astype(np.complex128)
    eye = np.eye(n, dtype=np.complex128)
    return _linear(
        f"volterra{n}",
        v,
        -(eye - v),
        "essential_at_truncation",
        n,
        n,
        -np.linalg.inv(eye - v),
        np.zeros((n, n), dtype=np.complex128),
        eye,
        np.zeros((n, 0), dtype=np.complex128),
    )


def polynomial_member(rng: np.random.Generator, n: int, d: int) -> DeckMember:
    q = unitary(rng, n)
    z = unitary(rng, n)
    r1 = rng.uniform(1.0, 2.5, n) * np.exp(2j * np.pi * rng.random(n))
    r2 = rng.uniform(1.0, 2.5, n) * np.exp(2j * np.pi * rng.random(n))
    r1[:d] = 0.0
    lead = rng.uniform(0.5, 2.0, n) * np.exp(2j * np.pi * rng.random(n))
    diagonals = (lead * r1 * r2, -lead * (r1 + r2), lead)
    coeffs = tuple(q @ np.diag(x) @ z.conj().T for x in diagonals)
    nonzero = np.abs(np.concatenate([r1[d:], r2]))
    return DeckMember(
        name=f"poly{n}",
        kind="pole",
        order=1,  # of the augmented pencil: ceil(1 / degree)
        rank=d,
        coeffs=coeffs,
        quad_radius=0.5 * float(nonzero.min()),
    )


def build_deck(seed: int) -> list[DeckMember]:
    """The deck in running order; the first member doubles as the warm-up."""
    rng = np.random.default_rng(seed)
    deck = [similarity_member(rng, n, blocks) for n, blocks in SIM_SHAPES]
    deck.append(cascade_member())
    deck.extend(volterra_member(n) for n in VOLTERRA_SIZES)
    deck.extend(polynomial_member(rng, n, d) for n, d in POLY_SHAPES)
    return deck


def chain_seeds(member: DeckMember, seed: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Chain seeds in the singular and (if any) regular subspace, from the closed forms."""
    rng = np.random.default_rng([seed, member.dim])
    x = rng.standard_normal(member.dim) + 1j * rng.standard_normal(member.dim)
    sin_seed = member.t_minus_one @ member.c1 @ x
    reg_seed = member.t_zero @ member.c0 @ x if member.reg_span.shape[1] else None
    return sin_seed, reg_seed


def pencil_document(member: DeckMember) -> dict:
    """The pencil file contents: ``{"kind", "n", "c0", "c1"}`` or ``{"kind", "n", "degree", "coeffs"}``."""
    if member.linear:
        return {"kind": "linear", "n": member.dim, "c0": encode(member.c0), "c1": encode(member.c1)}
    return {"kind": "polynomial", "n": member.dim, "degree": 2, "coeffs": [encode(c) for c in member.coeffs]}


def write_deck(deck: list[DeckMember], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for member in deck:
        path = directory / f"{member.name}.pencil.json"
        path.write_text(json.dumps(pencil_document(member)), encoding="utf-8")
        paths[member.name] = path
    return paths


@dataclass(frozen=True)
class C0Model:
    """The ``c0`` ARMA(1, 1) model as plain arrays, plus its noise convention."""

    a0: np.ndarray
    a1: np.ndarray
    f0: np.ndarray
    f1: np.ndarray
    c: np.ndarray
    rates: np.ndarray  # AR parameters of the regular coordinates 2..n-1
    seed: int
    presample: int

    @property
    def dim(self) -> int:
        return self.a0.shape[0]


def c0_model(seed: int, lam: float = C0_LAM, n: int = C0_DIM, presample: int = PRESAMPLE) -> C0Model:
    rates = lam ** np.arange(1, n - 1)
    a1 = np.zeros((n, n), dtype=np.complex128)
    a1[:2, :2] = -np.array([[1.0, 1.0], [0.0, 1.0]])
    a1[range(2, n), range(2, n)] = -rates
    c = np.random.default_rng(seed).standard_normal(n).astype(np.complex128)
    return C0Model(
        a0=np.eye(n, dtype=np.complex128),
        a1=a1,
        f0=np.eye(n, dtype=np.complex128),
        f1=0.5 * np.eye(n, dtype=np.complex128),
        c=c,
        rates=rates,
        seed=seed,
        presample=presample,
    )


def drive(model: C0Model, t_end: int) -> np.ndarray:
    """MA(1) drive ``g`` on ``[-presample, t_end]`` (row ``i`` is time ``i - presample``).

    Noise convention of the program's gaussian kind: one
    ``default_rng(seed).standard_normal((length, n))`` draw covering
    ``[-presample - 1, t_end]``.
    """
    length = t_end + model.presample + 2
    noise = np.random.default_rng(model.seed).standard_normal((length, model.dim))
    return noise[1:] @ model.f0.T + noise[:-1] @ model.f1.T
