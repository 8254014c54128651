"""ARMA(1,1) state equations, driving noise, and the plain recursion oracle.

The state equation is ``A_0 x(t) + A_1 x(t-1) = g(t)`` with the MA(1) drive
``g(t) = F_0 n(t) + F_1 n(t-1)`` and initial state ``x(-1) = c``.  Its pencil
in anchored form is ``C_0 = A_0 + A_1``, ``C_1 = A_1``, which places the unit
root of the difference equation at the pencil anchor.
Every array takes the result type of its inputs, whose dtype ``as_matrix``
and ``as_vector`` set, so a real model's paths are float64.  The noise kind
is read in one place: ``NoiseSpec`` checks its parameters on construction,
and ``simulate_noise`` only runs the draw that check returns.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import InputError
from .pencil import Array, LinearPencil, _checked_integer, _checked_solve, as_matrix, as_vector


@dataclass(frozen=True)
class ArmaModel:
    """Coefficients of the state equation plus the initial state."""

    a0: Array
    a1: Array
    f0: Array
    f1: Array
    c: Array

    def __post_init__(self):
        object.__setattr__(self, "a0", as_matrix(self.a0, "a0"))
        object.__setattr__(self, "a1", as_matrix(self.a1, "a1"))
        object.__setattr__(self, "f0", as_matrix(self.f0, "f0"))
        object.__setattr__(self, "f1", as_matrix(self.f1, "f1"))
        object.__setattr__(self, "c", as_vector(self.c, name="c"))
        n = self.a0.shape[0]
        for name in ("a1", "f0", "f1"):
            if getattr(self, name).shape[0] != n:
                raise InputError(f"{name} must be {n}x{n}")
        if self.c.shape[0] != n:
            raise InputError(f"c must have length {n}")

    @property
    def dim(self) -> int:
        return self.a0.shape[0]

    @cached_property
    def pencil(self) -> LinearPencil:
        """The anchored pencil ``(A_0 + A_1, A_1)``, built once per model, so
        its cached offsets and norms serve every caller."""
        return LinearPencil(c0=self.a0 + self.a1, c1=self.a1)

    @cached_property
    def a0_inv(self) -> Array:
        """``A_0^{-1}``, read-only and solved once per model: the one factorisation
        of ``A_0`` that the oracle, the extended forms and the order probe read."""
        inv = _checked_solve(self.a0, np.eye(self.dim), "contemporaneous coefficient A_0")
        inv.flags.writeable = False
        return inv


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded description of the driving noise.

    kinds:
      * ``gaussian``: params ``sigma`` (scalar or per-coordinate list, default 1)
      * ``bernoulli_scaled``: params ``p`` (probability of drawing 0),
        ``eps`` (scale), ``centered`` (default True; subtracts the mean so
        the values are ``eps*(w - (1-p))`` for ``w in {0, 1}``)
      * ``table``: params ``values`` and ``probs`` for an arbitrary finite
        scalar distribution applied per coordinate
    ``burn_in`` is the presample depth: the simulated path starts at
    ``t = -burn_in - 1`` so that the MA(1) drive exists from ``-burn_in``.
    A seed or burn-in that is not a non-negative integer, an unknown kind,
    or missing or non-numeric params raise ``InputError`` at construction.
    """

    kind: str
    dim: int
    seed: int
    burn_in: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("seed", "burn_in"):
            _checked_integer(getattr(self, name), f"noise {name}", 0)
        if not isinstance(self.params, dict):
            raise InputError(f"noise params must be a mapping, got {type(self.params).__name__}")
        _noise_law(self)


def _noise_law(spec: NoiseSpec) -> Callable[[np.random.Generator, tuple], Array]:
    """The draw ``(rng, shape) -> values`` of ``spec.kind`` from its checked
    parameters: the one place that reads the kind."""
    params = spec.params
    try:
        if spec.kind == "gaussian":
            sigma = np.asarray(params.get("sigma", 1.0), dtype=float)
            if sigma.ndim > 1 or sigma.size not in (1, spec.dim):
                raise InputError(f"sigma must be a scalar or {spec.dim} values, not {sigma.shape}")
            if not np.isfinite(sigma).all():
                raise InputError(f"sigma must be finite, got {sigma}")
            return lambda rng, shape: rng.standard_normal(shape) * sigma
        if spec.kind == "bernoulli_scaled":
            p = float(params.get("p", 0.5))
            if not 0.0 <= p <= 1.0:
                raise InputError(f"p must be a probability, got {p}")
            eps = float(params.get("eps", 1.0))
            if not np.isfinite(eps):
                raise InputError(f"eps must be finite, got {eps}")
            centered = bool(params.get("centered", True))

            def bernoulli(rng, shape):
                w = (rng.random(shape) >= p).astype(float)  # P[w = 0] = p
                return eps * (w - (1.0 - p)) if centered else eps * w

            return bernoulli
        if spec.kind == "table":
            values = as_vector(params["values"], name="table values")
            probs = np.asarray(params["probs"], dtype=float).reshape(-1)
            off = abs(probs.sum() - 1.0)  # Generator.choice allows sqrt(eps) = 2**-26
            if values.shape != probs.shape or (probs < 0).any() or not off <= 2**-26:
                raise InputError("table noise needs matching values/probs, probs >= 0 summing to 1")
            return lambda rng, shape: values[rng.choice(values.shape[0], size=shape, p=probs)]
    except KeyError as exc:
        raise InputError(f"{spec.kind} noise needs params[{exc}]") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{spec.kind} noise params: {exc}") from None
    raise InputError(f"unknown noise kind {spec.kind!r}")


@dataclass(frozen=True)
class Trajectory:
    """A finite stretch of a discrete-time path, float64 or complex128."""

    start: int
    values: Array  # shape (length, dim)

    def __post_init__(self):
        v = np.asarray(self.values)
        v = v.astype(np.result_type(v, np.float64), copy=False)
        if v.ndim != 2:
            raise InputError(f"trajectory values must be 2-D, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    @property
    def end(self) -> int:
        return self.start + self.values.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def at(self, t: int) -> Array:
        if not self.start <= t <= self.end:
            raise InputError(f"time {t} outside trajectory [{self.start}, {self.end}]")
        return self.values[t - self.start]

    def window(self, t_lo: int, t_hi: int) -> Array:
        """Values for t_lo..t_hi inclusive."""
        if not (self.start <= t_lo and t_hi <= self.end and t_lo <= t_hi):
            raise InputError(
                f"window [{t_lo}, {t_hi}] outside trajectory [{self.start}, {self.end}]"
            )
        i = t_lo - self.start
        return self.values[i : i + (t_hi - t_lo + 1)]


def simulate_noise(spec: NoiseSpec, t_end: int) -> Trajectory:
    """Simulate the noise path on ``[-burn_in - 1, t_end]``.

    Identical spec (kind, params, seed, burn_in) and horizon give a
    bit-identical path.
    """
    draw = _noise_law(spec)
    start = -spec.burn_in - 1
    length = t_end - start + 1
    if length <= 0:
        raise InputError(f"empty noise horizon: t_end={t_end}, start={start}")
    vals = draw(np.random.default_rng(spec.seed), (length, spec.dim))
    return Trajectory(start=start, values=vals)


def ma1_g(model: ArmaModel, noise: Trajectory) -> Trajectory:
    """Drive path ``g(t) = F_0 n(t) + F_1 n(t-1)`` on ``[noise.start + 1, noise.end]``."""
    if noise.dim != model.dim:
        raise InputError(f"noise dim {noise.dim} != model dim {model.dim}")
    if noise.values.shape[0] < 2:
        raise InputError("need at least two noise samples for an MA(1) drive")
    cur = noise.values[1:]
    prev = noise.values[:-1]
    vals = cur @ model.f0.T + prev @ model.f1.T
    return Trajectory(start=noise.start + 1, values=vals)


def simulate_recursion(model: ArmaModel, g: Trajectory, t_end: int) -> Trajectory:
    """Reference path: iterate ``x(t) = A_0^{-1} (g(t) - A_1 x(t-1))`` from ``x(-1) = c``.

    This is the ground truth every representation is checked against.
    """
    if g.start > 0 or g.end < t_end:
        raise InputError(f"drive must cover [0, {t_end}], has [{g.start}, {g.end}]")
    step = -(model.a0_inv @ model.a1)
    drive = g.window(0, t_end) @ model.a0_inv.T
    path = kernels.arma_recursion(step, drive[:, :, None], model.c[:, None])
    return Trajectory(start=0, values=path[:, :, 0])
