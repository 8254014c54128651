"""Output checks of the pipeline benchmark, computed apart from the program.

Each check returns a list of problems; an empty list means the output
passed.  Reference values come from ``inputs`` (closed forms, an own
trapezoid quadrature, an own plain recursion); nothing here imports
``gjrep``.
"""

from __future__ import annotations

import numpy as np

from inputs import C0Model, DeckMember, decode, drive

TOL_LAURENT = 1e-8  # relative Frobenius error of T_{-1}, T_0
TOL_ANGLE = 1e-6  # largest principal angle of a computed basis, radians
TOL_CHAIN = 1e-8  # chain vectors, relative to the largest of both norms and the seed norm
TOL_PATH = 1e-9  # xhat against the own recursion, normwise relative
TOL_COMPONENT = 1e-7  # each component against its closed form, relative to its own norm
TOL_SPLIT = 1e-9  # projection leakage, relative to the path's norm
TOL_SAME = 1e-12  # trend shared by all four forms
TOL_HALF = 1e-9  # regular halves of the four forms

COMPONENTS = ("stochastic_trend", "stationary", "det_sin", "det_reg", "k_term")


def _rel(err: float, scale: float) -> float:
    return err / scale if scale > 0 else err


def _relerr(a: np.ndarray, b: np.ndarray) -> float:
    return _rel(float(np.linalg.norm(a - b)), float(np.linalg.norm(b)))


def sin_angle(basis: np.ndarray, span: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal column spans."""
    if basis.shape[1] != span.shape[1]:
        return 1.0
    if basis.shape[1] == 0:
        return 0.0
    resid = basis - span @ (span.conj().T @ basis)
    return float(np.linalg.norm(resid, 2))


def polynomial_basic(member: DeckMember, nodes: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """``(T_{-1}, T_0)`` of a polynomial member by an own trapezoid rule.

    ``T_j = (1/m) sum_k P(w_k)^{-1} w_k^{-j}`` on ``|w| = quad_radius``; the
    error is of order ``2^-nodes`` since every other root lies at twice the
    radius or further.
    """
    p0, p1, p2 = member.coeffs
    acc_m1 = np.zeros_like(p0)
    acc_0 = np.zeros_like(p0)
    for k in range(nodes):
        w = member.quad_radius * np.exp(2j * np.pi * k / nodes)
        r = np.linalg.inv(p0 + w * p1 + w * w * p2)
        acc_m1 += r * w
        acc_0 += r
    return acc_m1 / nodes, acc_0 / nodes


def deck_report(member: DeckMember, report: dict) -> list[str]:
    """Check one ``gjrep analyze`` report against the member's construction."""
    problems = []
    laurent = report["laurent"]
    if member.linear:
        t_m1, t_0 = decode(laurent["-1"]), decode(laurent["0"])
    else:
        # augmented block (a, b) of T_J holds T_{2J + a - b}
        n = member.dim
        aug = decode(laurent["0"])
        t_m1, t_0 = aug[:n, n:], aug[:n, :n]
        if member.t_zero is None:  # the quadrature runs once per process
            member.t_minus_one, member.t_zero = polynomial_basic(member)
    ref_m1, ref_0 = member.t_minus_one, member.t_zero
    scale = max(1.0, float(np.linalg.norm(ref_m1)), float(np.linalg.norm(ref_0)))
    for label, got, ref in (("T_{-1}", t_m1, ref_m1), ("T_0", t_0, ref_0)):
        err = float(np.linalg.norm(got - ref)) / scale
        if not err <= TOL_LAURENT:
            problems.append(f"{label} off its closed form by {err:.2e} (relative)")
    sing = report["singularity"]
    if sing["kind"] != member.kind or sing["order"] != member.order:
        problems.append(
            f"singularity {sing['kind']}({sing['order']}), built as {member.kind}({member.order})"
        )
    trace = float(np.trace(decode(report["projections"]["domain_sin"])).real)
    if not abs(trace - member.rank) <= 1e-6:
        problems.append(f"trace of domain_sin {trace:.9f}, built with rank {member.rank}")
    if report["projections"]["domain_sin_rank"] != member.rank:
        problems.append(f"domain_sin_rank {report['projections']['domain_sin_rank']} != {member.rank}")
    return problems


def deck_chains(member: DeckMember, chains: dict) -> list[str]:
    """Bases and chains against the closed-form subspaces and recurrences.

    A singular chain steps by ``x -> -T_{-1} C_0 x`` and a regular chain by
    ``x -> -T_0 C_1 x`` inside their subspaces.
    """
    problems = []
    for label, basis, span in (
        ("sin_basis", chains["sin_basis"], member.sin_span),
        ("reg_basis", chains["reg_basis"], member.reg_span),
    ):
        s = sin_angle(basis, span)
        if not s <= np.sin(TOL_ANGLE):
            problems.append(f"{label} {basis.shape[1]} columns, {span.shape[1]} built, sin angle {s:.2e}")
    steps = {
        "singular_chain": -(member.t_minus_one @ member.c0),
        "regular_chain": -(member.t_zero @ member.c1),
    }
    for label, step in steps.items():
        chain = chains.get(label)
        if chain is None:
            continue
        expect = seed = chain.vectors[0]
        for k, got in enumerate(chain.vectors):
            # a terminating chain ends near zero, so the seed norm is the floor
            scale = max(np.linalg.norm(got), np.linalg.norm(expect), np.linalg.norm(seed))
            err = float(np.linalg.norm(got - expect)) / scale
            if not err <= TOL_CHAIN:
                problems.append(f"{label} vector {k} off the recurrence by {err:.2e}")
                break
            expect = step @ expect
    sin_chain = chains.get("singular_chain")
    if sin_chain is not None and not sin_chain.terminated:
        problems.append("singular chain of a nilpotent step did not terminate")
    return problems


class PathReference:
    """Own path and closed-form components of the ``c0`` model up to ``t_end``.

    The model is block diagonal: a 2x2 Jordan block ``J`` at the unit root
    (``x = J x(t-1) + g``) and scalar AR(1) coordinates with the ``rates``.
    Hence ``trend = sum_s J^s g(t-s)``, ``det_sin = J^{t+1} c``,
    ``det_reg = rate^{t+1} c`` and the stationary part is the AR filter of
    the drive, with the ``_s`` forms filtering the presample too and
    subtracting its propagated part in ``k_term``.
    """

    def __init__(self, model: C0Model, t_end: int):
        self.model = model
        self.t_end = t_end
        g = drive(model, t_end)
        p = model.presample
        gc = g[p:]
        step = -np.linalg.solve(model.a0, model.a1)
        forcing = np.linalg.solve(model.a0, gc.T).T
        x = np.empty((t_end + 1, model.dim), dtype=np.complex128)
        prev = model.c.copy()
        for t in range(t_end + 1):
            prev = step @ prev + forcing[t]
            x[t] = prev
        self.x = x
        self.norm = float(np.linalg.norm(x))
        n, c, rates = model.dim, model.c, model.rates
        tt = np.arange(t_end + 1)[:, None]
        trend = np.zeros_like(x)
        cum1 = np.cumsum(gc[:, 1])
        trend[:, 0] = np.cumsum(gc[:, 0]) + np.cumsum(cum1) - cum1
        trend[:, 1] = cum1
        det_sin = np.zeros_like(x)
        det_sin[:, 0] = c[0] + (tt[:, 0] + 1) * c[1]
        det_sin[:, 1] = c[1]
        det_reg = np.zeros_like(x)
        det_reg[:, 2:] = rates ** (tt + 1) * c[2:]
        # the regular coordinates of the recursion are AR(1) filters of the
        # drive started from c: their stationary part is what det_reg leaves
        stat_ns = x - det_reg
        stat_ns[:, :2] = 0.0
        history = np.zeros(n, dtype=np.complex128)
        for j in range(2, n):
            history[j] = np.dot(rates[j - 2] ** np.arange(p), g[p - 1 :: -1, j])
        k_s = np.zeros_like(x)
        k_s[:, 2:] = -(rates ** (tt + 1)) * history[2:]
        stat_s = stat_ns - k_s
        zero = np.zeros_like(x)
        shared = {"stochastic_trend": trend, "det_sin": det_sin, "det_reg": det_reg}
        self.components = {
            "ns": dict(shared, stationary=stat_ns, k_term=zero),
            "s": dict(shared, stationary=stat_s, k_term=k_s),
        }
        self.p_sin = np.zeros(n)
        self.p_sin[:2] = 1.0  # P = T_{-1} C_1 in closed form: the Jordan coordinates


def halves(components: dict) -> tuple[np.ndarray, np.ndarray]:
    singular = components["stochastic_trend"] + components["det_sin"]
    regular = components["stationary"] + components["det_reg"] + components["k_term"]
    return singular, regular


def path_report(ref: PathReference, report, previous=None) -> list[str]:
    """Check one representation report; ``previous`` is another form's report
    on the same path, whose trend and regular half this one must share."""
    problems = []
    if not report.passed:
        problems.append(f"report.passed is False (residual_max {report.residual_max:.3e})")
    err = _relerr(np.asarray(report.xhat), ref.x)
    if not err <= TOL_PATH:
        problems.append(f"xhat off the own recursion by {err:.2e} (normwise relative)")
    expected = ref.components["s" if report.form.endswith("_s") else "ns"]
    comps = report.components
    for name in COMPONENTS:
        want = expected[name]
        scale = float(np.linalg.norm(want)) or ref.norm
        err = _rel(float(np.linalg.norm(comps[name] - want)), scale)
        if not err <= TOL_COMPONENT:
            problems.append(f"{name} off its closed form by {err:.2e} (relative)")
    singular, regular = halves(comps)
    leak_sin = float(np.linalg.norm(singular * (1.0 - ref.p_sin)))
    leak_reg = float(np.linalg.norm(regular * ref.p_sin))
    for label, leak in (("P^c(trend + det_sin)", leak_sin), ("P(regular half)", leak_reg)):
        if not leak <= TOL_SPLIT * ref.norm:
            problems.append(f"{label} = {leak / ref.norm:.2e} of the path norm")
    if previous is not None:
        base_sin, base_reg = halves(previous.components)
        trend, base_trend = comps["stochastic_trend"], previous.components["stochastic_trend"]
        diff = float(np.abs(trend - base_trend).max())
        if not diff <= TOL_SAME * float(np.abs(base_trend).max()):
            problems.append(f"trend differs from {previous.form} by {diff:.2e}")
        err = _relerr(regular, base_reg)
        if not err <= TOL_HALF:
            problems.append(f"regular half differs from {previous.form} by {err:.2e} (relative)")
    return problems


def probe_report(report, expected: str) -> list[str]:
    if report.majority != expected:
        return [f"probe majority {report.majority} {report.counts}, expected {expected}"]
    return []
