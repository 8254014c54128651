"""Command-line front end.

Three commands: ``analyze`` runs the full pencil pipeline on a pencil
JSON file, ``represent`` decomposes a simulated model path, ``demo``
replays a bundled worked example against its closed forms.  All reports
are deterministic for a fixed config and seed.

Exit codes: 0 all good, 2 a verification check failed, 3 bad input,
4 numeric failure (singular solve, divergent series, no convergence).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from collections.abc import Callable
from typing import TextIO

import numpy as np

from . import io as gio
from .arma import NoiseSpec
from .augment import PolynomialPencil, augment, unpack_laurent
from .corpus import MAKERS, make
from .errors import GjrepError, InputError, NumericError, VerificationError
from .pencil import (
    TOL_FUND,
    _screened,
    annulus_estimate,
    basic_residuals,
    basic_solution,
    classify_singularity,
    closed_form_resolvent,
    default_radius,
    laurent_range,
    projections,
    solve_at,
    spectral_norm,
)
from .represent import FORMS, TOL_REP, represent


def _as_written(a) -> np.ndarray:
    """A report matrix as complex128: a real pencil's float64 blocks are
    written as [re, im] pairs too, with every imaginary part 0.0."""
    return np.asarray(a, dtype=np.complex128)


def _write_out(write: Callable[[TextIO], None], out: str | None) -> None:
    """Stream a report: ``write`` encodes it into stdout, or into the file
    ``out``, opened only now that the work is done."""
    if out is None:
        write(sys.stdout)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None


def cmd_analyze(args) -> int:
    obj = _load_json(args.pencil)
    loaded = gio.load_pencil(obj)
    poly = loaded if isinstance(loaded, PolynomialPencil) else None
    pencil = loaded if poly is None else augment(poly)
    auto_radius = default_radius(pencil)
    radius = args.radius if args.radius is not None else auto_radius
    basic = basic_solution(pencil, radius=radius)
    domain_sin = basic.t_minus_one @ pencil.c1
    # trace(C_1 T_{-1}) = trace(T_{-1} C_1): P and Q share their rank
    rank = int(round(np.trace(domain_sin).real))
    sclass = classify_singularity(basic, pencil)
    s_hat, r_hat = annulus_estimate(basic, pencil, sclass)
    probe_z = 1.0 + radius * 0.5
    resolvent = solve_at(pencil, probe_z)
    closed_err = spectral_norm(closed_form_resolvent(basic, pencil, probe_z) - resolvent)
    report = {
        "dim": pencil.dim,
        "radius": radius,
        "default_radius": auto_radius,
        "basic_residuals": basic_residuals(basic, pencil),
        # the pair (T_{-1}, T_0) fixes every other block and its norm, and
        # Q = C_1 T_{-1}: laurent_range and one product rebuild them, so the
        # report keeps only the pair and its own exact norms
        "laurent": {"-1": _as_written(basic.t_minus_one), "0": _as_written(basic.t_zero)},
        "laurent_norms": dict(zip(("-1", "0"), basic.norms)),
        "projections": {
            "domain_sin": _as_written(domain_sin),
            "domain_sin_rank": rank,
            "range_sin_rank": rank,
        },
        "singularity": {"kind": sclass.kind, "order": sclass.order},
        "annulus": {"inner": s_hat, "outer": r_hat},
        "closed_form_error": closed_err,
    }
    # basic_solution has held the unit defects and the cross products
    # T_{-1} C_i T_0, T_0 C_i T_{-1} to its relative rule, and every
    # fundamental residual of any window and every separation block
    # (Q C_i P^c = C_1 (T_{-1} C_i T_0) C_0) is a sum of those.  The one
    # route that shares no code with the contour is the closed form against
    # a direct solve, so that is the verdict, relative to ||R(z)||
    ok = _screened(lambda r: closed_err <= TOL_FUND * r, helpful=(resolvent,))
    if poly is not None:
        # block (a, b) of the augmented identity at J is the polynomial one
        # at J p + a - b, so the pair's identities are the polynomial's up to
        # the spread of the block copies it holds; those copies are rounded
        # copies of one another, held to the pair's own exact norms
        _, disagreement = unpack_laurent(poly, {-1: basic.t_minus_one, 0: basic.t_zero})
        report["polynomial"] = {
            "degree": poly.degree,
            "base_dim": poly.dim,
            "unpack_disagreement": disagreement,
        }
        ok = ok and disagreement <= TOL_FUND * max(basic.norms)
    _write_out(functools.partial(gio._write_report, report), args.out)
    if not ok:
        raise VerificationError("analysis checks failed; see report")
    return 0


def cmd_represent(args) -> int:
    obj = _load_json(args.model)
    model, spec = gio.load_model(obj)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    if args.burn_in is not None:
        spec = dataclasses.replace(spec, burn_in=args.burn_in)
    basic = basic_solution(model.pencil, radius=args.radius)
    report = represent(args.form, model, spec, args.T, basic=basic)
    summary = {
        "form": report.form,
        "t_end": report.t_end,
        "seed": spec.seed,
        "burn_in": spec.burn_in,
        "residual_max": report.residual_max,
        "residual_mean": report.residual_mean,
        "passed": report.passed,
        "annulus": {"inner": report.s_hat, "outer": report.r_hat},
        "singularity": {
            "kind": report.singularity.kind,
            "order": report.singularity.order,
        },
        "tol_rep": TOL_REP,
    }
    if args.format == "csv":
        tables = dict(report.components)
        tables["xhat"] = report.xhat
        tables["oracle"] = report.oracle
        _write_out(functools.partial(gio._write_components, tables, 0), args.out)
    else:
        _write_out(functools.partial(gio._write_report, summary), args.out)
    if args.out is not None:
        sys.stdout.write(
            f"residual_max={report.residual_max:.6e} passed={report.passed}\n"
        )
    if not report.passed:
        raise VerificationError(
            f"reconstruction residual {report.residual_max:.3e} exceeds "
            f"tol_rep={TOL_REP:.1e}"
        )
    return 0


def _demo_checks(entry) -> list[dict]:
    pencil, basic, exp = entry.pencil, entry.basic, entry.expected
    checks: list[dict] = []

    def record(name: str, passed, **detail) -> None:
        """One check: ``{"check", "passed", *detail}``, in that order."""
        checks.append({"check": name, "passed": bool(passed), **detail})

    def near(name: str, observed, expected, tol: float) -> None:
        err = float(np.max(np.abs(np.asarray(observed) - np.asarray(expected))))
        record(name, err <= tol, error=err, tol=tol)

    near("basic_residuals", max(basic_residuals(basic, pencil).values()), 0.0, 1e-10)
    sclass = classify_singularity(basic, pencil)
    found = f"{sclass.kind}({sclass.order})"
    if "pole_order" in exp:
        want = f"pole({exp['pole_order']})"
        record("pole_order", found == want, observed=found, expected=want)
    if "collapse_index" in exp:
        want = f"essential_at_truncation({exp['collapse_index']})"
        record("collapse_index", found == want, observed=found, expected=want)
    if "default_radius" in exp:
        want = exp["default_radius"]
        near("default_radius", default_radius(pencil), want, 1e-9 * want)
    pair = projections(basic, pencil)
    if "domain_sin" in exp:
        near("domain_sin_projection", pair.domain_sin, exp["domain_sin"], 1e-10)
    if "range_sin" in exp:
        near("range_sin_projection", pair.range_sin, exp["range_sin"], 1e-10)
    if "range_reg" in exp:
        near("range_reg_projection", pair.range_reg, exp["range_reg"], 1e-10)
    if "range_reg_rank" in exp:
        rank, want = int(round(np.trace(pair.domain_reg).real)), exp["range_reg_rank"]
        record("reg_projection_rank", rank == want, observed=rank, expected=want)
    # coefficients on a thin annulus reach 1e8: these bounds scale with them
    table = laurent_range(basic, pencil, -3, 3)
    if "t_neg" in exp:
        want = np.stack([exp["t_neg"](k) for k in range(1, 4)])
        got = np.stack([table[-k] for k in range(1, 4)])
        near("principal_coefficients", got, want, 1e-9 * float(np.max(np.abs(want))))
    if "t_pos" in exp:
        want = np.stack([exp["t_pos"](ell) for ell in range(0, 4)])
        got = np.stack([table[ell] for ell in range(0, 4)])
        near("regular_coefficients", got, want, 1e-9 * float(np.max(np.abs(want))))
    if "resolvent" in exp:
        rho = default_radius(pencil)
        zs = [1.0 + rho, 1.0 + 1j * rho, 1.0 - 0.5 * rho, 1.0 + rho * (0.6 + 0.8j), 1.0 - 1j * rho]
        want = np.stack([exp["resolvent"](z) for z in zs])
        got = np.stack([solve_at(pencil, z) for z in zs])
        near("resolvent_law", got, want, 1e-9 * float(np.max(np.abs(want))))
    if "eigenpair" in exp:
        v, sig = exp["eigenpair"]
        near("aggregate_eigenpair", pencil.c0 @ v, sig * v, 1e-10)
    if "operator_norm" in exp:
        # the one check that reports both the values and the error
        norm, want = spectral_norm(pencil.c0), exp["operator_norm"]
        err, tol = abs(norm - want), 1e-12 * want
        record("operator_norm", err <= tol, observed=norm, expected=want, error=err, tol=tol)
    s_hat, r_hat = annulus_estimate(basic, pencil, sclass)

    def same_outer(outer: float) -> bool:
        # the outer radius is an exact offset of the spectrum, or inf
        return r_hat == outer if np.isinf(outer) else abs(r_hat - outer) <= 1e-9 * outer

    if "annulus" in exp:
        inner, outer = exp["annulus"]
        passed = s_hat <= inner + 0.1 * max(inner, 1e-6) and same_outer(outer)
        record("annulus_estimate", passed, observed=[s_hat, r_hat], expected=[inner, outer])
    if "annulus_outer" in exp:
        outer = exp["annulus_outer"]
        record("annulus_outer", same_outer(outer), observed=r_hat, expected=outer)
    return checks


def cmd_demo(args) -> int:
    params = {}
    for item in args.param:
        if "=" not in item:
            raise InputError(f"--param expects NAME=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            params[key] = int(raw)
        except ValueError:
            try:
                params[key] = float(raw)
            except ValueError:
                raise InputError(f"--param {key}: {raw!r} is not a number") from None
    entry = make(args.name, **params)
    checks = _demo_checks(entry)
    if args.format == "json":
        report = {"name": entry.name, "params": entry.params, "checks": checks}
        _write_out(functools.partial(gio._write_report, report), args.out)
    else:
        lines = []
        for ch in checks:
            status = "PASS" if ch["passed"] else "FAIL"
            detail = ", ".join(
                f"{k}={_fmt(v)}" for k, v in ch.items() if k not in ("check", "passed")
            )
            lines.append(f"{status} {entry.name}.{ch['check']}: {detail}")
        body = "\n".join(lines) + "\n"
        _write_out(lambda fh: fh.write(body), args.out)
    if not all(ch["passed"] for ch in checks):
        raise VerificationError(f"demo {entry.name}: some checks failed")
    return 0


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6e}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gjrep",
        description="Laurent analysis of singular pencils and unit-root ARMA representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats):
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=formats, default=formats[0])

    pa = sub.add_parser("analyze", help="Laurent/projection/classification report for a pencil")
    pa.add_argument("--pencil", required=True, help="pencil JSON file")
    pa.add_argument("--radius", type=float, default=None)
    pa.add_argument("--out", default=None, help="write the report here instead of stdout")
    pa.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("represent", help="decompose a simulated model path")
    pr.add_argument("--model", required=True, help="model JSON file")
    pr.add_argument("--form", required=True, choices=FORMS)
    pr.add_argument("--T", dest="T", type=int, default=100, help="horizon (last time index)")
    pr.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--radius", type=float, default=None)
    common(pr, ("json", "csv"))
    pr.set_defaults(func=cmd_represent)

    pd = sub.add_parser("demo", help="replay a bundled worked example")
    pd.add_argument("--name", required=True, choices=sorted(MAKERS))
    pd.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override an example parameter (repeatable)",
    )
    common(pd, ("text", "json"))
    pd.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the input-error code
        return 0 if exc.code in (0, None) else 3
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except GjrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
