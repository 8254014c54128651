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
import json
import sys

import numpy as np

from . import io as gio
from .arma import NoiseSpec
from .augment import PolynomialPencil, augment, unpack_laurent
from .corpus import MAKERS, make
from .errors import GjrepError, InputError, NumericError, VerificationError
from .pencil import (
    TOL_FUND,
    LinearPencil,
    annulus_estimate,
    basic_residuals,
    basic_solution,
    classify_singularity,
    closed_form_resolvent,
    default_radius,
    laurent_range,
    projections,
    separate,
    solve_at,
    spectral_norm,
    verify_fundamental,
)
from .represent import represent

J_LO, J_HI = -3, 6  # default Laurent window for analyze reports


def _as_written(a) -> np.ndarray:
    """A report matrix as complex128: a real pencil's float64 blocks are
    written as [re, im] pairs too, with every imaginary part 0.0."""
    return np.asarray(a, dtype=np.complex128)


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None


def _analyze_linear(pencil: LinearPencil, args) -> tuple[dict, bool, dict[int, np.ndarray]]:
    auto_radius = default_radius(pencil)
    radius = args.radius if args.radius is not None else auto_radius
    basic = basic_solution(pencil, radius=radius)
    residuals = basic_residuals(basic, pencil)
    expansion = laurent_range(basic, pencil, J_LO, J_HI)
    fund = verify_fundamental(pencil, expansion, J_LO + 1, J_HI)
    pair = projections(basic, pencil)
    sep = separate(pair, pencil)
    sclass = classify_singularity(basic, pencil)
    s_hat, r_hat = annulus_estimate(basic, pencil)
    probe_z = 1.0 + radius * 0.5
    closed_err = spectral_norm(
        closed_form_resolvent(basic, pencil, probe_z) - solve_at(pencil, probe_z)
    )
    report = {
        "dim": pencil.dim,
        "radius": radius,
        "default_radius": auto_radius,
        "basic_residuals": residuals,
        # the pair (T_{-1}, T_0) fixes every other block: laurent_range rebuilds them
        "laurent": {str(j): _as_written(expansion[j]) for j in (-1, 0)},
        "laurent_norms": {
            str(j): spectral_norm(expansion[j])
            for j in range(J_LO, J_HI + 1)
            if j not in (-1, 0)  # T_{-1} and T_0: exact norms the checks took
        }
        | dict(zip(("-1", "0"), basic.norms)),
        "fundamental": {
            "window": [J_LO + 1, J_HI],
            "max_residual": fund.max_residual,
            "passed": fund.passed,
        },
        "projections": {
            "domain_sin": _as_written(pair.domain_sin),
            "range_sin": _as_written(pair.range_sin),
            "domain_sin_rank": int(round(np.trace(pair.domain_sin).real)),
            "range_sin_rank": int(round(np.trace(pair.range_sin).real)),
        },
        "separation": {
            "off_residuals": sep.off_residuals,
            "passed": sep.passed,
        },
        "singularity": {"kind": sclass.kind, "order": sclass.order},
        "annulus": {"inner": s_hat, "outer": r_hat},
        "closed_form_error": closed_err,
    }
    # basic_solution has already held the basic residuals to its relative rule
    return report, fund.passed and sep.passed, expansion


def cmd_analyze(args) -> int:
    obj = _load_json(args.pencil)
    pencil = gio.load_pencil(obj)
    if isinstance(pencil, PolynomialPencil):
        aug = augment(pencil)
        report, ok, expansion = _analyze_linear(aug.pencil, args)
        tmap, disagreement = unpack_laurent(aug, expansion)
        pfund = verify_fundamental(pencil, tmap, J_LO + pencil.degree, J_HI)
        report["polynomial"] = {
            "degree": pencil.degree,
            "base_dim": pencil.dim,
            "unpack_disagreement": disagreement,
            "fundamental_max_residual": pfund.max_residual,
            "fundamental_passed": pfund.passed,
        }
        # the block copies are rounded copies of one another: their spread
        # scales with the augmented coefficients
        t_size = max(report["laurent_norms"].values())
        ok = ok and pfund.passed and disagreement <= TOL_FUND * t_size
    else:
        report, ok, _ = _analyze_linear(pencil, args)
    _write_out(gio.dumps_report(report), args.out)
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
    report = represent(
        args.form,
        model,
        spec,
        args.T,
        tol_rep=args.tol_rep,
        radius=args.radius,
    )
    summary = {
        "form": report.form,
        "t_end": report.t_end,
        "seed": spec.seed,
        "burn_in": spec.burn_in,
        "residual_max": report.residual_max,
        "residual_mean": report.residual_mean,
        "passed": report.passed,
        "budgets": report.budgets,
        "annulus": {"inner": report.s_hat, "outer": report.r_hat},
        "singularity": {
            "kind": report.singularity.kind,
            "order": report.singularity.order,
        },
        "tol_rep": report.tol_rep,
    }
    if args.format == "csv":
        tables = dict(report.components)
        tables["xhat"] = report.xhat
        tables["oracle"] = report.oracle
        body = gio.components_to_csv(tables, start=0)
    else:
        body = gio.dumps_report(summary)
    _write_out(body, args.out)
    if args.out is not None:
        sys.stdout.write(
            f"residual_max={report.residual_max:.6e} passed={report.passed}\n"
        )
    if not report.passed:
        raise VerificationError(
            f"reconstruction residual {report.residual_max:.3e} exceeds "
            f"tol_rep={report.tol_rep:.1e}"
        )
    return 0


def _demo_checks(entry) -> list[dict]:
    pencil, basic, exp = entry.pencil, entry.basic, entry.expected
    checks: list[dict] = []

    def add(name: str, observed, expected, tol: float) -> None:
        if isinstance(observed, (int, float)) and isinstance(expected, (int, float)):
            err = abs(observed - expected)
        else:
            err = float(np.max(np.abs(np.asarray(observed) - np.asarray(expected))))
        checks.append({"check": name, "passed": bool(err <= tol), "error": err, "tol": tol})

    def add_relative(name: str, observed, expected, tol: float) -> None:
        # coefficients on a thin annulus reach 1e8: the bound scales with them
        add(name, observed, expected, tol * float(np.max(np.abs(expected))))

    def match(name: str, passed: bool, observed, expected) -> None:
        checks.append(
            {"check": name, "passed": bool(passed), "observed": observed, "expected": expected}
        )

    add("basic_residuals", max(basic_residuals(basic, pencil).values()), 0.0, 1e-10)
    sclass = classify_singularity(basic, pencil)
    found = f"{sclass.kind}({sclass.order})"
    if "pole_order" in exp:
        order = exp["pole_order"]
        is_pole = sclass.kind == "pole" and sclass.order == order
        match("pole_order", is_pole, found, f"pole({order})")
    if "collapse_index" in exp:
        index = exp["collapse_index"]
        match(
            "collapse_index",
            sclass.kind == "essential_at_truncation" and sclass.order == index,
            found,
            f"essential_at_truncation({index})",
        )
    if "default_radius" in exp:
        add("default_radius", default_radius(pencil), exp["default_radius"], 1e-9)
    pair = projections(basic, pencil)
    if "domain_sin" in exp:
        add("domain_sin_projection", pair.domain_sin, exp["domain_sin"], 1e-10)
    if "range_sin" in exp:
        add("range_sin_projection", pair.range_sin, exp["range_sin"], 1e-10)
    if "range_reg" in exp:
        add("range_reg_projection", pair.range_reg, exp["range_reg"], 1e-10)
    if "range_reg_rank" in exp:
        rank = int(round(np.trace(pair.domain_reg).real))
        match("reg_projection_rank", rank == exp["range_reg_rank"], rank, exp["range_reg_rank"])
    table = laurent_range(basic, pencil, -3, 3)
    if "t_neg" in exp:
        ks = range(1, 4)
        add_relative(
            "principal_coefficients",
            np.stack([table[-k] for k in ks]),
            np.stack([exp["t_neg"](k) for k in ks]),
            1e-9,
        )
    if "t_pos" in exp:
        ells = range(0, 4)
        add_relative(
            "regular_coefficients",
            np.stack([table[ell] for ell in ells]),
            np.stack([exp["t_pos"](ell) for ell in ells]),
            1e-9,
        )
    if "resolvent" in exp:
        rho = default_radius(pencil)
        zs = [1.0 + rho, 1.0 + 1j * rho, 1.0 - 0.5 * rho, 1.0 + rho * (0.6 + 0.8j), 1.0 - 1j * rho]
        add_relative(
            "resolvent_law",
            np.stack([solve_at(pencil, z) for z in zs]),
            np.stack([exp["resolvent"](z) for z in zs]),
            1e-9,
        )
    if "eigenpair" in exp:
        v, sig = exp["eigenpair"]
        add("aggregate_eigenpair", pencil.c0 @ v, sig * v, 1e-10)
    if "operator_norm_limit" in exp:
        # the one check that reports both the values and the error
        err = abs(spectral_norm(pencil.c0) - exp["operator_norm_limit"])
        checks.append(
            {
                "check": "operator_norm_limit",
                "passed": err <= 5e-2,
                "observed": spectral_norm(pencil.c0),
                "expected": exp["operator_norm_limit"],
                "error": err,
                "tol": 5e-2,
            }
        )
    s_hat, r_hat = annulus_estimate(basic, pencil)

    def same_outer(outer: float) -> bool:
        # the outer radius is an exact offset of the spectrum, or inf
        return r_hat == outer if np.isinf(outer) else abs(r_hat - outer) <= 1e-9 * outer

    if "annulus" in exp:
        inner, outer = exp["annulus"]
        ok_in = s_hat <= inner + 0.1 * max(inner, 1e-6)
        match("annulus_estimate", ok_in and same_outer(outer), [s_hat, r_hat], [inner, outer])
    if "annulus_outer" in exp:
        outer = exp["annulus_outer"]
        match("annulus_outer", same_outer(outer), r_hat, outer)
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
        body = gio.dumps_report(
            {"name": entry.name, "params": entry.params, "checks": checks}
        )
    else:
        lines = []
        for ch in checks:
            status = "PASS" if ch["passed"] else "FAIL"
            detail = ", ".join(
                f"{k}={_fmt(v)}" for k, v in ch.items() if k not in ("check", "passed")
            )
            lines.append(f"{status} {entry.name}.{ch['check']}: {detail}")
        body = "\n".join(lines) + "\n"
    _write_out(body, args.out)
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
    common(pa, ("json",))
    pa.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("represent", help="decompose a simulated model path")
    pr.add_argument("--model", required=True, help="model JSON file")
    pr.add_argument(
        "--form",
        required=True,
        choices=("natural_ns", "natural_s", "extended_ns", "extended_s"),
    )
    pr.add_argument("--T", dest="T", type=int, default=100, help="horizon (last time index)")
    pr.add_argument("--burn-in", dest="burn_in", type=int, default=None)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--radius", type=float, default=None)
    pr.add_argument("--tol-rep", dest="tol_rep", type=float, default=1e-6)
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
        tol_rep = getattr(args, "tol_rep", None)
        if tol_rep is not None and not tol_rep > 0:
            raise InputError(f"--tol-rep must be positive, got {tol_rep}")
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
