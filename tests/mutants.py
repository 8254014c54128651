"""Mutation ledger: every verdict of the package must be load-bearing.

Each entry loosens one verdict by replacing an exact piece of text in one
source file.  A ``live`` entry is applied to a temporary copy of ``src/``
and the tier-1 suite runs against it with ``-x`` and without the fuzz
tests, whose random documents could fail on their own and count as a kill.
The mutant is killed when the suite fails; the ledger fails when a live
mutant survives, when its text is missing or not unique, or when the
unmutated copy does not pass.  Entries that no test can kill yet are
listed with the ROADMAP item they wait on and are not run.

    python tests/mutants.py            # every live entry
    python tests/mutants.py NAME ...   # the named entries, live or not

Standard library only.  A killed mutant takes a few seconds, a survivor
one whole tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FUZZ = "tests/test_fuzz_documents.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/gjrep
    text: str
    replacement: str
    verdict: str
    status: str  # "live", or "waits: ROADMAP item N (why)"


LEDGER = (
    Mutant(
        "contour-settle",
        "pencil.py",
        "TOL_CONTOUR = 1e-9",
        "TOL_CONTOUR = 1e-5",
        "contour settle test: max_j ||dT_j|| <= TOL_CONTOUR max_j ||T_j||",
        "live",
    ),
    Mutant(
        "removable",
        "pencil.py",
        "if t_minus_norm <= TOL_FUND * t_zero_norm:",
        "if t_minus_norm <= 1e3 * TOL_FUND * t_zero_norm:",
        "removable test: ||T_{-1}|| <= TOL_FUND ||T_0||",
        "live",
    ),
    Mutant(
        "separate",
        "pencil.py",
        "worst <= TOL_FUND * c_size * max(1.0, p * q)",
        "worst <= 1e3 * TOL_FUND * c_size * max(1.0, p * q)",
        "separate: TOL_FUND max||C_i|| max(1, ||P|| ||Q||)",
        "live",
    ),
    Mutant(
        "chain-step",
        "chains.py",
        "residual > CHAIN_TOL * c_size * norms[-1]",
        "residual > 1e-3 * c_size * norms[-1]",
        "chain step residual: CHAIN_TOL max||C_i|| ||x_n||",
        "live",
    ),
    Mutant(
        "unit-limit",
        "pencil.py",
        "unit_limit = TOL_FUND * t_size * c_size",
        "unit_limit = 1e-3 * t_size * c_size",
        "basic_solution's identities: TOL_FUND max||T_j|| max||C_i||",
        "live",
    ),
    Mutant(
        "fundamental",
        "pencil.py",
        "lambda *norms: worst <= TOL_FUND * max(norms[: p + 1])",
        "lambda *norms: worst <= 1e-3 * max(norms[: p + 1])",
        "verify_fundamental: TOL_FUND max||C_i|| max||T_j||",
        "live",
    ),
    Mutant(
        "unpack",
        "cli.py",
        "disagreement <= TOL_FUND * t_size",
        "disagreement <= 1e-3 * t_size",
        "analyze's polynomial unpack bound: TOL_FUND max||T_J||",
        "live",
    ),
    Mutant(
        "cond-cap",
        "pencil.py",
        "COND_CAP = 1e12",
        "COND_CAP = 1e20",
        "checked solve: condition estimate <= COND_CAP",
        "live",
    ),
    Mutant(
        "essential-index",
        "pencil.py",
        'kind = "essential_at_truncation" if k == n else "pole"',
        'kind = "essential_at_truncation" if k == n + 1 else "pole"',
        "classification: a collapse at k = n is a truncated essential singularity",
        "live",
    ),
    Mutant(
        "annulus-termination",
        "pencil.py",
        "if max(his) == 0.0 or his[-1] <= 1e-13 * max(los):",
        "if max(his) == 0.0 or his[-1] <= 1e-3 * max(los):",
        "annulus_estimate: a principal part terminates below 1e-13 of its largest term",
        "live",
    ),
    Mutant(
        "natural-gate",
        "represent.py",
        "if r_hat <= 1.0:",
        "if r_hat <= 0.5:",
        "natural forms: the regular series needs r_hat > 1",
        "live",
    ),
    Mutant(
        "solve-at",
        "pencil.py",
        "lambda res, na, nr: res <= TOL_SOLVE * na * nr",
        "lambda res, na, nr: res <= 1e-3 * na * nr",
        "solve_at residual: TOL_SOLVE ||A(z)|| ||R||",
        "waits: ROADMAP item 11 (no input plants a residual in one LU solve)",
    ),
    Mutant(
        "split",
        "represent.py",
        "SPLIT_TOL = 1e-8",
        "SPLIT_TOL = 1e-3",
        "split_projection: leak <= SPLIT_TOL",
        "waits: ROADMAP item 3 (the relative path verdicts)",
    ),
    Mutant(
        "tol-rep",
        "represent.py",
        "passed=residual_max <= tol_rep,",
        "passed=residual_max <= 1e3 * tol_rep,",
        "represent: residual_max <= tol_rep",
        "waits: ROADMAP item 3 (the relative path verdicts)",
    ),
    Mutant(
        "cliff",
        "pencil.py",
        "CLIFF_FACTOR = 1e-3",
        "CLIFF_FACTOR = 1e-1",
        "classification: a pole shows as a cliff of CLIFF_FACTOR",
        "waits: ROADMAP item 11 (no input tells 1e-3 from 1e-1)",
    ),
)


def _tier1(tree: Path) -> str | None:
    """Run tier-1 in ``tree`` (a copy of src/, tests/ and pyproject.toml);
    the first failing test, or None when the suite passes."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           f"--ignore={FUZZ}"]
    run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    lines = run.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"pytest exit code {run.returncode}"


def _fresh_tree(base: Path) -> Path:
    tree = Path(tempfile.mkdtemp(dir=base))
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tree)
    return tree


def main(names: list[str]) -> int:
    known = {m.name: m for m in LEDGER}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {unknown}")
        return 2
    chosen = [known[n] for n in names] or [m for m in LEDGER if m.status == "live"]
    failures = 0
    for m in LEDGER:
        found = (ROOT / "src" / "gjrep" / m.path).read_text().count(m.text)
        if found != 1:
            print(f"{'stale':8s} {m.name:20s} {m.path}: text found {found} times")
            failures += 1
        elif m not in chosen:
            print(f"{'listed':8s} {m.name:20s} {m.status}", flush=True)
    if failures:
        return 1
    with tempfile.TemporaryDirectory() as base:
        failed = _tier1(_fresh_tree(Path(base)))
        if failed:
            print(f"the unmutated copy fails tier-1 ({failed}): no mutant can be judged")
            return 1
        for m in chosen:
            tree = _fresh_tree(Path(base))
            source = tree / "src" / "gjrep" / m.path
            source.write_text(source.read_text().replace(m.text, m.replacement))
            start = time.perf_counter()
            killer = _tier1(tree)
            took = time.perf_counter() - start
            verdict = "killed" if killer else "SURVIVED"
            print(f"{verdict:8s} {m.name:20s} {took:5.1f} s  {m.verdict}", flush=True)
            if killer:
                print(f"{'':8s} {'':20s} by {killer}", flush=True)
            failures += m.status == "live" and not killer
            shutil.rmtree(tree)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
