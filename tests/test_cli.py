"""Command-line behavior: reports, exit codes, determinism."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import gjrep
from gjrep import (
    ArmaModel,
    BasicSolution,
    FundamentalResidualError,
    LinearPencil,
    NoiseSpec,
    PolynomialPencil,
    augment,
    basic_solution,
    default_radius,
    laurent_range,
    make,
    unpack_laurent,
)
from gjrep import cli
from gjrep import io as gio
from gjrep.cli import main
from gjrep.io import dump_model, dump_pencil
from oracles import jordan_similarity, report_text


@pytest.fixture
def matrix_pencil_file(tmp_path):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(dump_pencil(make("matrix", eps=0.5).pencil)))
    return str(path)


@pytest.fixture
def matrix_model_file(tmp_path):
    e = make("matrix", eps=0.5)
    model = ArmaModel(
        a0=e.pencil.c0 - e.pencil.c1,
        a1=e.pencil.c1,
        f0=np.eye(2),
        f1=0.5 * np.eye(2),
        c=np.zeros(2),
    )
    spec = NoiseSpec(kind="gaussian", dim=2, seed=7, burn_in=60)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dump_model(model, spec)))
    return str(path)


def test_analyze_report(matrix_pencil_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", "--pencil", matrix_pencil_file, "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["singularity"] == {"kind": "pole", "order": 1}
    assert rep["projections"]["domain_sin_rank"] == 1
    assert rep["fundamental"]["passed"] is True
    assert rep["fundamental"]["max_residual"] <= 1e-10
    assert rep["separation"]["passed"] is True
    # the report keeps the determining pair; the norms still span the window
    assert set(rep["laurent"]) == {"-1", "0"}
    assert set(rep["laurent_norms"]) == {str(j) for j in range(-3, 7)}


@pytest.mark.parametrize("s", [1e-8, 1e10])
@pytest.mark.parametrize("name", ["c0", "volterra16", "similarity"])
def test_analyze_reads_a_scaled_pencil_as_the_unscaled_one(name, s, tmp_path):
    # exit 0 means right: every verdict of the report holds at any scale
    pencil = {
        "c0": lambda: make("c0").pencil,
        "volterra16": lambda: make("volterra", n=16).pencil,
        "similarity": _similarity_pencil,
    }[name]()
    want = _analyze_report(pencil, tmp_path)
    got = _analyze_report(LinearPencil(s * pencil.c0, s * pencil.c1), tmp_path)
    assert got["singularity"] == want["singularity"]
    assert got["projections"]["domain_sin_rank"] == want["projections"]["domain_sin_rank"]
    assert got["radius"] == pytest.approx(want["radius"], rel=1e-12)
    assert got["fundamental"]["passed"] and got["separation"]["passed"]


def test_analyze_polynomial(tmp_path):
    rng = np.random.default_rng(5)
    c0 = np.array([[1.0], [0.5]]) @ np.array([[1.0, -1.0]])
    poly = PolynomialPencil((c0, rng.standard_normal((2, 2)), 0.3 * np.eye(2)))
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(dump_pencil(poly)))
    out = tmp_path / "rep.json"
    assert main(["analyze", "--pencil", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["polynomial"]["degree"] == 2
    assert rep["polynomial"]["fundamental_passed"] is True
    assert rep["polynomial"]["unpack_disagreement"] <= 1e-9


def _analyze_report(pencil, tmp_path) -> dict:
    assert _analyze_code(pencil, tmp_path) == 0
    return json.loads((tmp_path / "report.json").read_text())


def _written_pair(report) -> BasicSolution:
    laurent = report["laurent"]
    return BasicSolution(*(gio.decode_complex(laurent[j], ndim=2) for j in ("-1", "0")))


def _live_table(pencil) -> dict:
    basic = basic_solution(pencil, radius=default_radius(pencil))
    return laurent_range(basic, pencil, -3, 6)


PAIR_PENCILS = {
    "matrix": lambda: make("matrix", eps=0.5).pencil,
    "c0": lambda: make("c0").pencil,
    "volterra12": lambda: make("volterra", n=12).pencil,
    "volterra64": lambda: make("volterra", n=64).pencil,
    "cascade8": lambda: make("hierarchy", n=8).pencil,
}


@pytest.mark.parametrize("case", PAIR_PENCILS)
def test_written_pair_rebuilds_the_whole_table(case, tmp_path):
    # floats are written as their shortest repr, so the pair reads back bit
    # for bit and laurent_range repeats the operations of the analysis; these
    # pencils are real, so the pair is computed in float64 and reads back as
    # complex128 with zero imaginary parts
    pencil = PAIR_PENCILS[case]()
    rebuilt = laurent_range(_written_pair(_analyze_report(pencil, tmp_path)), pencil, -3, 6)
    live = _live_table(pencil)
    assert rebuilt.keys() == live.keys()
    for j, block in live.items():
        assert np.array_equal(rebuilt[j], block), j


def test_real_pencil_writes_complex_pairs_with_zero_imaginary_parts(tmp_path):
    pencil = make("volterra", n=12).pencil
    assert pencil.c0.dtype == np.float64
    report = _analyze_report(pencil, tmp_path)
    mats = [report["laurent"][j] for j in ("-1", "0")]
    mats += [report["projections"][k] for k in ("domain_sin", "range_sin")]
    for mat in mats:
        arr = np.asarray(mat)
        assert arr.dtype == np.float64 and arr.shape == (12, 12, 2)
        assert np.all(arr[..., 1] == 0.0)


def test_written_augmented_pair_rebuilds_the_polynomial_table(tmp_path):
    poly = _degree2_pencil()
    report = _analyze_report(poly, tmp_path)
    aug = augment(poly)
    rebuilt = laurent_range(_written_pair(report), aug.pencil, -3, 6)
    got, got_spread = unpack_laurent(aug, rebuilt)
    want, want_spread = unpack_laurent(aug, _live_table(aug.pencil))
    assert got_spread == want_spread == report["polynomial"]["unpack_disagreement"]
    assert got.keys() == want.keys()
    for m, block in want.items():
        assert np.array_equal(got[m], block), m


def test_analyze_rejects_csv_before_any_work(matrix_pencil_file, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "basic_solution", lambda *a, **k: calls.append(a))
    assert main(["analyze", "--pencil", matrix_pencil_file, "--format", "csv"]) == 3
    assert calls == []


def test_analyze_deterministic(matrix_pencil_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", "--pencil", matrix_pencil_file, "--out", str(a)]) == 0
    assert main(["analyze", "--pencil", matrix_pencil_file, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_analyze_input_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["analyze", "--pencil", str(bad)]) == 3
    assert main(["analyze", "--pencil", str(tmp_path / "missing.json")]) == 3
    bad.write_text(json.dumps({"n": 2}))
    assert main(["analyze", "--pencil", str(bad)]) == 3


def test_config_validation(matrix_pencil_file, matrix_model_file, tmp_path):
    rep = ["represent", "--model", matrix_model_file, "--form", "extended_ns", "--T", "20"]
    assert main([*rep, "--tol-rep", "-1e-9"]) == 3
    assert main([*rep, "--tol-rep", "0"]) == 3
    # a contour radius that is not finite and positive, for both commands
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(dump_pencil(_degree2_pencil())))
    for argv in (
        ["analyze", "--pencil", matrix_pencil_file],
        ["analyze", "--pencil", str(poly)],
        ["represent", "--model", matrix_model_file, "--form", "natural_ns", "--T", "20"],
    ):
        for radius in ("nan", "inf", "-inf", "0", "-1"):
            assert main([*argv, f"--radius={radius}"]) == 3, (argv, radius)


def test_one_value_settings_are_gone(matrix_pencil_file):
    # each of these keywords had one value in use; it is a module constant now
    # or, for the probe's noise scale, gone because it changed no result
    removed = {
        gjrep.basic_solution: ("nodes",),
        gjrep.contour_coefficients: ("start_nodes",),
        gjrep.default_radius: ("zero_tol",),
        gjrep.classify_singularity: ("tol", "k_max", "cliff_factor"),
        gjrep.annulus_estimate: ("k_max", "l_max"),
        gjrep.singular_chain: ("tol",),
        gjrep.regular_chain: ("tol",),
        gjrep.sin_basis: ("zero_tol",),
        gjrep.reg_basis: ("zero_tol", "rate_cap"),
        gjrep.split_projection: ("tol",),
        gjrep.cointegration_probe: ("sigma", "n_scales", "thresholds"),
        gjrep.unpack_laurent: ("tol",),
        gjrep.solve_at: ("tol",),
        gjrep.contour_coefficients: ("tol",),
        gjrep.basic_solution: ("tol", "verify_tol"),
        gjrep.projections: ("tol",),
        gjrep.verify_fundamental: ("tol",),
        gjrep.separate: ("tol",),
    }
    for fn, keywords in removed.items():
        for keyword in keywords:
            # an unknown keyword fails the call before the missing positional
            # arguments are counted and before the body runs
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
                fn(**{keyword: None})
    assert not hasattr(gjrep, "laurent_coefficient")
    # laurent_range returns its dict, and projections checks nothing that
    # basic_solution has not already checked
    for name in ("LaurentExpansion", "ProjectionError"):
        assert not hasattr(gjrep, name), name
    assert not hasattr(gjrep.LinearPencil, "scale")
    # the verdicts read TOL_FUND; no report carries it
    for report in (gjrep.FundamentalReport, gjrep.SeparationReport, gjrep.SplitReport):
        assert "tol" not in {f.name for f in dataclasses.fields(report)}
    # the probe's cuts are PROBE_THRESHOLDS; no report carries them
    assert "thresholds" not in {f.name for f in dataclasses.fields(gjrep.ProbeReport)}
    # the analyze tolerances are module constants: argparse rejects the flags
    for flag in ("--tol-solve", "--tol-contour", "--tol-fund"):
        assert main(["analyze", "--pencil", matrix_pencil_file, flag, "1e-9"]) == 3, flag
    assert not hasattr(gjrep, "BlockInconsistent")
    # an unknown flag is a usage error, whatever its value
    assert main(["analyze", "--pencil", matrix_pencil_file, "--nodes", "32"]) == 3


def test_literal_regular_series_is_gone(matrix_model_file, tmp_path):
    # the natural forms sum the regular series in closed form: no cutoff, no
    # tail budget, no truncated differences and no history loop are left
    for name in ("natural_budget", "k_vector", "TailNotConverged", "diff_neg", "diff_pos"):
        assert not hasattr(gjrep, name), name
    for short in ("represent", "arma", "errors"):
        module = importlib.import_module(f"gjrep.{short}")
        for name in ("natural_budget", "k_vector", "L_CAP", "TailNotConverged", "diff_neg", "diff_pos"):
            assert not hasattr(module, name), (short, name)
    assert "tol_tail" not in {f.name for f in dataclasses.fields(gjrep.RepresentationReport)}
    with pytest.raises(TypeError, match="unexpected keyword argument 'tol_tail'"):
        gjrep.represent(tol_tail=None)
    out = tmp_path / "rep.json"
    base = ["represent", "--model", matrix_model_file, "--form", "extended_s", "--T", "20"]
    assert main([*base, "--tol-tail", "1e-10"]) == 3
    assert main([*base, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert "tol_tail" not in rep
    assert set(rep["budgets"]) == {"presample", "convolution_depth"}


def _scaled(pencil, s):
    """The same pencil with every coefficient times s: its resolvent is R / s."""
    if isinstance(pencil, PolynomialPencil):
        return PolynomialPencil(tuple(s * c for c in pencil.coeffs))
    return LinearPencil(s * pencil.c0, s * pencil.c1)


def _analyze_code(pencil, tmp_path) -> int:
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(dump_pencil(pencil)))
    return main(["analyze", "--pencil", str(path), "--out", str(tmp_path / "report.json")])


def _plant(mat):
    """``mat`` with a relative 1e-6 error in its (0, 0) entry."""
    out = mat.copy()
    out[0, 0] += 1e-6 * np.linalg.norm(mat, 2)
    return out


SCALES = (1e-8, 1.0, 1e6)


@pytest.mark.parametrize("make_pencil", [lambda: make("c0").pencil, lambda: _degree2_pencil()])
@pytest.mark.parametrize("scale", [1e-8, 1e6])
def test_analyze_passes_at_any_pencil_scale(make_pencil, scale, tmp_path):
    assert _analyze_code(_scaled(make_pencil(), scale), tmp_path) == 0


def _plant_in_contour(monkeypatch, j):
    """Make the contour return ``T_j`` with a relative 1e-6 error in one entry."""
    real = gjrep.pencil.contour_coefficients

    def planted(*args, **kwargs):
        coeffs, info = real(*args, **kwargs)
        return {**coeffs, j: _plant(coeffs[j])}, info

    monkeypatch.setattr(gjrep.pencil, "contour_coefficients", planted)


@pytest.mark.parametrize("j", [-1, 0])
def test_analyze_fails_a_planted_laurent_error_at_any_scale(j, tmp_path, monkeypatch):
    _plant_in_contour(monkeypatch, j)
    for scale in SCALES:
        assert _analyze_code(_scaled(make("c0").pencil, scale), tmp_path) == 2, scale


@pytest.mark.parametrize("j", [-1, 0])
@pytest.mark.parametrize("scale", SCALES)
def test_basic_solution_fails_a_planted_laurent_error_at_any_scale(j, scale, monkeypatch):
    # represent has no fundamental window behind basic_solution: its own
    # identity check has to catch the error at every pencil scale
    pencil = _scaled(make("c0").pencil, scale)
    radius = gjrep.default_radius(pencil)
    _plant_in_contour(monkeypatch, j)
    with pytest.raises(FundamentalResidualError):
        gjrep.basic_solution(pencil, radius=radius)


@pytest.mark.parametrize("balanced", [False, True])
def test_analyze_fails_a_planted_block_disagreement_at_any_scale(
    balanced, tmp_path, monkeypatch
):
    real = cli.unpack_laurent

    def planted(aug, coefficients):
        n = aug.base_dim
        big = coefficients[0].copy()
        # blocks (0, 0) and (1, 1) are the two copies of T_0; the balanced
        # error leaves their average, and so the fundamental check, as it was
        error = _plant(big[:n, :n]) - big[:n, :n]
        big[:n, :n] += error
        if balanced:
            big[n:, n:] -= error
        return real(aug, {**coefficients, 0: big})

    monkeypatch.setattr(cli, "unpack_laurent", planted)
    for scale in SCALES:
        assert _analyze_code(_scaled(_degree2_pencil(), scale), tmp_path) == 2, scale


def test_represent_json_and_csv(matrix_model_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(
        [
            "represent",
            "--model",
            matrix_model_file,
            "--form",
            "extended_s",
            "--T",
            "120",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["residual_max"] <= 1e-6
    assert rep["form"] == "extended_s"
    assert "budgets" in rep and "annulus" in rep

    csv_out = tmp_path / "rep.csv"
    code = main(
        [
            "represent",
            "--model",
            matrix_model_file,
            "--form",
            "extended_ns",
            "--T",
            "40",
            "--format",
            "csv",
            "--out",
            str(csv_out),
        ]
    )
    assert code == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "t,component,coordinate,re,im"
    names = {ln.split(",")[1] for ln in lines[1:]}
    assert names == {
        "stochastic_trend",
        "stationary",
        "det_sin",
        "det_reg",
        "k_term",
        "xhat",
        "oracle",
    }
    # 41 times x 7 components x 2 coordinates
    assert len(lines) == 1 + 41 * 7 * 2


def test_represent_seed_override_changes_path(matrix_model_file, tmp_path):
    a, b, c = (tmp_path / f"{k}.json" for k in "abc")
    base = ["represent", "--model", matrix_model_file, "--form", "extended_ns", "--T", "50"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--seed", "99", "--out", str(b)]) == 0
    assert main(base + ["--out", str(c)]) == 0
    assert a.read_bytes() == c.read_bytes()
    assert a.read_bytes() != b.read_bytes()


def test_represent_natural_divergence_exit(matrix_model_file):
    code = main(
        ["represent", "--model", matrix_model_file, "--form", "natural_s", "--T", "40"]
    )
    assert code == 4


def test_demo_all_pass(capsys):
    for name in ("matrix", "c0", "volterra", "hierarchy"):
        assert main(["demo", "--name", name]) == 0, name
        text = capsys.readouterr().out
        assert "FAIL" not in text
        assert "PASS" in text


def test_demo_param_override(capsys):
    assert main(["demo", "--name", "matrix", "--param", "eps=0.25"]) == 0
    assert main(["demo", "--name", "matrix", "--param", "eps"]) == 3
    assert main(["demo", "--name", "matrix", "--param", "eps=big"]) == 3
    # a name outside the example's signature, an integer parameter that is
    # not an integer in range, or a float that is not finite: exit 3, with no
    # traceback and no warning before it
    for name, param in (
        ("c0", "bogus=1"),
        ("hierarchy", "levels=0"),
        ("hierarchy", "n=0"),
        ("c0", "n=4.0"),
        ("c0", "n=1e400"),
        ("matrix", "eps=nan"),
        ("c0", "lam=inf"),
    ):
        assert main(["demo", "--name", name, "--param", param]) == 3, (name, param)


@pytest.mark.parametrize("name, param", [("c0", "lam=0.99"), ("matrix", "eps=0.01")])
def test_demo_outer_radius_is_exact(name, param, tmp_path):
    # thin annuli: the 48-term root test read 8.34e-3 and 8.02e-3 for the
    # outer radius, and the regular coefficients reach 1e8, so an absolute
    # 1e-9 failed them on rounding of about 1e-16 relative
    out = tmp_path / "demo.json"
    code = main(["demo", "--name", name, "--param", param, "--format", "json", "--out", str(out)])
    checks = {ch["check"]: ch for ch in json.loads(out.read_text())["checks"]}
    assert checks["annulus_estimate"]["passed"] is True
    assert checks["regular_coefficients"]["passed"] is True
    assert code == 0


@pytest.mark.parametrize(
    "name, params", [("c0", {}), ("c0", {"lam": 0.99}), ("matrix", {"eps": 0.01})]
)
@pytest.mark.parametrize(
    "key, check",
    [
        ("t_neg", "principal_coefficients"),
        ("t_pos", "regular_coefficients"),
        ("resolvent", "resolvent_law"),
    ],
)
def test_demo_coefficient_checks_fail_a_planted_relative_error(name, params, key, check):
    entry = make(name, **params)
    exact = entry.expected[key]
    planted = dataclasses.replace(
        entry, expected={**entry.expected, key: lambda arg: (1 + 1e-6) * exact(arg)}
    )
    def verdict(e):
        return {ch["check"]: ch["passed"] for ch in cli._demo_checks(e)}[check]

    assert verdict(entry) is True
    assert verdict(planted) is False


def test_demo_volterra_checks_its_outer_radius(monkeypatch, capsys):
    # the Volterra kernel has no finite offset: its outer radius is inf
    assert main(["demo", "--name", "volterra"]) == 0
    assert "PASS volterra.annulus_outer" in capsys.readouterr().out
    real = cli.annulus_estimate
    monkeypatch.setattr(cli, "annulus_estimate", lambda b, p: (real(b, p)[0], 5.0))
    assert main(["demo", "--name", "volterra"]) == 2
    assert "FAIL volterra.annulus_outer" in capsys.readouterr().out


def test_demo_outer_radius_inf_matches_only_inf():
    def annulus_check(name, outer):
        entry = make(name)
        entry = dataclasses.replace(entry, expected={"annulus": (1.0, outer)})
        (check,) = cli._demo_checks(entry)[1:]
        return check["passed"]

    assert annulus_check("volterra", np.inf)
    assert not annulus_check("c0", np.inf)
    assert not annulus_check("volterra", 3.0)


def test_analyze_takes_one_spectrum_per_pencil(matrix_pencil_file, tmp_path, monkeypatch):
    # the contour radius and the outer radius read one set of offsets
    real = scipy.linalg.eigvals
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals", counting)
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(dump_pencil(_degree2_pencil())))
    for path in (matrix_pencil_file, str(poly)):
        calls.clear()
        assert main(["analyze", "--pencil", path, "--out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1, path


def test_demo_unknown_name():
    assert main(["demo", "--name", "unknown"]) == 3


def test_demo_json_format(tmp_path):
    out = tmp_path / "demo.json"
    assert main(["demo", "--name", "c0", "--format", "json", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["name"] == "c0"
    assert all(ch["passed"] for ch in rep["checks"])


def _similarity_pencil(n=8, seed=3):
    return LinearPencil(*jordan_similarity(n, seed))


def _degree2_pencil():
    rng = np.random.default_rng(5)
    c0 = np.array([[1.0], [0.5]]) @ np.array([[1.0, -1.0]])
    return PolynomialPencil((c0, rng.standard_normal((2, 2)), 0.3 * np.eye(2)))


REPORT_PENCILS = {
    "similarity": _similarity_pencil,
    "volterra": lambda: make("volterra", n=12).pencil,
    "polynomial": _degree2_pencil,
}


@pytest.mark.parametrize("case", [*REPORT_PENCILS, "demo", "represent"])
def test_report_bytes_match_oracle(case, matrix_model_file, tmp_path, monkeypatch):
    if case in REPORT_PENCILS:
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps(dump_pencil(REPORT_PENCILS[case]())))
        argv = ["analyze", "--pencil", str(path)]
    elif case == "demo":
        argv = ["demo", "--name", "c0", "--format", "json"]
    else:
        argv = ["represent", "--model", matrix_model_file, "--form", "extended_s", "--T", "60"]
    written = []
    real = gio.dumps_report

    def recording(report):
        written.append((report, real(report)))
        return written[-1][1]

    monkeypatch.setattr(gio, "dumps_report", recording)
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    ((report, text),) = written
    assert text == report_text(report)
    assert out.read_text() == text


# fields patched into the 2x2 matrix model ("model") or pencil ("pencil") file
MALFORMED_FIELDS = {
    "table_without_values": (
        "model",
        {"noise": {"kind": "table", "seed": 0, "params": {"probs": [1.0]}}},
    ),
    "string_sigma": ("model", {"noise": {"kind": "gaussian", "seed": 0, "params": {"sigma": "x"}}}),
    "negative_seed": ("model", {"noise": {"kind": "gaussian", "seed": -1}}),
    "fractional_seed": ("model", {"noise": {"kind": "gaussian", "seed": 2.5}}),
    "string_burn_in": ("model", {"noise": {"kind": "gaussian", "seed": 0, "burn_in": "x"}}),
    "list_params": ("model", {"noise": {"kind": "gaussian", "seed": 0, "params": [1, 2]}}),
    "nan_sigma": (
        "model",
        {"noise": {"kind": "gaussian", "seed": 0, "params": {"sigma": float("nan")}}},
    ),
    "inf_eps": (
        "model",
        {"noise": {"kind": "bernoulli_scaled", "seed": 0, "params": {"eps": float("inf")}}},
    ),
    "nan_table_value": (
        "model",
        {
            "noise": {
                "kind": "table",
                "seed": 0,
                "params": {"values": [1.0, float("nan")], "probs": [0.5, 0.5]},
            }
        },
    ),
    # within np.isclose of 1, but beyond the sqrt(eps) that Generator.choice allows
    "probs_off_one": (
        "model",
        {
            "noise": {
                "kind": "table",
                "seed": 0,
                "params": {"values": [1.0, -1.0], "probs": [0.5, 0.500001]},
            }
        },
    ),
    "string_n": ("model", {"n": "x"}),
    "list_n": ("model", {"n": [1]}),
    "null_n": ("model", {"n": None}),
    "fractional_n": ("model", {"n": 2.7}),
    "digit_string_n": ("pencil", {"n": "2"}),
    "bool_n": ("pencil", {"n": True, "c0": [[[0.0, 0.0]]], "c1": [[[1.0, 0.0]]]}),
    "scalar_coeffs": ("pencil", {"coeffs": 5}),
    # 1x1 pencils that analyze cleanly when the degree is coerced
    "bool_degree": ("pencil", {"n": 1, "degree": True, "coeffs": [[[[0.0, 0.0]]], [[[1.0, 0.0]]]]}),
    "float_degree": ("pencil", {"n": 1, "degree": 1.0, "coeffs": [[[[0.0, 0.0]]], [[[1.0, 0.0]]]]}),
    "float_degree_2": (
        "pencil",
        {"n": 1, "degree": 2.0, "coeffs": [[[[0.0, 0.0]]], [[[1.0, 0.0]]], [[[1.0, 0.0]]]]},
    ),
}


@pytest.mark.parametrize("kind,patch", MALFORMED_FIELDS.values(), ids=list(MALFORMED_FIELDS))
def test_malformed_model_exits_3(kind, patch, matrix_model_file, matrix_pencil_file, tmp_path):
    source = matrix_model_file if kind == "model" else matrix_pencil_file
    doc = json.loads(Path(source).read_text()) | patch
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if kind == "model":
        argv = ["represent", "--model", str(path), "--form", "extended_s", "--T", "20"]
    else:
        argv = ["analyze", "--pencil", str(path)]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from gjrep.cli import main; sys.exit(main())", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(gjrep.__file__).parents[1])},
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("input error:")


def test_overflowing_model_is_a_numeric_failure(matrix_model_file, tmp_path, capsys):
    # finite entries whose products overflow: a typed error, not a LinAlgError
    doc = json.loads(Path(matrix_model_file).read_text())
    doc["a0"] = gio.encode_complex(1e308 * np.eye(2))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    argv = ["represent", "--model", str(path), "--form", "extended_ns", "--T", "20"]
    with pytest.warns(RuntimeWarning):
        assert main(argv) == 4
    assert "NumericError" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["5", "1.5"])
def test_represent_refuses_a_contour_around_a_second_root(radius, tmp_path, capsys):
    # a0 + a1 (z - 1) is also singular at z = 2: a contour of radius 1.5 or 5
    # around the unit root encloses it, and the pair no longer belongs to the
    # unit root alone
    model = ArmaModel(
        a0=np.eye(2), a1=np.diag([-1.0, -0.5]), f0=np.eye(2), f1=0.5 * np.eye(2), c=np.zeros(2)
    )
    path = tmp_path / "model.json"
    spec = NoiseSpec(kind="gaussian", dim=2, seed=0, burn_in=10)
    path.write_text(json.dumps(dump_model(model, spec)))
    argv = ["represent", "--model", str(path), "--form", "extended_ns", "--T", "50"]
    assert main(argv) == 0
    assert main([*argv, f"--radius={radius}"]) == 4
    assert "ClassificationInconclusive" in capsys.readouterr().err
