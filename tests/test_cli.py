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

import gjrep
from gjrep import (
    ArmaModel,
    FundamentalResidualError,
    LinearPencil,
    NoiseSpec,
    PolynomialPencil,
    make,
)
from gjrep import cli
from gjrep import io as gio
from gjrep.cli import main
from gjrep.io import dump_model, dump_pencil
from oracles import j2_similarity, report_text


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
    assert set(rep["laurent"]) == {str(j) for j in range(-3, 7)}


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
    assert (
        main(["analyze", "--pencil", matrix_pencil_file, "--tol-fund", "-1e-9"]) == 3
    )
    assert main(["analyze", "--pencil", matrix_pencil_file, "--tol-fund", "0"]) == 3
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
        gjrep.LaurentExpansion: ("method", "radius", "inner_radius", "outer_radius"),
        gjrep.singular_chain: ("tol",),
        gjrep.regular_chain: ("tol",),
        gjrep.sin_basis: ("zero_tol",),
        gjrep.reg_basis: ("zero_tol", "rate_cap"),
        gjrep.split_projection: ("tol",),
        gjrep.cointegration_probe: ("sigma", "n_scales", "thresholds"),
        gjrep.unpack_laurent: ("tol",),
    }
    for fn, keywords in removed.items():
        for keyword in keywords:
            # an unknown keyword fails the call before the missing positional
            # arguments are counted and before the body runs
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
                fn(**{keyword: None})
    assert not hasattr(gjrep, "laurent_coefficient")
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


def test_demo_unknown_name():
    assert main(["demo", "--name", "unknown"]) == 3


def test_demo_json_format(tmp_path):
    out = tmp_path / "demo.json"
    assert main(["demo", "--name", "c0", "--format", "json", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["name"] == "c0"
    assert all(ch["passed"] for ch in rep["checks"])


def _similarity_pencil(n=8, seed=3):
    return LinearPencil(*j2_similarity(n, seed))


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
