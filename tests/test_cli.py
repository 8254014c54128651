"""Command-line behavior: reports, exit codes, determinism."""

import argparse
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
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
    projections,
    sin_basis,
    solve_at,
    unpack_laurent,
)
from gjrep import cli
from gjrep import io as gio
from gjrep.cli import main
from gjrep.io import dump_model, dump_pencil
from gjrep.pencil import _max_norm
from oracles import annulus_estimate_literal, jordan_similarity, report_text


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
    # the closed form against a direct solve at z = 1 + radius / 2, the one
    # route that shares no code with the contour
    resolvent = solve_at(make("matrix", eps=0.5).pencil, 1.0 + rep["radius"] / 2)
    assert rep["closed_form_error"] <= 1e-10 * np.linalg.norm(resolvent, 2)
    assert not {"fundamental", "separation"} & set(rep)
    # the report keeps the determining pair and its norms, and of Q = C_1 T_{-1}
    # only the rank: the pair rebuilds the rest
    assert set(rep["laurent"]) == {"-1", "0"}
    assert set(rep["laurent_norms"]) == {"-1", "0"}
    assert set(rep["projections"]) == {"domain_sin", "domain_sin_rank", "range_sin_rank"}


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
    # the closed-form error is rounding of the resolvent, whose norm is 1 / s
    scaled = LinearPencil(s * pencil.c0, s * pencil.c1)
    resolvent = solve_at(scaled, 1.0 + got["radius"] / 2)
    assert got["closed_form_error"] <= 1e-10 * np.linalg.norm(resolvent, 2)


def test_analyze_c0_with_a_nearly_singular_slope(tmp_path):
    # C_1 of c0 at lam = 0.05 has singular values down to 3.9e-11: the anchor's
    # cluster keeps the pencil's scale, so the contour circles the pole alone
    entry = make("c0", lam=0.05)
    rep = _analyze_report(entry.pencil, tmp_path)
    assert rep["singularity"] == {"kind": "pole", "order": 2}
    assert rep["radius"] == pytest.approx(4.75, rel=1e-12)
    assert rep["annulus"]["outer"] == pytest.approx(19.0, rel=1e-12)
    got = _written_pair(rep)
    assert np.abs(got.t_minus_one - entry.basic.t_minus_one).max() <= 1e-12
    assert np.abs(got.t_zero - entry.basic.t_zero).max() <= 1e-12
    assert rep["projections"]["domain_sin_rank"] == sin_basis(entry.pencil).shape[1] == 2


@pytest.mark.parametrize("n", [12, 14, 20])
def test_analyze_reads_a_long_pole_as_a_finite_principal_part(n, tmp_path):
    # C_0 = J_n(0), C_1 = I: ||T_{-k}|| = ||J^{k-1}|| = 1 up to k = n, so the
    # twelve principal terms of the root test never show the sum ending.
    # The class does: a pole's principal part is finite, so s_hat is 0
    rep = _analyze_report(LinearPencil(np.eye(n, k=1), np.eye(n)), tmp_path)
    assert rep["singularity"] == {"kind": "pole", "order": n}
    assert rep["annulus"]["inner"] == 0.0


# inner radii of Volterra truncations: n = 11 ends inside the root test's
# twelve terms, and the class still calls for the test
VOLTERRA_INNER = {11: 0.3455141196031962, 16: 0.3865135918441724, 64: 0.45403339512556556}


@pytest.mark.parametrize("n", VOLTERRA_INNER)
def test_analyze_gives_a_truncation_the_root_test(n, tmp_path):
    pencil = make("volterra", n=n).pencil
    rep = _analyze_report(pencil, tmp_path)
    assert rep["singularity"] == {"kind": "essential_at_truncation", "order": n}
    # the same float as the all-SVD root test over the orbit of the same pair
    basic = basic_solution(pencil, radius=default_radius(pencil))
    want, _ = annulus_estimate_literal(basic, pencil, "essential_at_truncation")
    assert rep["annulus"]["inner"] == want
    assert want == pytest.approx(VOLTERRA_INNER[n], rel=1e-12)


def test_analyze_polynomial(tmp_path):
    rng = np.random.default_rng(5)
    c0 = np.array([[1.0], [0.5]]) @ np.array([[1.0, -1.0]])
    poly = PolynomialPencil((c0, rng.standard_normal((2, 2)), 0.3 * np.eye(2)))
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(dump_pencil(poly)))
    out = tmp_path / "rep.json"
    assert main(["analyze", "--pencil", str(path), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    # the pair's identities are the polynomial's block by block: no window
    # of the unpacked table is checked again, and its keys are gone
    assert rep["polynomial"].keys() == {"degree", "base_dim", "unpack_disagreement"}
    assert rep["polynomial"]["degree"] == 2
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


@pytest.mark.parametrize("case", [*PAIR_PENCILS, "similarity"])
def test_written_pair_rebuilds_range_sin_and_its_rank(case, tmp_path):
    # Q = C_1 T_{-1} is one product of the pencil with the written pair: the
    # same operation as projections(), so the same bits, real pencils included
    pencil = {**PAIR_PENCILS, "similarity": _similarity_pencil}[case]()
    report = _analyze_report(pencil, tmp_path)
    rebuilt = pencil.c1 @ _written_pair(report).t_minus_one
    basic = basic_solution(pencil, radius=default_radius(pencil))
    assert np.array_equal(rebuilt, projections(basic, pencil).range_sin)
    assert round(np.trace(rebuilt).real) == report["projections"]["range_sin_rank"]


def test_polynomial_unpack_scale_is_the_largest_exact_norm():
    # the unpack bound's scale is the pair's own exact norms, the SVD ones;
    # the screened maximum that measures the spread is exact too, here over
    # the ten blocks of a window, bit for bit
    aug = augment(_degree2_pencil())
    basic = basic_solution(aug, radius=default_radius(aug))
    pair = (basic.t_minus_one, basic.t_zero)
    assert basic.norms == tuple(float(np.linalg.norm(t, 2)) for t in pair)
    table = _live_table(aug)
    assert len(table) == 10
    want = max(float(np.linalg.norm(block, 2)) for block in table.values())
    assert _max_norm(table.values()) == want


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
    mats.append(report["projections"]["domain_sin"])
    for mat in mats:
        arr = np.asarray(mat)
        assert arr.dtype == np.float64 and arr.shape == (12, 12, 2)
        assert np.all(arr[..., 1] == 0.0)


def test_written_augmented_pair_rebuilds_the_polynomial_table(tmp_path):
    poly = _degree2_pencil()
    report = _analyze_report(poly, tmp_path)
    aug = augment(poly)
    rebuilt = laurent_range(_written_pair(report), aug, -3, 6)
    got, got_spread = unpack_laurent(poly, rebuilt)
    want, want_spread = unpack_laurent(poly, _live_table(aug))
    assert got_spread == want_spread
    # the report's spread is that of the written pair alone
    written = _written_pair(report)
    pair = {-1: written.t_minus_one, 0: written.t_zero}
    assert unpack_laurent(poly, pair)[1] == report["polynomial"]["unpack_disagreement"]
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


def test_one_value_settings_are_gone(matrix_pencil_file, matrix_model_file):
    # each of these keywords had one value in use; it is a module constant now
    # or, for the probe's noise scale, gone because it changed no result
    removed = {
        gjrep.basic_solution: ("nodes", "tol", "verify_tol"),
        gjrep.contour_coefficients: ("start_nodes", "tol", "js"),
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
        gjrep.projections: ("tol",),
        gjrep.verify_fundamental: ("tol",),
    }
    for fn, keywords in removed.items():
        for keyword in keywords:
            # an unknown keyword fails the call before the missing positional
            # arguments are counted and before the body runs
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
                fn(**{keyword: None})
    assert not hasattr(gjrep, "laurent_coefficient")
    # augment returns the linear pencil, and its offsets are the pencil's own
    for name in ("AugmentedPencil", "singular_offsets"):
        assert not hasattr(gjrep, name), name
    # laurent_range returns its dict, and projections checks nothing that
    # basic_solution has not already checked
    for name in ("LaurentExpansion", "ProjectionError"):
        assert not hasattr(gjrep, name), name
    assert not hasattr(gjrep.LinearPencil, "scale")
    # the separation blocks are sums of the defects that basic_solution
    # bounds, so analyze no longer checks them a second time
    for name in ("separate", "SeparationReport"):
        assert not hasattr(gjrep, name), name
        assert not hasattr(gjrep.pencil, name), name
    # the verdicts read TOL_FUND; no report carries it
    for report in (gjrep.FundamentalReport, gjrep.SplitReport):
        assert "tol" not in {f.name for f in dataclasses.fields(report)}
    # the probe's cuts are PROBE_THRESHOLDS; no report carries them
    assert "thresholds" not in {f.name for f in dataclasses.fields(gjrep.ProbeReport)}
    # the analyze tolerances are module constants: argparse rejects the flags
    for flag in ("--tol-solve", "--tol-contour", "--tol-fund"):
        assert main(["analyze", "--pencil", matrix_pencil_file, flag, "1e-9"]) == 3, flag
    assert not hasattr(gjrep, "BlockInconsistent")
    # an unknown flag is a usage error, whatever its value
    assert main(["analyze", "--pencil", matrix_pencil_file, "--nodes", "32"]) == 3
    # represent takes the pair as its one contour input and reads TOL_REP;
    # the pair's caller picks the radius
    for keyword in ("tol_rep", "radius"):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            gjrep.represent(**{keyword: None})
    fields = {f.name for f in dataclasses.fields(gjrep.RepresentationReport)}
    assert not fields & {"tol_rep", "budgets"}
    rep = ["represent", "--model", matrix_model_file, "--form", "extended_ns", "--T", "20"]
    assert main([*rep, "--tol-rep", "1e-6"]) == 3
    # analyze writes JSON only: its one-choice --format is gone
    assert main(["analyze", "--pencil", matrix_pencil_file, "--format", "json"]) == 3
    # no caller but the tests passed a presample or called these names; the
    # extended forms read A_0 and A_1 from the model, not from the pencil
    with pytest.raises(TypeError, match="unexpected keyword argument 'presample_x'"):
        gjrep.reduce_arma([np.eye(2)] * 2, [np.eye(2)]).model(presample_x=np.zeros((1, 2)))
    for name in ("closed_form_parts", "max_principal_angle"):
        assert not hasattr(gjrep, name), name
    assert not hasattr(gio, "trajectory_to_csv")
    for name in ("a0", "a1"):
        assert not hasattr(gjrep.LinearPencil, name), name


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
    assert "budgets" not in rep and rep["tol_rep"] == 1e-6


def _scaled(pencil, s):
    """The same pencil with every coefficient times s: its resolvent is R / s."""
    if isinstance(pencil, PolynomialPencil):
        return PolynomialPencil(tuple(s * c for c in pencil.coeffs))
    return LinearPencil(s * pencil.c0, s * pencil.c1)


def _analyze_code(pencil, tmp_path, *flags) -> int:
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(dump_pencil(pencil)))
    return main(
        ["analyze", "--pencil", str(path), "--out", str(tmp_path / "report.json"), *flags]
    )


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


def _deck_sim16() -> LinearPencil:
    """The first member of the benchmark deck of seed 0 (``sim16``), built by
    ``pipebench/inputs.py``, which shares no code with the package."""
    path = Path(__file__).resolve().parents[1] / "pipebench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("pipebench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # the dataclasses look their module up
    try:
        spec.loader.exec_module(inputs)
        member = inputs.build_deck(0)[0]
    finally:
        del sys.modules[spec.name]
    assert member.name == "sim16"
    return LinearPencil(member.c0, member.c1)


def _balanced_plant(mat, n):
    """``_plant(mat)`` with the same error taken off entry (n, n): on the
    augmented pair of a degree-2 pencil the two copies of one block move
    apart and their average stays as it was."""
    out = _plant(mat)
    out[n, n] -= out[0, 0] - mat[0, 0]
    return out


@pytest.mark.parametrize(
    "make_pencil",
    [
        lambda: make("c0").pencil,
        lambda: make("matrix").pencil,
        _deck_sim16,
        lambda: _degree2_pencil(),
    ],
    ids=["c0", "matrix", "sim16", "degree2"],
)
def test_closed_form_fails_a_pair_planted_past_the_identities(
    make_pencil, tmp_path, monkeypatch
):
    # the pair passes basic_solution's identity check and only then takes a
    # relative 1e-6 error: the closed form against a direct solve reads
    # 6.4e-8 to 1.0e-6 of ||R(z)||, 64 times the bound or more, at every
    # scale.  A polynomial's augmented pair also takes the error balanced
    # across two copies of one block: the closed form and the copies'
    # spread each read 280 times their bounds or more
    real = cli.basic_solution
    pencil = make_pencil()
    plants = [_plant]
    if isinstance(pencil, PolynomialPencil):
        plants.append(lambda mat: _balanced_plant(mat, pencil.dim))
    for scale in (1e-8, 1.0, 1e10):
        for j in (None, -1, 0):
            for plant in plants:
                def planted(*args, **kwargs):
                    basic = real(*args, **kwargs)
                    pair = [basic.t_minus_one, basic.t_zero]
                    if j is not None:
                        pair[j + 1] = plant(pair[j + 1])
                    return BasicSolution(*pair)

                monkeypatch.setattr(cli, "basic_solution", planted)
                want = 0 if j is None else 2
                code = _analyze_code(_scaled(pencil, scale), tmp_path)
                assert code == want, (scale, j, plant)


def test_linear_analyze_runs_no_fundamental_window(matrix_pencil_file, tmp_path, monkeypatch):
    # the window, the table it reads and the projections the report does not
    # write are sums or products of the identities that basic_solution has
    # checked: neither pencil kind builds them, a polynomial one included,
    # whose augmented identities are its own block by block
    calls = []
    for module, name in (
        (gjrep.pencil, "verify_fundamental"),
        (cli, "laurent_range"),
        (cli, "projections"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
        )
    out = str(tmp_path / "r.json")
    assert main(["analyze", "--pencil", matrix_pencil_file, "--out", out]) == 0
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(dump_pencil(_degree2_pencil())))
    assert main(["analyze", "--pencil", str(poly), "--out", out]) == 0
    assert calls == []


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

    def planted(poly, coefficients):
        n = poly.dim
        big = coefficients[0].copy()
        # blocks (0, 0) and (1, 1) are the two copies of T_0; the balanced
        # error leaves their average, and so the fundamental check, as it was
        error = _plant(big[:n, :n]) - big[:n, :n]
        big[:n, :n] += error
        if balanced:
            big[n:, n:] -= error
        return real(poly, {**coefficients, 0: big})

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
    assert "annulus" in rep

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
    # the default radius is eps / 2, held to 1e-9 of itself: at 5e7 its
    # rounding is 1.5e-8, which an absolute 1e-9 failed
    assert main(["demo", "--name", "matrix", "--param", "eps=1e8"]) == 0
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


DEMO_ENTRIES = (
    ("c0", {}),
    ("c0", {"lam": 0.99}),
    ("matrix", {"eps": 0.01}),
    ("matrix", {"eps": 1e8}),
    ("volterra", {"n": 2}),
    ("volterra", {"n": 64}),
)
# (expected key, check, index into DEMO_ENTRIES): every coefficient check on
# the c0 and matrix entries, and the Volterra norm, exact at every n
DEMO_PLANTS = [
    *(
        (key, check, i)
        for key, check in (
            ("t_neg", "principal_coefficients"),
            ("t_pos", "regular_coefficients"),
            ("resolvent", "resolvent_law"),
            ("default_radius", "default_radius"),
        )
        for i in range(4)
    ),
    ("operator_norm", "operator_norm", 4),
    ("operator_norm", "operator_norm", 5),
]


@pytest.mark.parametrize(
    "key, check, i",
    DEMO_PLANTS,
    ids=[f"{key}-{check}-{DEMO_ENTRIES[i][0]}-params{i}" for key, check, i in DEMO_PLANTS],
)
def test_demo_coefficient_checks_fail_a_planted_relative_error(key, check, i):
    name, params = DEMO_ENTRIES[i]
    entry = make(name, **params)
    exact = entry.expected[key]
    wrong = (
        (lambda arg: (1 + 1e-6) * exact(arg)) if callable(exact) else (1 + 1e-6) * exact
    )
    planted = dataclasses.replace(entry, expected={**entry.expected, key: wrong})
    def verdict(e):
        return {ch["check"]: ch["passed"] for ch in cli._demo_checks(e)}[check]

    assert verdict(entry) is True
    assert verdict(planted) is False


def test_analyze_exits_4_when_the_contour_does_not_settle(tmp_path, capsys):
    # c0 at n = 3 has its nearest offset at 3: a radius of 2.997 puts a node
    # within 3e-3 of that pole, and no grid up to MAX_NODES settles
    assert _analyze_code(make("c0", n=3).pencil, tmp_path, "--radius", "2.997") == 4
    assert "ContourNotConverged" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_demo_volterra_checks_its_outer_radius(monkeypatch, capsys):
    # the Volterra kernel has no finite offset: its outer radius is inf
    assert main(["demo", "--name", "volterra"]) == 0
    assert "PASS volterra.annulus_outer" in capsys.readouterr().out
    real = cli.annulus_estimate
    monkeypatch.setattr(cli, "annulus_estimate", lambda b, p, c: (real(b, p, c)[0], 5.0))
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


@pytest.fixture
def eigvals_calls(monkeypatch):
    """One entry per ``scipy.linalg.eigvals`` call made from here on."""
    real = scipy.linalg.eigvals
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals", counting)
    return calls


def test_analyze_takes_one_spectrum_per_pencil(matrix_pencil_file, tmp_path, eigvals_calls):
    # the contour radius and the outer radius read one set of offsets
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(dump_pencil(_degree2_pencil())))
    for path in (matrix_pencil_file, str(poly)):
        eigvals_calls.clear()
        assert main(["analyze", "--pencil", path, "--out", str(tmp_path / "r.json")]) == 0
        assert len(eigvals_calls) == 1, path


def test_represent_takes_one_spectrum_per_model(tmp_path, eigvals_calls):
    # the pair and the decomposition read one pencil of the model, so its
    # offsets take one eigenvalues-only QZ
    e = make("c0")
    eye = np.eye(10)
    model = ArmaModel(e.pencil.c0 - e.pencil.c1, e.pencil.c1, eye, 0.5 * eye, np.ones(10))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(dump_model(model, NoiseSpec(kind="gaussian", dim=10, seed=0))))
    argv = ["represent", "--model", str(path), "--form", "extended_ns", "--T", "50"]
    assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    assert len(eigvals_calls) == 1


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
    # every command streams its report through the one private writer
    written = []
    real = gio._write_report

    def recording(report, fh):
        written.append(report)
        real(report, fh)

    monkeypatch.setattr(gio, "_write_report", recording)
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    (report,) = written
    assert out.read_text() == report_text(report)


@pytest.mark.parametrize("command", ["analyze", "represent", "demo"])
def test_unwritable_out_is_an_input_error(
    command, matrix_pencil_file, matrix_model_file, tmp_path, capsys
):
    argv, bad_input = {
        "analyze": (["analyze", "--pencil", matrix_pencil_file], "--radius=nan"),
        "represent": (
            ["represent", "--model", matrix_model_file, "--form", "extended_s", "--T", "20"],
            "--radius=nan",
        ),
        "demo": (["demo", "--name", "matrix", "--format", "json"], "--param=eps=nan"),
    }[command]
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert main([*argv, "--out", str(out)]) == 3, out
        assert f"input error: cannot write {out}" in capsys.readouterr().err
    # a run that fails before its report leaves an existing file as it was
    kept = tmp_path / "kept.json"
    kept.write_text("old")
    assert main([*argv, bad_input, "--out", str(kept)]) == 3
    assert kept.read_text() == "old"


def test_analyze_streams_a_large_report(tmp_path):
    # Volterra at n = 128 (C_0 strictly lower with entries 1/n, C_1 = -(I - C_0)):
    # its report is 2.9 MB (3.8 MB while it carried range_sin).  Built whole,
    # the 3.8 MB text and its list of leaves held a traced peak of 15.0 MB;
    # streamed a matrix row at a time, the run peaks at about 9.2 MB, mostly
    # the pencil file's JSON and the analysis
    n = 128
    v = np.tril(np.full((n, n), 1.0 / n), -1)
    path = tmp_path / "volterra128.json"
    path.write_text(json.dumps(dump_pencil(LinearPencil(v, -(np.eye(n) - v)))))
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert main(["analyze", "--pencil", str(path), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 2_800_000
    assert peak <= 11e6, peak


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
    # finite entries near the top of the range: a typed error, not a
    # LinAlgError.  The contour circles a quarter of the offset (about 1e308),
    # so no node overflows; the node resolvents are subnormal, the doubling
    # never settles, and the run stops at MAX_NODES, with no warning
    doc = json.loads(Path(matrix_model_file).read_text())
    doc["a0"] = gio.encode_complex(1e308 * np.eye(2))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    argv = ["represent", "--model", str(path), "--form", "extended_ns", "--T", "20"]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    name = re.match(r"numeric failure: (\w+):", err).group(1)
    assert name == "ContourNotConverged"
    assert issubclass(getattr(gjrep, name), gjrep.NumericError)


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


def test_readme_documents_every_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [
        f"{command} {flag}"
        for command, subparser in sub.choices.items()
        for action in subparser._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
        and not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", readme)
    ]
    assert missing == []


def _report_keys(report: dict) -> set[str]:
    """Every key of a JSON report, the keys of nested objects included."""
    keys = set(report)
    for value in report.values():
        if isinstance(value, dict):
            keys |= _report_keys(value)
    return keys


def test_readme_documents_every_report_key(matrix_pencil_file, matrix_model_file, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("### Report format")
    section = readme[start : readme.index("\n## ", start)]
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(dump_pencil(_degree2_pencil())))
    out = tmp_path / "report.json"
    keys = set()
    for argv in (
        ["analyze", "--pencil", matrix_pencil_file],
        ["analyze", "--pencil", str(poly)],
        ["represent", "--model", matrix_model_file, "--form", "extended_s", "--T", "20"],
    ):
        assert main([*argv, "--out", str(out)]) == 0, argv
        keys |= _report_keys(json.loads(out.read_text()))
    # each key is named in code style or quoted: `dim`, `"-1"`, `annulus.inner`
    missing = sorted(
        key for key in keys if not re.search(rf'[`".]{re.escape(key)}[`".]', section)
    )
    assert missing == []
