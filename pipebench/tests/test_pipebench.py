"""Tests of the pipeline benchmark's own checks and tracer.

    python3 -m pytest pipebench/tests -q

The checks must pass on correct outputs for more than one seed and must
fail on planted errors: a relative 1e-6 error in one decomposition
component, and a ``T_0`` with its sign flipped.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SEEDS = (0, 7)  # the default seed and one other
SMALL = ("sim16", "cascade8", "poly12")
T_SMALL = 300


def _deck_ops(seed, tmp_path):
    deck = [m for m in inputs.build_deck(seed) if m.name in SMALL]
    files = inputs.write_deck(deck, tmp_path)
    return [worker.DeckOp(m, files[m.name], seed) for m in deck]


def _read(op):
    return worker.json.loads(op.report_path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
def test_deck_checks_pass_on_correct_reports(seed, tmp_path):
    for op in _deck_ops(seed, tmp_path):
        assert op.check(op.run(), {}) == [], op.name


@pytest.mark.parametrize("seed", SEEDS)
def test_flipped_t_zero_fails(seed, tmp_path):
    for op in _deck_ops(seed, tmp_path):
        op.run()
        report = _read(op)
        t_0 = inputs.decode(report["laurent"]["0"])
        if op.member.linear:
            t_0 = -t_0
        else:  # T_0 is the diagonal blocks of the augmented T_0
            n = op.member.dim
            t_0[:n, :n] *= -1.0
        report["laurent"]["0"] = inputs.encode(t_0)
        problems = checks.deck_report(op.member, report)
        assert any(p.startswith("T_0") for p in problems), op.name


def _path_reports(seed):
    load = worker.PathsLoad(seed)
    ref = checks.PathReference(load.plain, T_SMALL)
    reports = [worker.represent.represent(f, load.model, load.spec, T_SMALL) for f in worker.represent.FORMS]
    return ref, reports


@pytest.mark.parametrize("seed", SEEDS)
def test_path_checks_pass_on_correct_reports(seed):
    ref, reports = _path_reports(seed)
    for report in reports:
        assert checks.path_report(ref, report, reports[0]) == [], report.form


@pytest.mark.parametrize("seed", SEEDS)
def test_planted_component_error_fails(seed):
    ref, reports = _path_reports(seed)
    for report in reports:
        for name, value in report.components.items():
            if not np.any(value):
                continue  # k_term of the _ns forms is identically zero
            planted = dict(report.components, **{name: value * (1.0 + 1e-6)})
            bad = dataclasses.replace(report, components=planted)
            problems = checks.path_report(ref, bad)
            assert any(p.startswith(name) for p in problems), (report.form, name)


def test_probe_check_fails_on_wrong_majority():
    fake = SimpleNamespace(majority="I(1)", counts={"I(1)": 60, "I(2)": 40})
    assert checks.probe_report(fake, "I(2)")
    assert not checks.probe_report(fake, "I(1)")


def test_every_public_function_has_a_layer():
    for short in spans.MODULES:
        module = worker.importlib.import_module(f"gjrep.{short}")
        for name in spans.public_functions(module):
            key = f"{short}.{name}"
            assert key in spans.LAYERS or key in spans.INLINE, key
    assert set(spans.RECURSIVE) <= set(spans.LAYERS)


def test_self_times_account_for_the_traced_work(tmp_path):
    op = _deck_ops(0, tmp_path)[0]
    load = worker.PathsLoad(0)
    original = worker.cli.basic_solution
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert worker.cli.basic_solution is not original
        tracer.span("op:analyze", spans.ROOT_LAYER, op.run)
        tracer.span(
            "op:represent", spans.ROOT_LAYER,
            worker.represent.represent, "extended_ns", load.model, load.spec, T_SMALL,
        )
    finally:
        tracer.uninstall()
    assert worker.cli.basic_solution is original
    roots = [s for s in tracer.spans if s[4] == -1]
    total = sum(s[3] - s[2] for s in roots)
    layers = tracer.self_times()
    assert sum(layers.values()) == pytest.approx(total, rel=1e-9)
    for layer in ("cli.self_ms", "io.encode_ms", "pencil.contour_ms", "represent.self_ms",
                  "kernels.convolution_ms", "kernels.recursion_ms", "chains.basis_ms"):
        assert layers[layer] > 0, layer
    assert tracer.counts["pencil.contour_nodes"] >= 64
    n = load.plain.dim
    assert tracer.counts["kernels.convolution_macs"] == n * n * (T_SMALL + 1) * (T_SMALL + 2) // 2
    assert tracer.counts["kernels.recursion_steps"] == T_SMALL + 1
    assert tracer.unmapped == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paths-mid",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
