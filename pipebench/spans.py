"""Span recorder that measures each ``gjrep`` layer from outside the program.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper wherever the original is bound (``cli`` and
``represent`` import names into their own namespaces).  Each call records a
span (name, layer, start, end, parent) in memory; a layer's self time is the
sum over its spans of the duration minus the time its child spans cover.
Counters hooked to a few functions record work done: contour nodes, stack
bytes, report bytes, convolution multiply-adds and recursion steps.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("pencil", "chains", "augment", "arma", "represent", "kernels", "io", "cli")

# public function -> the per-layer time metric its self time adds to
LAYERS = {
    "pencil.contour_coefficients": "pencil.contour_ms",
    "pencil.contour_coefficient": "pencil.contour_ms",
    "pencil.default_radius": "pencil.radius_ms",
    "pencil.singular_offsets": "pencil.radius_ms",
    "pencil.basic_solution": "pencil.checks_ms",
    "pencil.basic_residuals": "pencil.checks_ms",
    "pencil.verify_fundamental": "pencil.checks_ms",
    "pencil.projections": "pencil.checks_ms",
    "pencil.separate": "pencil.checks_ms",
    "pencil.solve_at": "pencil.checks_ms",
    "pencil.closed_form_resolvent": "pencil.checks_ms",
    "pencil.closed_form_parts": "pencil.checks_ms",
    "pencil.classify_singularity": "pencil.classify_ms",
    "pencil.annulus_estimate": "pencil.annulus_ms",
    "pencil.laurent_range": "pencil.laurent_ms",
    "pencil.laurent_coefficient": "pencil.laurent_ms",
    "chains.singular_chain": "chains.basis_ms",
    "chains.regular_chain": "chains.basis_ms",
    "chains.sin_basis": "chains.basis_ms",
    "chains.reg_basis": "chains.basis_ms",
    "chains.max_principal_angle": "chains.basis_ms",
    "augment.augment": "augment.ms",
    "augment.unpack_laurent": "augment.ms",
    "augment.verify_polynomial_fundamental": "augment.ms",
    "augment.reduce_arma": "augment.ms",
    "augment.direct_recursion": "augment.ms",
    "arma.simulate_noise": "arma.noise_ms",
    "arma.ma1_g": "arma.noise_ms",
    "arma.diff_neg": "arma.noise_ms",
    "arma.diff_pos": "arma.noise_ms",
    "arma.simulate_recursion": "arma.oracle_ms",
    "represent.coeff_u": "represent.coeff_ms",
    "represent.coeff_v": "represent.coeff_ms",
    "represent.coeff_q": "represent.coeff_ms",
    "represent.coeff_r": "represent.coeff_ms",
    "represent.natural_budget": "represent.budget_ms",
    "represent.k_vector": "represent.budget_ms",
    "represent.cointegration_probe": "represent.probe_ms",
    "represent.represent": "represent.self_ms",
    "represent.split_projection": "represent.self_ms",
    "represent.integration_order": "represent.self_ms",
    "kernels.arma_recursion": "kernels.recursion_ms",
    "kernels.causal_stack_apply": "kernels.convolution_ms",
    "io.dumps_report": "io.encode_ms",
    "io.json_ready": "io.encode_ms",
    "io.encode_complex": "io.encode_ms",
    "io.dump_pencil": "io.encode_ms",
    "io.dump_model": "io.encode_ms",
    "io.components_to_csv": "io.encode_ms",
    "io.trajectory_to_csv": "io.encode_ms",
    "io.load_pencil": "io.load_ms",
    "io.load_model": "io.load_ms",
    "io.decode_complex": "io.load_ms",
    "cli.main": "cli.self_ms",
    "cli.build_parser": "cli.self_ms",
    "cli.cmd_analyze": "cli.self_ms",
    "cli.cmd_represent": "cli.self_ms",
    "cli.cmd_demo": "cli.self_ms",
}

# small helpers called in inner loops: their time stays in the caller's self time
INLINE = {"pencil.spectral_norm", "pencil.as_matrix", "pencil.as_vector"}

# recursive through their module global: only the outermost call is a span
RECURSIVE = {"io.encode_complex", "io.json_ready"}

ROOT_LAYER = "bench.self_ms"  # the benchmark's own share of a timed operation


def _contour_nodes(counts, args, kwargs, result):
    counts["pencil.contour_nodes"] += result[1]["nodes"]


def _stack_bytes(counts, args, kwargs, result):
    counts["represent.stack_mb"] += result.nbytes / 1e6


def _report_bytes(counts, args, kwargs, result):
    counts["io.report_mb"] += len(result) / 1e6


def _convolution_macs(counts, args, kwargs, result):
    stack, signal = args[0], args[1]
    s, n, t = stack.shape[0], stack.shape[1], signal.shape[0]
    # sum_{t'<t} min(t'+1, s) multiply-adds of n x n blocks
    full = max(0, t - s)
    ramp = min(t, s)
    counts["kernels.convolution_macs"] += n * n * (ramp * (ramp + 1) // 2 + full * s)


def _recursion_steps(counts, args, kwargs, result):
    drive = args[1]
    counts["kernels.recursion_steps"] += drive.shape[0] * drive.shape[2]


COUNTERS = {
    "pencil.contour_coefficients": _contour_nodes,
    "represent.coeff_u": _stack_bytes,
    "represent.coeff_v": _stack_bytes,
    "represent.coeff_q": _stack_bytes,
    "represent.coeff_r": _stack_bytes,
    "io.dumps_report": _report_bytes,
    "kernels.causal_stack_apply": _convolution_macs,
    "kernels.arma_recursion": _recursion_steps,
}

TIME_METRICS = tuple(sorted(set(LAYERS.values()))) + (ROOT_LAYER,)
COUNT_UNITS = {
    "pencil.contour_nodes": "count",
    "represent.stack_mb": "MB",
    "io.report_mb": "MB",
    "kernels.convolution_macs": "count",
    "kernels.recursion_steps": "count",
}
UNITS = {
    **dict.fromkeys(TIME_METRICS, "ms"),
    **COUNT_UNITS,
    "trace.layer_share": "ratio",
    "trace.work_s": "s",
    "trace.overhead_s": "s",
    "trace.peak_mb": "MB",
}


def public_functions(module) -> dict[str, object]:
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """In-memory spans plus counters; one instance per traced phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.unmapped: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the wrappers and the benchmark's root spans use it."""
        spans, stack = self.spans, self.stack
        index = len(spans)
        record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
        spans.append(record)
        stack.append(index)
        record[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def _wrap(self, module, key: str, fn):
        layer = LAYERS[key]
        counter = COUNTERS.get(key)
        span = self.span

        if key in RECURSIVE:
            attr = key.split(".", 1)[1]

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                setattr(module, attr, fn)  # inner recursion calls the original
                try:
                    return span(key, layer, fn, *args, **kwargs)
                finally:
                    setattr(module, attr, traced)

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = span(key, layer, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and rebind every ``gjrep`` name bound to them."""
        for short in MODULES:
            module = importlib.import_module(f"gjrep.{short}")
            for name, fn in public_functions(module).items():
                key = f"{short}.{name}"
                if key in INLINE:
                    continue
                if key not in LAYERS:
                    self.unmapped.append(key)
                    continue
                wrapper = self._wrap(module, key, fn)
                for bound in [m for n, m in sys.modules.items() if n == "gjrep" or n.startswith("gjrep.")]:
                    for attr, value in list(vars(bound).items()):
                        if value is fn:
                            setattr(bound, attr, wrapper)
                            self._undo.append((bound, attr, fn))

    def uninstall(self) -> None:
        for bound, attr, fn in reversed(self._undo):
            setattr(bound, attr, fn)
        self._undo.clear()

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time per layer, in seconds, over spans ``first`` .. ``last - 1``."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for record in spans:
            parent = record[4] - first
            if 0 <= parent < len(spans):
                child[parent] += record[3] - record[2]
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for record, covered in zip(spans, child):
            out[record[1]] += record[3] - record[2] - covered
        return out
