"""One benchmark process: set up a workload, then time and check its operations.

``run.py`` starts this file once per set-up sample and once for the
measured run, so peak memory and set-up time belong to one workload.  It
prints one JSON object as its last line of output.

    python3 pipebench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]
"""

import os

# One BLAS thread, pinned before numpy loads: two threads on a two-core host
# add more noise than speed to the small dense solves in the pipeline.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the package runs from source, uninstalled

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

cli = importlib.import_module("gjrep.cli")
chains = importlib.import_module("gjrep.chains")
pencil = importlib.import_module("gjrep.pencil")
arma = importlib.import_module("gjrep.arma")
represent = importlib.import_module("gjrep.represent")
kernels = importlib.import_module("gjrep.kernels")

OUT_DIR = ROOT / ".pipebench"
MID_T = 2000
PROBE_T = 2000
PROBE_SEEDS = 100
PROBES = ((0, "I(2)"), (1, "I(1)"), (2, "I(0)"))  # coordinate of the functional, its order


class DeckOp:
    """``gjrep analyze`` through ``cli.main``, plus chain bases for linear members."""

    def __init__(self, member: inputs.DeckMember, pencil_path: Path, seed: int):
        self.name = f"analyze-{member.name}"
        self.member = member
        self.report_path = pencil_path.with_suffix(".report")
        self.argv = ["analyze", "--pencil", str(pencil_path), "--out", str(self.report_path)]
        if member.linear:
            self.sin_seed, self.reg_seed = inputs.chain_seeds(member, seed)
            self.p_sin = member.t_minus_one @ member.c1
            self.p_reg = member.t_zero @ member.c0

    def run(self):
        code = cli.main(self.argv)
        found = {}
        if self.member.linear:
            pen = pencil.LinearPencil(self.member.c0, self.member.c1)
            found["sin_basis"] = chains.sin_basis(pen)
            found["reg_basis"] = chains.reg_basis(pen)
            found["singular_chain"] = chains.singular_chain(pen, self.sin_seed, project=self.p_sin)
            if self.reg_seed is not None:
                found["regular_chain"] = chains.regular_chain(pen, self.reg_seed, project=self.p_reg)
        return code, found

    def check(self, output, round_state) -> list[str]:
        code, found = output
        if code != 0:
            return [f"analyze exited {code}"]
        with open(self.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        problems = checks.deck_report(self.member, report)
        if self.member.linear:
            problems += checks.deck_chains(self.member, found)
        return problems


class RepresentOp:
    def __init__(self, load: "PathsLoad", form: str, t_end: int):
        self.name = f"{form}-T{t_end}"
        self.load, self.form, self.t_end = load, form, t_end

    def run(self):
        return represent.represent(self.form, self.load.model, self.load.spec, self.t_end)

    def check(self, report, round_state) -> list[str]:
        # every form decomposes the same path: compare with the round's first
        previous = round_state.setdefault("first", report)
        return checks.path_report(self.load.reference, report, previous)


class ProbeOp:
    def __init__(self, load: "PathsLoad", coordinate: int, expected: str):
        self.name = f"probe-{expected}"
        self.load, self.expected = load, expected
        self.functional = np.eye(load.model.dim)[coordinate]

    def run(self):
        return represent.cointegration_probe(
            self.load.model,
            self.functional,
            t_end=PROBE_T,
            n_seeds=PROBE_SEEDS,
            base_seed=self.load.seed * PROBE_SEEDS,
        )

    def check(self, report, round_state) -> list[str]:
        return checks.probe_report(report, self.expected)


class DeckLoad:
    def __init__(self, seed: int, workdir: Path):
        deck = inputs.build_deck(seed)
        files = inputs.write_deck(deck, workdir)
        self.ops = [DeckOp(member, files[member.name], seed) for member in deck]

    def close(self) -> None:
        for op in self.ops:
            op.report_path.unlink(missing_ok=True)


class PathsLoad:
    def __init__(self, seed: int):
        self.seed = seed
        plain = inputs.c0_model(seed)
        self.model = arma.ArmaModel(a0=plain.a0, a1=plain.a1, f0=plain.f0, f1=plain.f1, c=plain.c)
        self.spec = arma.NoiseSpec(kind="gaussian", dim=plain.dim, seed=seed, burn_in=plain.presample)
        self.plain = plain
        self.ops = [RepresentOp(self, form, MID_T) for form in represent.FORMS]
        self.ops += [ProbeOp(self, j, label) for j, label in PROBES]

    @functools.cached_property
    def reference(self) -> checks.PathReference:
        # the path is the same in every round: build the reference once
        return checks.PathReference(self.plain, MID_T)

    def close(self) -> None:
        pass


def build(workload: str, seed: int):
    if workload == "pencil-deck":
        return DeckLoad(seed, OUT_DIR / f"pencil-deck-seed{seed}")
    if workload == "paths-mid":
        return PathsLoad(seed)
    raise SystemExit(f"unknown workload {workload!r}")


class Tally:
    """Operation times and outcomes over whole rounds."""

    def __init__(self, ops):
        self.times = {op.name: [] for op in ops}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, op, seconds: float, problems: list[str], wrong: bool) -> None:
        self.times[op.name].append(seconds)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += wrong
            self.problems.extend(f"{op.name}: {p}" for p in problems[:3])

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.times.items() if v}

    def work_s(self) -> float:
        return sum(self.medians().values())


def run_round(ops, tally: Tally, tracer: spans.Tracer | None) -> None:
    round_state: dict = {}
    for op in ops:
        gc.collect()  # every operation starts from the same collector state
        start = time.perf_counter()
        try:
            if tracer is None:
                output = op.run()
            else:
                output = tracer.span(f"op:{op.name}", spans.ROOT_LAYER, op.run)
        except Exception as exc:  # a program fault fails the operation, not the run
            tally.record(op, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"], False)
            continue
        seconds = time.perf_counter() - start
        try:
            problems = op.check(output, round_state)
        except Exception as exc:  # an output the checks cannot read is a wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        del output
        tally.record(op, seconds, problems, True)


def run_phase(ops, seconds: float, tally: Tally, tracer=None) -> list[tuple[int, int, dict]]:
    """Whole rounds until ``seconds`` have passed (at least one round).

    Returns, per round, the span index range and the counters it added.
    """
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        first = len(tracer.spans) if tracer else 0
        counts = dict(tracer.counts) if tracer else {}
        run_round(ops, tally, tracer)
        if tracer:
            added = {k: v - counts.get(k, 0.0) for k, v in tracer.counts.items()}
            rounds.append((first, len(tracer.spans), added))
        else:
            rounds.append((0, 0, {}))
    return rounds


def per_layer(tracer: spans.Tracer, rounds, traced: Tally, untraced: Tally, peak_bytes: int) -> dict:
    """Median over traced rounds of each layer's self time and counters."""
    samples: dict[str, list[float]] = {}
    for first, last, added in rounds:
        layer_s = tracer.self_times(first, last)
        for key, value in layer_s.items():
            samples.setdefault(key, []).append(value * 1e3)
        total = sum(layer_s.values())
        samples.setdefault("trace.layer_share", []).append(
            (total - layer_s[spans.ROOT_LAYER]) / total if total > 0 else 0.0
        )
        for key in spans.COUNT_UNITS:
            samples.setdefault(key, []).append(added.get(key, 0.0))
    out = {key: statistics.median(values) for key, values in samples.items()}
    out["trace.work_s"] = traced.work_s()
    out["trace.overhead_s"] = traced.work_s() - untraced.work_s()
    out["trace.peak_mb"] = peak_bytes / 1e6
    return out


def write_spans(tracer: spans.Tracer, workload: str, seed: int) -> Path:
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    doc = {
        "workload": workload,
        "seed": seed,
        "impl": kernels.IMPL,
        "fields": ["name", "layer", "start_s", "end_s", "parent"],
        "unmapped": tracer.unmapped,
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    OUT_DIR.mkdir(exist_ok=True)
    load = build(args.workload, args.seed)
    load.ops[0].run()  # warm-up: first calls, lazy imports and caches land in set-up
    ready = time.monotonic()
    result = {"ready": ready, "impl": kernels.IMPL, "blas_threads": os.environ[BLAS_VARS[0]]}
    if args.setup_only:
        load.close()
        print(json.dumps(result))
        return 0

    untraced = Tally(load.ops)
    budget = args.seconds / 2 if args.trace else args.seconds
    run_phase(load.ops, budget, untraced)
    result["rounds"] = len(untraced.times[load.ops[0].name])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    tallies = [untraced]
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        traced = Tally(load.ops)
        rounds = run_phase(load.ops, budget, traced, tracer)
        tracer.uninstall()
        # tracemalloc slows every allocation several-fold, so it gets a round
        # of its own and the span times above stay undistorted
        memory = Tally(load.ops)
        tracemalloc.start()
        run_round(load.ops, memory, None)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        result["per_layer"] = per_layer(tracer, rounds, traced, untraced, peak)
        result["traced_rounds"] = len(rounds)
        result["spans_file"] = str(write_spans(tracer, args.workload, args.seed).relative_to(ROOT))
        tallies += [traced, memory]
    load.close()

    medians = untraced.medians()
    slowest = max(medians, key=medians.get)
    result.update(
        attempted=sum(t.attempted for t in tallies),
        failed=sum(t.failed for t in tallies),
        correct=not any(t.wrong for t in tallies),
        problems=[p for t in tallies for p in t.problems][:20],
        op_ms={name: value * 1e3 for name, value in medians.items()},
        work_s=untraced.work_s(),
        max_op=slowest,
        max_op_ms=medians[slowest] * 1e3,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
