"""Pipeline benchmark of gjrep: checked ``analyze`` and ``represent`` workloads.

    python3 pipebench/run.py --workload pencil-deck|paths-mid \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs in worker
processes of its own (``worker.py``): several set-up-only processes give
the median set-up time, then one process sets up, runs whole rounds of the
workload's operations for ``--seconds`` and checks every output.  With
``--trace 1`` that process spends half the time untraced and half traced,
then one round under ``tracemalloc``, and reports the per-layer split
instead of the end-to-end metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; details go to
``.pipebench/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pencil-deck", "paths-mid")
SETUP_SAMPLES = 7  # set-up-only processes plus the measured one
DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("work_s", "s"), ("max_op_ms", "ms"), ("peak_rss_mb", "MB"))


def run_worker(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Start one worker; return its result and the seconds from start to ready."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - started)
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def main() -> int:
    parser = argparse.ArgumentParser(description="gjrep pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gjrep" / "__init__.py").is_file():
        print(f"no gjrep sources under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_worker(args, ["--setup-only"], deadline)[1])
        result, setup = run_worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    setups.append(setup)
    result["setup_samples_s"] = setups

    if args.trace:
        layers = result["per_layer"]
        metrics = {k: {"value": layers[k], "unit": spans.UNITS[k]} for k in sorted(spans.UNITS)}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "work_s": result["work_s"],
            "max_op_ms": result["max_op_ms"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    out_dir = ROOT / ".pipebench"
    out_dir.mkdir(exist_ok=True)
    detail = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(dict(result, metrics=metrics), indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: kernels {result['impl']}, "
          f"BLAS threads {result['blas_threads']}, {result['rounds']} untraced rounds")
    for name, ms in result["op_ms"].items():
        print(f"  {name:<24} {ms:10.1f} ms")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
