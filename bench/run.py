"""bispinor benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {verify_deep,sweep_export} \\
        --seed N --seconds S --trace {0,1}

The workload's inputs are drawn from --seed (see workloads.py).  With
--trace 0 the run times the workload for --seconds in a closed loop (one
client, one process at a time) and reports the end-to-end metrics:
items_per_s (registry samples or exported rows per second), setup_s (fresh
interpreter import of bispinor and bispinor.harness plus input generation,
median of the set-ups spread over the run) and peak_rss_mb.  With --trace 1 it runs one
repetition under the outside-in tracer (see tracer.py) and reports the
per-layer metrics.  Outputs are checked either way (see oracle.py).

Every metric, and the workload's own readings such as samples_per_s,
rows_per_s and failed_ratio, is printed as "metric <name> <value> <unit>",
the environment as one "env" line, and the last line is a JSON object with
the keys correct, attempted, failed and metrics.  Spans are written to
.bench_out/ in the checkout.

The program is imported from src/ of the checkout, never from an installed
copy; without src/bispinor the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread here and in every child, set before numpy loads.
os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import ROOT, SRC, SIZES, child_env, make_inputs

CALIBRATION_N = 300_000


def calibration_s() -> float:
    """A fixed pure-Python loop, timed to show host drift; informational
    only, it never scales a metric."""
    best = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_N):
            acc += i * i
        best.append(time.perf_counter() - t0)
    return statistics.median(best)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def setup_sample(workload: str, seed: int) -> float:
    """One set-up: a fresh interpreter importing bispinor and
    bispinor.harness, plus drawing the workload's inputs."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import bispinor, bispinor.harness"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=workloads.CHILD_TIMEOUT_S)
    t_import = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"error: cannot import bispinor from {SRC}:\n{proc.stderr}")
    t0 = time.perf_counter()
    make_inputs(workload, seed, SIZES[workload])
    return t_import + time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "bispinor" / "__init__.py").is_file():
        print(f"error: no bispinor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import bispinor
    if not Path(bispinor.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bispinor imported from {bispinor.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": SIZES[args.workload],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "loadavg": os.getloadavg(),
        "git_commit": git_commit(), "calibration_s_before": calibration_s(),
    }
    inputs = make_inputs(args.workload, args.seed, SIZES[args.workload])
    setups = []
    res = workloads.WORKLOADS[args.workload](
        inputs, args.seconds, bool(args.trace),
        between=lambda: setups.append(setup_sample(args.workload, args.seed)))
    env["calibration_s_after"] = calibration_s()
    env["loadavg_after"] = os.getloadavg()

    metrics = dict(res.metrics)
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
    for problem in res.problems[:50]:
        print(f"problem {problem}")
    print("env " + json.dumps(env))
    for name, (value, unit) in {**res.readings, **metrics}.items():
        print(f"metric {name} {value} {unit}")
    if not args.trace:
        print(f"metric failed_ratio {res.failed_ratio} ratio")
    print(json.dumps({
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
