"""Smoke test of the benchmark at tiny sizes.

Usage, from the root of a checkout:  python3 bench/smoke.py

Runs every workload with and without tracing, each in a fresh process,
and checks that:
  * every metric BENCHMARK.json names is printed with its unit, and no other;
  * failed_ratio is 0 and the result is correct on the program as it stands;
  * the tracer leaves no patched name behind;
  * traced counts (calls, misses, samples, rows, bytes) repeat exactly for
    the same seed;
  * in a directory holding only BENCHMARK.json and bench/, run.py exits
    with a nonzero code and prints no result.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SEED = 11
TINY = {
    "verify_deep": {"samples": 4},
    "sweep_export": {"grid_points": 4, "n_gamma": 2, "n_beta": 1},
}
COUNT_UNITS = ("count", "bytes")


def child(workload: str, trace: str) -> int:
    """One run.py run at tiny sizes, followed by a line listing every
    bispinor name the run left rebound."""
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import tracer
    import workloads

    import bispinor.cli  # noqa: F401  (loads every bispinor module)

    def snapshot():
        names = {}
        for m in tracer.bispinor_modules():
            for key, value in vars(m).items():
                names[(m.__name__, key)] = value
                if isinstance(value, type) and value.__module__ == m.__name__:
                    for meth, fn in vars(value).items():
                        names[(m.__name__, key, meth)] = fn
        return names

    workloads.SIZES.update(TINY)
    before = snapshot()
    rc = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
                   "--trace", trace])
    after = snapshot()
    changed = [".".join(k) for k, v in before.items() if after.get(k) is not v]
    print("smoke-leftover " + json.dumps(changed + tracer.leftover_patches()))
    return rc


def run_child(workload: str, trace: int) -> tuple[list[str], dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", workload, str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.splitlines()
    errors = [] if proc.returncode == 0 else [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    try:
        leftover = json.loads(lines[-1].split(" ", 1)[1])
        result = json.loads(lines[-2])
    except (IndexError, ValueError) as exc:
        return lines, {}, errors + [f"unparseable output ({exc}): {proc.stdout[-2000:]}"]
    if leftover:
        errors.append(f"names left rebound: {leftover}")
    return lines, result, errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for w in spec["workloads"]:
        workload = w["name"]
        traced_counts = []
        for trace in (0, 1, 1):
            tag = f"{workload} trace={trace}"
            lines, result, errors = run_child(workload, trace)
            failures += [f"{tag}: {e}" for e in errors]
            if not result:
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want[trace]:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want[trace]))}")
            printed = {line.split()[1]: line.split()[-1]
                       for line in lines if line.startswith("metric ")}
            for name, unit in want[trace].items():
                if printed.get(name) != unit:
                    failures.append(f"{tag}: {name} not printed with unit {unit}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{tag}: not correct: {result['failed']}/{result['attempted']}"
                                f" failed; {[l for l in lines if l.startswith('problem')][:5]}")
            ratio = [l for l in lines if l.startswith("metric failed_ratio ")]
            if ratio != ["metric failed_ratio 0.0 ratio"]:
                failures.append(f"{tag}: failed_ratio line {ratio}")
            if trace:
                traced_counts.append({n: m["value"] for n, m in result["metrics"].items()
                                      if m["unit"] in COUNT_UNITS})
        if len(traced_counts) == 2 and traced_counts[0] != traced_counts[1]:
            diff = {n for n in traced_counts[0] if traced_counts[0][n] != traced_counts[1].get(n)}
            failures.append(f"{workload}: traced counts differ between runs: {sorted(diff)}")

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(spec["command"] + ["--workload", "sweep_export", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL " + f)
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        raise SystemExit(child(sys.argv[2], sys.argv[3]))
    raise SystemExit(main())
