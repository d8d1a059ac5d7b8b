"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for about a second, untraced and
traced, with small sweeps, and checks that the result line has exactly
the contract's keys, that every metric BENCHMARK.json names is emitted,
finite and in its declared unit, that no check failed, and that the
per-layer shares add up.  Then checks that the benchmark refuses to run,
without printing a result, in a copy that holds only BENCHMARK.json and
the benchmark's own files.  Exits 1 on the first problem.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
TINY = ["--seconds", "1", "--trials", "20000", "--setup-reps", "2"]


def fail(message: str):
    raise SystemExit(f"selftest: {message}")


def run(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(bench: dict, workload: str, trace: int) -> dict:
    proc = run([*bench["command"][1:], "--workload", workload, "--seed", "7", "--trace", str(trace), *TINY], ROOT)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: correct={result['correct']} failed={result['failed']} attempted={result['attempted']}\n"
             f"{proc.stdout.strip().splitlines()[-2]}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, metric in metrics.items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{label}: {name} = {value!r} is not a finite number")
        if metric["unit"] != declared[name]:
            fail(f"{label}: {name} has unit {metric['unit']!r}, BENCHMARK.json says {declared[name]!r}")
    return {name: metric["value"] for name, metric in metrics.items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    names = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    for rule in table["moves"]:
        if not set(rule["metrics"] + rule["moves"]) <= names:
            fail(f"metrics.json names metrics BENCHMARK.json lacks: {sorted(set(rule['metrics'] + rule['moves']) - names)}")

    for workload in (w["name"] for w in bench["workloads"]):
        check_result(bench, workload, 0)
        layers = check_result(bench, workload, 1)
        shares = sum(v for k, v in layers.items() if k.endswith(".self_pct")) + layers["trace.uncovered_pct"]
        if not abs(shares - 100.0) < 1e-6:
            fail(f"{workload}: self shares plus uncovered add to {shares}, not 100")
        if layers["cli.main.calls"] != 1.0:
            fail(f"{workload}: cli.main.calls = {layers['cli.main.calls']}, expected 1 per request")
        if workload == "sweep-pure" and layers["hyperbolic.fidelity_hyperbolic.rows"] != 0:
            fail("sweep-pure: the hyperbolic route received rows")
        if workload == "cli-scalar" and layers["qubit.random_bloch_indexed.calls"] != 0:
            fail("cli-scalar: the sampler ran")
        print(f"selftest: {workload} ok", flush=True)

    # Without the program's sources the benchmark must fail, and print no result.
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    workload = bench["workloads"][0]["name"]
    proc = run([*bench["command"][1:], "--workload", workload, "--seed", "7", "--trace", "0", *TINY], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"a copy without sources exited {proc.returncode} with stdout {proc.stdout[:200]!r}")
    print("selftest: bare copy refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
