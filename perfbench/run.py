"""Outside-in benchmark for buresgeo.

    python3 perfbench/run.py --workload sweep-ball --seed 1 --seconds 25 --trace 0

Run from the repository root (or any copy of it).  buresgeo is imported
from ``src/`` of that copy; nothing is installed.  Workloads:

  sweep-ball  ``verify`` on uniform-ball pairs: one untimed 1e6-pair request
              for peak memory, then timed 1e5-pair requests.  Every route
              and the sampler run on every pair.
  sweep-pure  the same on pure x near-pure pairs: the hyperbolic route
              gets no rows, sqrt_density takes its spectral branch.
  cli-scalar  a seeded stream of single ``fidelity`` and ``triangle``
              requests, where per-call overhead dominates.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics
from a traced run, plus the tracing overhead measured against an
untraced run made just before it.  The line above it is a report with
the raw figures, sample counts, failures and the machine stamp.
Each run happens in a fresh child process (``workload.py``), one at a
time.  Exit status is 0 when a result was printed, 2 when the source
tree is missing, and 1 when a child process could not run.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_NAMES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_PY = Path(__file__).resolve().parent / "workload.py"

WORKLOADS = ("sweep-ball", "sweep-pure", "cli-scalar")
SWEEP_TRIALS = 1_000_000
SETUP_REPS = 16
# A run must end within 180 s; children get what is left of this budget.
BUDGET_S = 170.0

SETUP_ARGV = ["-m", "buresgeo.cli", "fidelity", "--u=0.5,0,0", "--v=0,0.5,0"]
SETUP_FIDELITY = 0.875


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(reps: int, deadline: float):
    """Wall times of fresh ``python -m buresgeo.cli fidelity`` processes.

    Returns (times, failure messages).  Each process is checked like any
    other request.
    """
    times, failures = [], []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1.0))
        times.append(time.perf_counter() - start)
        try:
            envelope = json.loads(proc.stdout)
            ok = (proc.returncode == 0 and proc.stdout.count("\n") == 1
                  and envelope["schema_version"] == "1"
                  and abs(envelope["result"]["f_closed"] - SETUP_FIDELITY) <= 1e-10)
        except (json.JSONDecodeError, KeyError, TypeError):
            ok = False
        if not ok:
            failures.append(f"setup process exit {proc.returncode}: {proc.stdout[:200]!r} {proc.stderr[:200]!r}")
    return times, failures


def run_child(args, trace: int, deadline: float, spans_out=None) -> dict:
    argv = [sys.executable, str(WORKLOAD_PY), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trials", str(args.trials), "--trace", str(trace)]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(child: dict) -> dict:
    requests_per_s = child["quiet_requests"] / child["quiet_busy_s"]
    return {
        "pairs_per_s": requests_per_s * child["pairs_per_request"],
        "requests_per_s": requests_per_s,
        "request_p50_us": child["request_p50_us"],
        "request_p99_us": child["request_p99_us"],
        "peak_rss_mb": child["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    requests, wall = traced["requests"], traced["wall_s"]
    metrics = {}
    for name in LAYER_NAMES:
        layer = traced["layers"][name]
        metrics[f"{name}.calls"] = (layer["calls"] / requests, "count/req")
        metrics[f"{name}.rows"] = (layer["rows"] / requests, "count/req")
        metrics[f"{name}.self_pct"] = (100.0 * layer["self_s"] / wall, "%")
    metrics["trace.wall_per_request_us"] = (1e6 * wall / requests, "us")
    metrics["trace.uncovered_pct"] = (100.0 * (wall - traced["root_s"]) / wall, "%")
    slowdown = end_to_end(untraced)["requests_per_s"] / end_to_end(traced)["requests_per_s"]
    metrics["trace.overhead_pct"] = (100.0 * (slowdown - 1.0), "%")
    return metrics


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "buresgeo").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in benchmark for buresgeo.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trials", type=int, default=SWEEP_TRIALS, help="sweep size (self-test only)")
    parser.add_argument("--setup-reps", type=int, default=SETUP_REPS, help="timed setup processes (self-test only)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64 or args.seconds <= 0 or args.trials < 1 or args.setup_reps < 1:
        parser.error("need 0 <= seed < 2**64, seconds > 0, trials >= 1, setup-reps >= 1")
    if not (SRC / "buresgeo" / "__init__.py").is_file():
        print(f"error: no buresgeo source tree under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }
    attempted, failed, failures = 0, 0, []
    try:
        if args.trace:
            untraced = run_child(args, 0, deadline)
            OUT.mkdir(exist_ok=True)
            spans_out = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            traced = run_child(args, 1, deadline, spans_out)
            children = [untraced, traced]
            report["spans_file"] = spans_out.relative_to(ROOT).as_posix()
        else:
            # One untimed start compiles the bytecode caches, as installing
            # would.  Half the timed starts run before the workload and half
            # after, so the median spans two moments of a shared host.
            _, failures = measure_setup(1, deadline)
            before, more = measure_setup(args.setup_reps // 2, deadline)
            untraced = run_child(args, 0, deadline)
            after, rest = measure_setup(args.setup_reps - args.setup_reps // 2, deadline)
            failures += more + rest
            attempted, failed = args.setup_reps + 1, len(failures)
            report["setup_reps"] = args.setup_reps
            report["setup_s"] = statistics.median(before + after)
            children = [untraced]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for child in children:
        attempted += child["attempted"]
        failed += child["failed"]
        failures += child["failures"]
    if args.trace:
        # Tracing must not change what the program prints.
        attempted += 1
        common = min(len(untraced["round_digests"]), len(traced["round_digests"]))
        if untraced["round_digests"][:common] != traced["round_digests"][:common]:
            failed += 1
            failures.append("outputs differ between the untraced and the traced run")

    report["numpy"] = untraced["numpy"]
    report["params"] = untraced["params"]
    report["full_size_s"] = untraced["full_size_s"]
    report["samples"] = {key: untraced[key] for key in ("rounds", "requests", "quiet_rounds", "quiet_requests")}
    if args.trace:
        metrics = per_layer(traced, untraced)
        report["traced_minus_untraced"] = {
            name: value - end_to_end(untraced)[name] for name, value in end_to_end(traced).items()}
        report["traced_samples"] = {key: traced[key] for key in ("rounds", "requests", "spans")}
    else:
        metrics = {"setup_s": (report["setup_s"], "s")}
        units = {"pairs_per_s": "1/s", "requests_per_s": "1/s", "request_p50_us": "us",
                 "request_p99_us": "us", "peak_rss_mb": "MB"}
        metrics.update({name: (value, units[name]) for name, value in end_to_end(untraced).items()})
    report["failed_fraction"] = failed / attempted
    report["failures"] = failures[:10]

    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
