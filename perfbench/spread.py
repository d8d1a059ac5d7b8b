"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads sweep-ball cli-scalar --seeds 10 --seconds 20

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
range as a share of the median, next to the metric's bound from
BENCHMARK.json; a spread above a third of the bound is flagged.  With
``--trace`` it adds one traced run per workload.  ``--out`` writes every
value and the summary to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {"report": json.loads(lines[-2])["report"], "result": json.loads(lines[-1])}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = run_once(workload, seed, args.seconds, 0)
            runs.append(run)
            result = run["result"]
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                          "values": values}
            flag = "" if spread < bound / 3 else "   <-- above a third of the bound"
            print(f"  {name:16s} median {median:14.6g}  spread {spread:7.4f}  bound {bound}{flag}")
        summary[workload] = {
            "all_correct": all(run["result"]["correct"] for run in runs),
            "stamp": {key: runs[0]["report"][key] for key in ("nproc", "python", "numpy", "git_commit", "src_sha256")},
            "end_to_end": rows,
        }
        if args.trace:
            traced = run_once(workload, args.first_seed, args.seconds, 1)
            summary[workload]["per_layer"] = {
                name: m["value"] for name, m in traced["result"]["metrics"].items()}
            summary[workload]["traced_minus_untraced"] = traced["report"]["traced_minus_untraced"]
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
