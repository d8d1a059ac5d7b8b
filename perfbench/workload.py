"""Run one benchmark workload in this process and print its raw figures.

Started by ``run.py`` as a fresh child process, so that the peak
resident memory it reports belongs to this workload alone.  Every
request goes through ``buresgeo.cli.main`` in process, single-threaded,
in a closed loop: the next request starts when the previous one has
returned and been checked.  Only the ``cli.main`` call is timed.  A
failed check is counted, never raised.

The last line of stdout is one JSON object with the raw figures.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import buresgeo  # noqa: E402
from buresgeo import cli  # noqa: E402
from buresgeo.qubit import random_bloch_indexed  # noqa: E402  (unwrapped: checks stay untraced)
from spans import Tracer  # noqa: E402

SWEEP_TOLERANCE = 1e-10
ROUTE_TOLERANCE = 1e-10
TRACE_TOLERANCE = 1e-12
PHI_W_RELATIVE = 1e-9
# Norms this close to 1 count as exactly pure, as in the package's own
# closed form; otherwise rounding of |n| would leak ~1e-8 into the radical.
EXACT_PURE_NORM = 1.0 - 1e-13

SWEEP_REGIMES = {"sweep-ball": ("uniform_ball", "uniform_ball"), "sweep-pure": ("pure", "near_pure")}
WARMUP_TRIALS = 10_000
QUIET_SHARE = 0.05
ELAPSED = re.compile(r'"elapsed_seconds":[^,}]*')


# ---------------------------------------------------------------------------
# Reference values, computed with math from the inputs the benchmark sent.
# ---------------------------------------------------------------------------


def _norm(u) -> float:
    return math.sqrt(math.fsum(x * x for x in u))


def _dot(u, v) -> float:
    return math.fsum(a * b for a, b in zip(u, v))


def _gap(r: float) -> float:
    return 0.0 if r > EXACT_PURE_NORM else max((1.0 - r) * (1.0 + r), 0.0)


def closed_fidelity(u, v) -> float:
    return 0.5 * (1.0 + _dot(u, v)) + 0.5 * math.sqrt(_gap(_norm(u)) * _gap(_norm(v)))


def composed_gamma(u, v) -> float:
    ru, rv = _norm(u), _norm(v)
    return (1.0 + _dot(u, v)) / math.sqrt((1.0 - ru) * (1.0 + ru) * (1.0 - rv) * (1.0 + rv))


# ---------------------------------------------------------------------------
# Checks.  Each returns a list of failure messages; empty means correct.
# Malformed output raises instead, and the caller counts that as a failure.
# ---------------------------------------------------------------------------


def _result(out: str, command: str) -> dict:
    """The ``result`` of the one envelope that ``out`` must consist of."""
    if out.count("\n") != 1 or not out.endswith("\n"):
        raise ValueError(f"{command}: expected one stdout line, got {out.count(chr(10))}")
    env = json.loads(out)
    if env.get("schema_version") != "1" or env.get("command") != command:
        raise ValueError(f"{command}: envelope lacks schema_version '1' or command {command!r}")
    return env["result"]


def check_fidelity(out: str, u, v, flags: set) -> list:
    failures = []
    res = _result(out, "fidelity")
    expected = closed_fidelity(u, v)
    for route in ("f_matrix", "f_closed", "f_hyperbolic"):
        value = res[route]
        if value is None and route == "f_hyperbolic" and ({"pure_u", "pure_v"} & flags):
            continue
        if value is None or not abs(value - expected) <= ROUTE_TOLERANCE:
            failures.append(f"fidelity {route}={value!r} vs closed form {expected!r}")
    if res["f_hyperbolic"] is not None and {"pure_u", "pure_v"} & flags:
        failures.append("fidelity: hyperbolic route ran on a pure input")
    d_expected = 0.5 * math.dist(u, v)
    if not abs(res["d_trace"] - d_expected) <= TRACE_TOLERANCE:
        failures.append(f"fidelity d_trace={res['d_trace']!r} vs {d_expected!r}")
    if not flags <= set(res["regime_flags"]):
        failures.append(f"fidelity regime_flags {res['regime_flags']} lack {sorted(flags)}")
    return failures


def check_triangle_json(out: str, u, v, samples: int) -> list:
    failures = []
    res = _result(out, "triangle")
    gw = composed_gamma(u, v)
    if not abs(math.cosh(res["phi_w"]) - gw) <= PHI_W_RELATIVE * gw:
        failures.append(f"triangle cosh(phi_w)={math.cosh(res['phi_w'])!r} vs gamma_u gamma_v (1+u.v)={gw!r}")
    lengths = {edge: len(points) for edge, points in res["polylines"].items()}
    if lengths != {"AB": samples, "AC": samples, "BC": samples}:
        failures.append(f"triangle polyline lengths {lengths}, expected {samples} each")
    return failures


def check_triangle_csv(out: str, samples: int) -> list:
    lines = out.splitlines()
    if not out.endswith("\n") or lines[:1] != ["edge,index,x,y"]:
        return ["triangle csv: missing header edge,index,x,y"]
    rows = lines[1:]
    if len(rows) != 3 * samples:
        return [f"triangle csv: {len(rows)} rows, expected {3 * samples}"]
    for row in rows:
        edge, index, x, y = row.split(",")
        if edge not in ("AB", "AC", "BC") or not (math.isfinite(float(x)) and math.isfinite(float(y))):
            return [f"triangle csv: bad row {row!r}"]
    return []


def check_verify(out: str, seed: int, regimes, trials: int) -> list:
    failures = []
    res = _result(out, "verify")
    if res["trials"] != trials:
        failures.append(f"verify ran {res['trials']} trials, asked {trials}")
    if not res["max_diff"] <= SWEEP_TOLERANCE:
        failures.append(f"verify max_diff {res['max_diff']!r} > {SWEEP_TOLERANCE}")
    index = res["worst_index"]
    for stream, key in enumerate(("worst_u", "worst_v")):
        sampled = [float(x) for x in random_bloch_indexed(seed, regimes[stream], index, stream=stream)]
        if res[key] != sampled:
            failures.append(f"verify {key} {res[key]} differs from the sampler at {index}: {sampled}")
    return failures


def canonical(out: str) -> str:
    """The output with its one run-dependent field, a sweep's elapsed time, removed."""
    return ELAPSED.sub("", out)


# ---------------------------------------------------------------------------
# Request streams.  A round is a list of (argv, check(stdout) -> failures);
# every round holds new requests, so nothing a program caches is reused.
# ---------------------------------------------------------------------------


def _triple(flag: str, x) -> str:
    # repr round-trips exactly; "=" keeps a leading minus from reading as a flag.
    return f"{flag}=" + ",".join(repr(float(c)) for c in x)


class Sweep:
    """``verify`` requests of ROUND_SHARE of the full size, one per round.

    The seed advances by one each round.  One full-size request runs
    first, checked but not timed, so that the peak memory is that of the
    full sweep.  Full-size rounds would last seconds each, too long to
    find quiet rounds on a shared host.
    """

    ROUND_SHARE = 10

    def __init__(self, name: str, seed: int, trials: int):
        self.regimes = SWEEP_REGIMES[name]
        self.seed = seed
        self.trials = trials
        self.pairs_per_request = trials // self.ROUND_SHARE
        self.rounds = 0
        self.params = {"full_trials": trials, "round_trials": self.pairs_per_request,
                       "regime_u": self.regimes[0], "regime_v": self.regimes[1],
                       "round": "one verify request, seed advancing by 1 per round"}

    def _request(self, seed: int, trials: int):
        argv = ["verify", "--seed", str(seed), "--trials", str(trials),
                "--regime-u", self.regimes[0], "--regime-v", self.regimes[1]]
        return argv, lambda out: check_verify(out, seed, self.regimes, trials)

    def warmup(self):
        return [self._request(self.seed, WARMUP_TRIALS)]

    def full_size(self):
        return [self._request(self.seed, self.trials)]

    def next_round(self):
        seed = (self.seed + self.rounds) % 2**64
        self.rounds += 1
        return [self._request(seed, self.pairs_per_request)]


class CliScalar:
    """One 12-request cycle per round: 8 fidelity, 4 triangle (2 JSON, 2 CSV).

    The kinds, regimes and sizes follow the cycle position, so the calls
    each layer sees per request do not depend on the seed; the states
    themselves come from the seeded generator.
    """

    # position -> (kind, detail)
    CYCLE = (
        ("fidelity", "ball"), ("fidelity", "ball"), ("triangle", ("json", 32)),
        ("fidelity", "pure_u"), ("fidelity", "ball"), ("triangle", ("csv", 16)),
        ("fidelity", "near_mixed"), ("fidelity", "ball"), ("triangle", ("json", 64)),
        ("fidelity", "near_pure"), ("fidelity", "pure_uv"), ("triangle", ("csv", 24)),
    )
    pairs_per_request = 1

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.params = {"cycle": self.CYCLE}

    def _direction(self):
        d = self.rng.normal(size=3)
        return d / np.linalg.norm(d)

    def _state(self, radius):
        return [float(x) for x in radius * self._direction()]

    def _ball(self):
        # Capped below 1 - 1e-9 so the rapidity route always applies.
        return self._state(0.999 * np.cbrt(self.rng.random()))

    def _fidelity(self, detail: str):
        flags = set()
        u, v = self._ball(), self._ball()
        if detail == "pure_u":
            u, flags = self._state(1.0), {"pure_u"}
        elif detail == "pure_uv":
            u, v, flags = self._state(1.0), self._state(1.0), {"pure_u", "pure_v"}
        elif detail == "near_mixed":
            u, flags = self._state(0.9e-3 * self.rng.random()), {"near_mixed"}
        elif detail == "near_pure":
            u = self._state(1.0 - 10.0 ** self.rng.uniform(-8.5, -3.5))
            v = self._state(1.0 - 10.0 ** self.rng.uniform(-8.5, -3.5))
            flags = {"near_pure"}
        argv = ["fidelity", _triple("--u", u), _triple("--v", v)]
        return argv, lambda out: check_fidelity(out, u, v, flags)

    def _triangle(self, fmt: str, samples: int):
        u = self._state(self.rng.uniform(0.05, 0.95))
        v = self._state(self.rng.uniform(0.05, 0.95))
        argv = ["triangle", _triple("--u", u), _triple("--v", v),
                "--samples-per-edge", str(samples), "--format", fmt]
        if fmt == "csv":
            return argv, lambda out: check_triangle_csv(out, samples)
        return argv, lambda out: check_triangle_json(out, u, v, samples)

    def next_round(self):
        return [self._fidelity(detail) if kind == "fidelity" else self._triangle(*detail)
                for kind, detail in self.CYCLE]

    warmup = next_round

    def full_size(self):
        return []


# ---------------------------------------------------------------------------


def call(argv):
    """Run one in-process CLI request; return (exit code, stdout, stderr, ns)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        code = cli.main(argv)
        elapsed = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Tally:
    """Sends requests, checks them, and counts attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.tracer = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def run_round(self, requests):
        """Send every request in order; return (latencies in ns, digest of the outputs)."""
        digest = hashlib.sha256()
        latencies = []
        for argv, check in requests:
            if self.tracer is not None:
                self.tracer.request = self.attempted
            code, out, err, elapsed = call(argv)
            failures = [] if code == 0 else [f"exit code {code}"]
            if err:
                failures.append(f"stderr not empty: {err.strip()[:200]}")
            if code == 0:
                try:
                    failures += check(out)
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    failures.append(f"malformed output: {exc!r}")
            self.attempted += 1
            if failures:
                self.fail(f"{' '.join(argv)}: {'; '.join(failures)}")
            digest.update(canonical(out).encode())
            latencies.append(elapsed)
        return latencies, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=("sweep-ball", "sweep-pure", "cli-scalar"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "buresgeo":
        raise SystemExit(f"buresgeo imported from {cli.__file__}, not from {ROOT / 'src'}")

    if args.workload == "cli-scalar":
        workload = CliScalar(args.seed)
    else:
        workload = Sweep(args.workload, args.seed, args.trials)

    # Warm up, then send the same requests again: a repeat must print the
    # same outputs (a sweep's elapsed time aside).  Then the untimed
    # full-size request, if the workload has one.
    tally = Tally()
    warmup = workload.warmup()
    first = tally.run_round(warmup)[1]
    if tally.run_round(warmup)[1] != first:
        tally.fail("a repeated request printed different output")

    full_size_s = [ns / 1e9 for ns in tally.run_round(workload.full_size())[0]]

    tracer = None
    if args.trace:
        tracer = tally.tracer = Tracer()
        tracer.install(buresgeo)

    rounds, digests = [], []
    wall_start = time.perf_counter_ns()
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        latencies, digest = tally.run_round(workload.next_round())
        rounds.append(latencies)
        digests.append(digest)
    wall_ns = time.perf_counter_ns() - wall_start

    every = np.concatenate(rounds).astype(float)
    # Other tenants of a shared host only ever add time, in bursts.  The
    # rate and the median come from the quietest rounds, the fastest
    # QUIET_SHARE of them (at least one); p99 is over every request.
    quiet_count = max(1, math.ceil(QUIET_SHARE * len(rounds)))
    quiet = np.concatenate(sorted(rounds, key=sum)[:quiet_count]).astype(float)
    report = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "rounds": len(rounds),
        "requests": len(every),
        "quiet_rounds": quiet_count,
        "quiet_requests": len(quiet),
        "pairs_per_request": workload.pairs_per_request,
        "busy_s": every.sum() / 1e9,
        "quiet_busy_s": quiet.sum() / 1e9,
        "wall_s": wall_ns / 1e9,
        "request_p50_us": float(np.percentile(quiet, 50.0)) / 1e3,
        "request_p99_us": float(np.percentile(every, 99.0)) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "full_size_s": full_size_s,
        "round_digests": digests,
        "params": workload.params,
        "numpy": np.__version__,
    }
    if tracer is not None:
        report["layers"] = {name: {"calls": c, "rows": r, "self_s": s / 1e9}
                            for name, (c, r, s) in tracer.stats.items()}
        report["root_s"] = tracer.root_ns() / 1e9
        report["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write_csv(args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
