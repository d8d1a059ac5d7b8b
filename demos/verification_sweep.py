#!/usr/bin/env python3
"""Monte Carlo verification that all fidelity routes agree.

Runs a seeded sweep for every sampling-regime combination and prints the
worst and typical disagreement between routes.  Rerunning with the same
seed reproduces every number exactly, and the worst pair of any sweep can
be re-derived from its seed and trial index alone.
"""

import numpy as np

import buresgeo as bg

SEED = 12345
TRIALS = 50_000

header = (
    f"{'regime_u':>12} x {'regime_v':<12} {'max diff':>10} {'mean diff':>10}"
    f" {'p99 diff':>10} {'worst trial':>11} {'time':>7}"
)
print(header)
print("-" * len(header))

worst_overall = 0.0
for regime_u in bg.REGIMES:
    for regime_v in bg.REGIMES:
        s = bg.sweep(SEED, TRIALS, regime_u, regime_v)
        worst_overall = max(worst_overall, s.max_diff)
        print(
            f"{regime_u:>12} x {regime_v:<12} {s.max_diff:>10.3e} {s.mean_diff:>10.3e}"
            f" {s.p99_diff:>10.3e} {s.worst_index:>11d} {s.elapsed_seconds:>6.2f}s"
        )

print(f"\nworst disagreement over {16 * TRIALS} pairs: {worst_overall:.3e}")

# Determinism: the same seed gives the same summary, bit for bit.
one = bg.sweep(SEED, 10_000, "near_pure", "uniform_ball")
two = bg.sweep(SEED, 10_000, "near_pure", "uniform_ball")
same = one._replace(elapsed_seconds=0.0) == two._replace(elapsed_seconds=0.0)
print(f"\ntwo runs, same seed: summaries equal (elapsed aside) = {same}")

# The worst pair can always be re-derived from (seed, trial index) alone.
u = bg.random_bloch_indexed(SEED, "near_pure", one.worst_index, stream=0)
v = bg.random_bloch_indexed(SEED, "uniform_ball", one.worst_index, stream=1)
print(f"worst u from summary   : {np.array(one.worst_u)}")
print(f"worst u re-derived     : {u}")
print(f"worst pair spread      : {one.max_diff:.3e} in the summary,"
      f" {bg.compare(u, v).max_pairwise_diff:.3e} re-derived")
