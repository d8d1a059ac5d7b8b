"""Cross-route comparison reports and deterministic verification sweeps.

Every fidelity in this package can be computed three ways: the matrix
definition, the closed Bloch form, and the hyperbolic rapidity formula.
``compare`` joins the routes valid for one pair of states into a report;
``sweep`` drives them over seeded Monte Carlo samples and summarizes the
disagreement.  Trials are keyed by (seed, index), so a sweep returns the
same result for any partition of the index range into blocks, not
merely a statistically equivalent one.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hyperbolic import _hyperbolic_fidelity
from .measures import _closed_fidelity, _matrix_fidelity, _trace_distance
from .qubit import (
    PURE_NORM,
    REGIMES,
    _check_int,
    _checked_bloch,
    _density_entries,
    _dot3,
    _norm3,
    _xyz,
    random_bloch_indexed,
)

__all__ = ["FidelityReport", "SweepSummary", "compare", "sweep"]

# Norm bands for the regime flags on a report: within NEAR_PURE_BAND of
# the sphere counts as near_pure, below NEAR_MIXED_BAND as near_mixed.
NEAR_PURE_BAND = 1e-3
NEAR_MIXED_BAND = 1e-3

# Trials per sweep block.  Measured on a 2-core Xeon with numpy 2.4.6,
# a 1e6-trial sweep took 3.8-4.1 s at 16384, 4.2 s at 1024 (per-call
# overhead) and 4.6-5.1 s at 262144 and above (intermediates fall out of
# cache).  Peak RSS was 51 MB at 16384, 79 MB at 65536 and 566 MB with
# the whole range in one block.
_BLOCK = 16384

# Largest trial count a sweep accepts.  The per-trial spreads live in one
# float64 array, 8 bytes per trial, so the cap bounds that array at
# 32 GiB; larger counts are refused before anything is allocated.
_MAX_TRIALS = 2**32


@dataclass(frozen=True)
class FidelityReport:
    """All routes computed for one pair, with their worst disagreement.

    ``f_hyperbolic`` is None when either input is flagged pure: the
    rapidity route is undefined there and ``max_pairwise_diff`` covers
    only the routes actually computed.
    """

    u: tuple
    v: tuple
    f_matrix: float
    f_hyperbolic: Optional[float]
    f_closed: float
    d_trace: float
    max_pairwise_diff: float
    regime_flags: frozenset


@dataclass(frozen=True)
class SweepSummary:
    """Disagreement statistics over a seeded batch of trials."""

    trials: int
    seed: int
    regime_u: str
    regime_v: str
    max_diff: float
    mean_diff: float
    p99_diff: float
    worst_u: tuple
    worst_v: tuple
    worst_index: int
    elapsed_seconds: float


def _flags(ru: float, rv: float) -> frozenset:
    flags = set()
    if ru > PURE_NORM:
        flags.add("pure_u")
    if rv > PURE_NORM:
        flags.add("pure_v")
    if (1.0 - NEAR_PURE_BAND < ru <= PURE_NORM) or (1.0 - NEAR_PURE_BAND < rv <= PURE_NORM):
        flags.add("near_pure")
    if ru < NEAR_MIXED_BAND or rv < NEAR_MIXED_BAND:
        flags.add("near_mixed")
    return frozenset(flags)


def _routes(u, v, ru, rv):
    """The three route fidelities of each pair and their largest difference.

    Takes trusted Bloch vectors u, v of any leading shape and their norms
    ru, rv, and returns (f_matrix, f_closed, f_hyperbolic, spread).  This
    is the one place that decides where the hyperbolic route applies: on
    pairs with either norm above PURE_NORM it runs on norms clipped to
    PURE_NORM and u.v set to 0, so it stays finite, and is then masked to
    NaN; fmax leaves NaN out of the spread.
    """
    dot = _dot3(u, v)
    f_closed = _closed_fidelity(dot, ru, rv)
    f_matrix = _matrix_fidelity(_density_entries(*_xyz(u)), _density_entries(*_xyz(v)))
    pure = (ru > PURE_NORM) | (rv > PURE_NORM)
    f_hyp = _hyperbolic_fidelity(
        np.where(pure, 0.0, dot), np.minimum(ru, PURE_NORM), np.minimum(rv, PURE_NORM)
    )
    f_hyp = np.where(pure, np.nan, f_hyp)
    spread = np.fmax(
        np.abs(f_matrix - f_closed),
        np.fmax(np.abs(f_hyp - f_matrix), np.abs(f_hyp - f_closed)),
    )
    return f_matrix, f_closed, f_hyp, spread


def compare(u, v) -> FidelityReport:
    """Compute every route valid for (u, v) and report their spread.

    Never raises on pure inputs; the hyperbolic route is simply omitted
    and flagged.
    """
    u, ru = _checked_bloch(u)
    v, rv = _checked_bloch(v)
    if u.shape != (3,) or v.shape != (3,):
        raise ValueError("compare takes a single pair of Bloch vectors")
    f_matrix, f_closed, f_hyp, spread = (float(x) for x in _routes(u, v, ru, rv))
    return FidelityReport(
        u=tuple(u.tolist()),
        v=tuple(v.tolist()),
        f_matrix=f_matrix,
        f_hyperbolic=None if math.isnan(f_hyp) else f_hyp,
        f_closed=f_closed,
        d_trace=float(_trace_distance(u, v)),
        max_pairwise_diff=spread,
        regime_flags=_flags(float(ru), float(rv)),
    )


def _route_spread(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized max pairwise route difference, one value per pair.

    Takes the sampler's output as it is: random_bloch_indexed only
    returns vectors in the closed unit ball, so nothing is re-validated.
    """
    return _routes(u, v, _norm3(*_xyz(u)), _norm3(*_xyz(v)))[3]


def sweep(seed, trials: int, regime_u: str, regime_v: str) -> SweepSummary:
    """Run ``trials`` seeded comparisons and summarize the route spread.

    The trial at index i always sees the same pair of states, so the
    summary (elapsed aside) is a pure function of (seed, trials,
    regime_u, regime_v).  Trials run in fixed index blocks whose
    per-trial values land in one array that is reduced in index order,
    so the output is identical for any block partition of the range.
    Ties for the worst pair resolve to the lowest trial index.

    ``trials`` may not exceed 2**32: the per-trial spreads take 8 bytes
    each.  A count above that cap, or one whose spread array cannot be
    allocated, raises ValueError.
    """
    start = time.perf_counter()
    seed = _check_int(seed, "seed", 0, 2**64)
    trials = _check_int(trials, "trials", 1, _MAX_TRIALS + 1)
    for regime in (regime_u, regime_v):
        if regime not in REGIMES:
            raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")

    try:
        diffs = np.empty(trials)
    except MemoryError:
        raise ValueError(
            f"trials={trials} needs {8 * trials} bytes for the per-trial spreads, "
            "more than this process can allocate"
        ) from None
    for lo in range(0, trials, _BLOCK):
        hi = min(lo + _BLOCK, trials)
        idx = np.arange(lo, hi)
        u = random_bloch_indexed(seed, regime_u, idx, stream=0)
        v = random_bloch_indexed(seed, regime_v, idx, stream=1)
        diffs[lo:hi] = _route_spread(u, v)

    worst = int(np.argmax(diffs))
    # fsum is exactly rounded, so the mean cannot depend on partitioning.
    mean = math.fsum(diffs) / trials
    worst_u = random_bloch_indexed(seed, regime_u, worst, stream=0)
    worst_v = random_bloch_indexed(seed, regime_v, worst, stream=1)

    return SweepSummary(
        trials=trials,
        seed=seed,
        regime_u=regime_u,
        regime_v=regime_v,
        max_diff=float(diffs[worst]),
        mean_diff=float(mean),
        p99_diff=float(np.percentile(diffs, 99.0)),
        worst_u=tuple(float(x) for x in worst_u),
        worst_v=tuple(float(x) for x in worst_v),
        worst_index=worst,
        elapsed_seconds=time.perf_counter() - start,
    )
