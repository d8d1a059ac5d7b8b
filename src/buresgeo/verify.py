"""Cross-route comparison reports and deterministic verification sweeps.

Every fidelity in this package can be computed three ways: the matrix
definition, the closed Bloch form, and the hyperbolic rapidity formula.
``compare`` joins the routes valid for one pair of states into a report;
``sweep`` drives them over seeded Monte Carlo samples and summarizes the
disagreement.  Trials are keyed by (seed, index): a sweep derives its two
stream keys once and varies only the index, so it returns the same
result for any partition of the index range into blocks, and for any
number of threads running those blocks, not merely a statistically
equivalent one.  One stripe loop runs the blocks: stripe 0 on the
calling thread, the others on threads it starts and joins itself.
"""

import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hyperbolic import _hyperbolic_fidelity
from .measures import _closed_fidelity, _matrix_fidelity, _trace_distance
from .qubit import (
    NEAR_MIXED_BAND,
    NEAR_PURE_BAND,
    PURE_NORM,
    REGIMES,
    _check_int,
    _checked_bloch,
    _density_entries,
    _dot3,
    _norm3,
    _sample_streams,
    _stream_keys,
    _xyz,
)

__all__ = ["FidelityReport", "SweepSummary", "compare", "sweep"]

# Trials per sweep block.  Measured on a 2-core Xeon with numpy 2.4.6 and
# two threads, after one 1e6-trial sweep in the same process, with both
# sampler streams drawn in one pass: a 1e5-trial sweep took 17-20 ms at
# 16384, 18-19 ms at 32768, 26-28 ms at 8192 and at 65536
# (intermediates fall out of cache) and 43-47 ms at 4096 (per-call
# overhead).  Peak RSS of the 1e6-trial sweep was 47 MB at 16384,
# 56-57 MB at 32768 and 74-77 MB at 65536.
_BLOCK = 16384

# Most threads one sweep runs on.  Each holds one block of temporaries,
# about 5 MB of peak RSS per thread at 16384, so the cap bounds that
# memory.  On the 2-core Xeon, two threads ran a 1e6-trial sweep
# 1.3-1.4x and a 1e5-trial sweep 1.2-1.4x faster than one thread, which
# took 21-27 ms: the numpy calls on one block are short, and each hands
# the interpreter lock back and forth.  Three threads were no faster than
# two there; more cores were not available to measure.
_MAX_THREADS = 4

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
    # fmax skips a NaN norm, so this is (ru > PURE_NORM) | (rv > PURE_NORM).
    pure = np.fmax(ru, rv) > PURE_NORM
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

    Takes the sampler's output as it is: the sampler only returns vectors
    in the closed unit ball, so nothing is re-validated.
    """
    return _routes(u, v, _norm3(*_xyz(u)), _norm3(*_xyz(v)))[3]


def _exact_sum(x: np.ndarray) -> int:
    """Exact sum of nonnegative finite doubles, in units of 2**-1074.

    A double is m * 2**(k - 1075) with biased exponent k (1 for
    subnormals) and integer m < 2**53.  The low 26 and high 27 bits of m
    are summed per exponent by bincount; for up to 2**26 values each bin
    stays below 2**53, so those float sums are exact.  The bins are then
    shifted into one Python int, whose sums are associative, so the total
    does not depend on how the values were split (Neal, "Fast exact
    summation using small and large superaccumulators").
    """
    bits = x.view(np.int64)
    # With the sign bit clear, bits = (k << 52) + fraction: subtracting
    # (k - 1) << 52 leaves the fraction plus the implicit bit for k >= 1,
    # and subtracts nothing from a subnormal or zero, whose k is 0.
    exponent = np.maximum(bits >> 52, 1)
    mantissa = bits - ((exponent - 1) << 52)
    lo = np.bincount(exponent, weights=mantissa & 0x3FFFFFF)
    hi = np.bincount(exponent, weights=mantissa >> 26)
    total = 0
    for k in np.flatnonzero(lo + hi).tolist():
        total += (int(hi[k]) << (k + 25)) + (int(lo[k]) << (k - 1))
    return total


def _p99_sorted(values: np.ndarray) -> float:
    """The 99th percentile of ascending values, as np.percentile(values, 99.0).

    numpy's default linear method: the order statistics at
    floor((n - 1) 0.99) and the one after it, interpolated in numpy's
    rounding order, so the result is equal bit for bit.  A single value
    takes numpy's index -1 and weight 1.  A NaN sorts last and makes the
    percentile NaN, as in numpy.
    """
    n = len(values)
    position = (n - 1) * 0.99
    lo = math.floor(position) if n > 1 else -1
    a, b = values[lo], values[lo + 1]
    t = position - lo
    gap = b - a
    p99 = b - gap * (1.0 - t) if t >= 0.5 else a + gap * t
    return math.nan if math.isnan(values[-1]) else float(p99)


def _thread_count(blocks: int) -> int:
    """Threads for a sweep of ``blocks`` index blocks: one per usable CPU, capped."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks, _MAX_THREADS))


def _run_stripes(keys, regimes, diffs, threads: int) -> int:
    """Fill diffs with the spreads of every block; return their exact sum.

    Stripe t runs blocks t, t + threads, t + 2 threads, ...: stripe 0 on
    the calling thread, the others on their own threads, all of which are
    joined before this returns or raises.  Every stripe checks ``stop``
    before each block; the first exception a stripe raises sets it, and
    is re-raised here as the same object.  Each block appends its exact
    sum, a Python int, so the total does not depend on the order in which
    the stripes append.
    """
    trials = len(diffs)
    stop = threading.Event()
    sums = []
    errors = []

    def stripe(t):
        try:
            for lo in range(t * _BLOCK, trials, threads * _BLOCK):
                if stop.is_set():
                    return
                hi = min(lo + _BLOCK, trials)
                w = _sample_streams(keys, regimes, np.arange(lo, hi, dtype=np.uint64))
                block = diffs[lo:hi]
                block[...] = _route_spread(w[0].T, w[1].T)
                sums.append(_exact_sum(block))
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    started = []
    try:
        for t in range(1, threads):
            thread = threading.Thread(target=stripe, args=(t,), name=f"buresgeo-sweep-{t}")
            thread.start()
            started.append(thread)
        stripe(0)
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return sum(sums)


def sweep(seed, trials: int, regime_u: str, regime_v: str) -> SweepSummary:
    """Run ``trials`` seeded comparisons and summarize the route spread.

    The trial at index i always sees the same pair of states, so the
    summary (elapsed aside) is a pure function of (seed, trials,
    regime_u, regime_v).  The keys of the left (stream 0) and right
    (stream 1) sampler streams are derived once per sweep.  Trials run
    in fixed index blocks, striped over one thread per usable CPU (from
    the CPU affinity, at most four; one block runs serially), and each
    block draws both of its states in one sampler pass under those keys.
    Each block writes its own range of one per-trial array and adds its
    spreads into an exact integer sum, so the output is identical for
    any block partition and any thread count.  The mean is that sum
    rounded once, equal to ``math.fsum(spreads) / trials``; ties for
    the worst pair resolve to the lowest trial index, whose states are
    drawn again under the same keys.  The spreads are then sorted in
    place, and the p99 is numpy's linear-method percentile of them,
    equal to ``np.percentile(spreads, 99.0)``.

    ``trials`` may not exceed 2**32: the per-trial spreads take 8 bytes
    each, on top of one block of temporaries per thread.  A count above
    that cap, or one whose spread array cannot be allocated, raises
    ValueError.
    """
    start = time.perf_counter()
    seed = _check_int(seed, "seed", 0, 2**64)
    trials = _check_int(trials, "trials", 1, _MAX_TRIALS + 1)
    regimes = (regime_u, regime_v)
    for regime in regimes:
        if regime not in REGIMES:
            raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")

    try:
        diffs = np.empty(trials)
    except MemoryError:
        raise ValueError(
            f"trials={trials} needs {8 * trials} bytes for the per-trial spreads, "
            "more than this process can allocate"
        ) from None
    keys = _stream_keys(seed, (0, 1))
    blocks = -(-trials // _BLOCK)
    total = _run_stripes(keys, regimes, diffs, _thread_count(blocks))

    worst = int(np.argmax(diffs))
    max_diff = float(diffs[worst])
    # Integer division is correctly rounded: this is math.fsum(diffs) / trials.
    mean = total / (1 << 1074) / trials
    # Reads after max_diff and worst: the spreads are sorted in place.
    diffs.sort()
    p99 = _p99_sorted(diffs)
    worst_u, worst_v = _sample_streams(keys, regimes, np.uint64([worst]))[:, :, 0].tolist()

    return SweepSummary(
        trials=trials,
        seed=seed,
        regime_u=regime_u,
        regime_v=regime_v,
        max_diff=max_diff,
        mean_diff=mean,
        p99_diff=p99,
        worst_u=tuple(worst_u),
        worst_v=tuple(worst_v),
        worst_index=worst,
        elapsed_seconds=time.perf_counter() - start,
    )
