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
    _abs,
    _bools,
    _check_int,
    _check_regime,
    _checked_bloch,
    _density_entries,
    _dot3,
    _fmax,
    _give,
    _greater,
    _minimum,
    _norm3,
    _own,
    _sample_streams,
    _stream_keys,
    _sub,
    _take,
    _where,
    _xyz,
)

__all__ = ["FidelityReport", "SweepSummary", "compare", "sweep"]

# Trials per sweep block.  Measured on a 2-core Xeon with numpy 2.4.6 and
# two threads, after one 1e6-trial sweep in the same process, with both
# sampler streams drawn in one pass: a 1e5-trial sweep took 17-20 ms at
# 16384, 18-19 ms at 32768, 26-28 ms at 8192 and at 65536
# (intermediates fall out of cache) and 43-47 ms at 4096 (per-call
# overhead).  Each thread's workspace holds _WORKSPACE_ROWS rows of one
# block, so the block length sets a sweep's fixed memory: 2.9 MB a
# thread at 16384.
_BLOCK = 16384

# Rows of one block that each sweep thread gets once per sweep and reuses
# for every block: the block's indices, and the 21 rows that the sampler
# and then the route kernels keep live at once, at the widest while the
# matrix route forms sqrt(rho1) rho2 sqrt(rho1).  Six of those are the
# sampler's (2, 3, block) output, which the routes take over once read.
_WORKSPACE_ROWS = 22

# Most threads one sweep runs on.  Each holds one workspace and one
# buffer of p99 candidates, so the cap bounds that memory.  On the 2-core
# Xeon, two threads ran a 1e6-trial sweep 1.3-1.4x and a 1e5-trial sweep
# 1.2-1.4x faster than one thread, which took 21-27 ms: the numpy calls
# on one block are short, and each hands the interpreter lock back and
# forth.  Three threads were no faster than two there; more cores were
# not available to measure.
_MAX_THREADS = 4

# Largest trial count a sweep accepts.  Nothing is kept per trial, but
# the p99 needs the k largest spreads, about trials / 100: each thread
# buffers up to 2k doubles for them, 687 MB at this cap, and larger
# counts are refused before anything is allocated.
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


def _routes(u, v, ru, rv, ws=None):
    """The three route fidelities of each pair and their largest difference.

    Takes trusted Bloch vectors u, v and their norms ru, rv, and returns
    (f_matrix, f_closed, f_hyperbolic, spread).  The vectors are arrays
    of any leading shape with norm arrays, or one pair on the float path:
    each vector a tuple of three Python floats and each norm a float,
    which runs the same kernel lines on floats and returns floats with
    the same bits.  This is the one place that decides where the
    hyperbolic route applies: on pairs with either norm above PURE_NORM
    it runs on norms clipped to PURE_NORM and u.v set to 0, so it stays
    finite, and is then masked to NaN; fmax leaves NaN out of the spread.

    With a workspace, the four results are rows popped from ws, and u and
    v are handed over: they must be the (n, 3) transposes of component
    rows, as the sampler returns them, and those rows join ws once their
    last use, the density entries, is done.
    """
    dot = _dot3(u, v, ws)
    f_closed = _closed_fidelity(dot, ru, rv, ws)
    rho1 = _density_entries(*_xyz(u), ws)
    rho2 = _density_entries(*_xyz(v), ws)
    if ws is not None:
        _give(ws, *u.T, *v.T)
    f_matrix = _matrix_fidelity(rho1, rho2, ws)  # takes over rho1's rows
    _give(ws, *rho2)
    high, mask, ru_clip, rv_clip = _take(ws, 4)
    # fmax skips a NaN norm, so this is (ru > PURE_NORM) | (rv > PURE_NORM).
    pure = _greater(_fmax(ru, rv, high), PURE_NORM, mask)
    f_hyp = _hyperbolic_fidelity(
        _where(pure, 0.0, dot, _own(ws, dot)),
        _minimum(ru, PURE_NORM, ru_clip),
        _minimum(rv, PURE_NORM, rv_clip),
        ws,
    )
    f_hyp = _where(pure, np.nan, f_hyp, _own(ws, f_hyp))
    _give(ws, dot, high, mask, ru_clip, rv_clip)
    spread, apart, tmp = _take(ws, 3)
    gap = _fmax(
        _abs(_sub(f_hyp, f_matrix, apart), apart),
        _abs(_sub(f_hyp, f_closed, tmp), tmp),
        apart,
    )
    spread = _fmax(_abs(_sub(f_matrix, f_closed, spread), spread), gap, spread)
    _give(ws, apart, tmp)
    return f_matrix, f_closed, f_hyp, spread


def compare(u, v) -> FidelityReport:
    """Compute every route valid for (u, v) and report their spread.

    Never raises on pure inputs; the hyperbolic route is simply omitted
    and flagged.  Validates u and v, then reports through _compare, which
    the CLI calls directly on vectors it has validated itself.
    """
    u, ru = _checked_bloch(u)
    v, rv = _checked_bloch(v)
    if u.shape != (3,) or v.shape != (3,):
        raise ValueError("compare takes a single pair of Bloch vectors")
    return _compare(u, ru, v, rv)


def _compare(u, ru, v, rv) -> FidelityReport:
    """compare of trusted Bloch vectors u, v of shape (3,) and their norms.

    The routes and the trace distance run on Python floats: each vector
    goes in as the tuple of its components and each norm as a float, so
    the kernels take no numpy call on the pair, and return the bits that
    _route_spread gives for the same vectors.
    """
    u, v, ru, rv = tuple(u.tolist()), tuple(v.tolist()), float(ru), float(rv)
    f_matrix, f_closed, f_hyp, spread = map(float, _routes(u, v, ru, rv))
    return FidelityReport(
        u=u,
        v=v,
        f_matrix=f_matrix,
        f_hyperbolic=None if math.isnan(f_hyp) else f_hyp,
        f_closed=f_closed,
        d_trace=float(_trace_distance(u, v)),
        max_pairwise_diff=spread,
        regime_flags=_flags(ru, rv),
    )


def _route_spread(u: np.ndarray, v: np.ndarray, ws=None) -> np.ndarray:
    """Vectorized max pairwise route difference, one value per pair.

    Takes the sampler's output as it is: the sampler only returns vectors
    in the closed unit ball, so nothing is re-validated.  With a
    workspace, u's and v's rows are handed over, as to _routes, and the
    spreads are the one row kept from ws.
    """
    ru = _norm3(*_xyz(u), ws)
    rv = _norm3(*_xyz(v), ws)
    f_matrix, f_closed, f_hyp, spread = _routes(u, v, ru, rv, ws)
    _give(ws, ru, rv, f_matrix, f_closed, f_hyp)
    return spread


def _exact_sum(x: np.ndarray, ws=None) -> int:
    """Exact sum of nonnegative finite doubles, in units of 2**-1074.

    A double is m * 2**(k - 1075) with biased exponent k (1 for
    subnormals) and integer m < 2**53.  The low 26 and high 27 bits of m
    are summed per exponent by bincount; for up to 2**26 values each bin
    stays below 2**53, so those float sums are exact.  The bins are then
    shifted into one Python int, whose sums are associative, so the total
    does not depend on how the values were split (Neal, "Fast exact
    summation using small and large superaccumulators").  With a
    workspace, the integer rows and the weights, cast to float64 first so
    that bincount takes them as they are, live in rows of ws.
    """
    rows = _take(ws, 4)
    exponent, mantissa, part = (None if row is None else row.view(np.int64) for row in rows[:3])
    bits = x.view(np.int64)
    # With the sign bit clear, bits = (k << 52) + fraction: subtracting
    # (k - 1) << 52 leaves the fraction plus the implicit bit for k >= 1,
    # and subtracts nothing from a subnormal or zero, whose k is 0.
    k = np.maximum(np.right_shift(bits, 52, out=exponent), 1, out=exponent)
    shift = np.left_shift(np.subtract(k, 1, out=mantissa), 52, out=mantissa)
    m = np.subtract(bits, shift, out=mantissa)
    lo = np.bincount(k, weights=_as_float(np.bitwise_and(m, 0x3FFFFFF, out=part), rows[3]))
    hi = np.bincount(k, weights=_as_float(np.right_shift(m, 26, out=part), rows[3]))
    _give(ws, *rows)
    total = 0
    for e in np.flatnonzero(lo + hi).tolist():
        total += (int(hi[e]) << (e + 25)) + (int(lo[e]) << (e - 1))
    return total


def _as_float(ints, row):
    """The int64 array ints cast into the float64 row, or as they are without one."""
    if row is None:
        return ints
    np.copyto(row, ints)
    return row


def _p99_low(n: int) -> int:
    """Index of the order statistic at or below numpy's 99th-percentile position in n values.

    numpy's linear method sits at position (n - 1) 0.99, between the
    order statistics floor of it and the one after; one value takes
    numpy's index -1.
    """
    return math.floor((n - 1) * 0.99) if n > 1 else -1


def _p99_sorted(values: np.ndarray, trials: Optional[int] = None) -> float:
    """The 99th percentile of ascending values, as np.percentile(values, 99.0).

    numpy's default linear method: the order statistics at
    floor((n - 1) 0.99) and the one after it, interpolated in numpy's
    rounding order, so the result is equal bit for bit.  A single value
    takes numpy's index -1 and weight 1.  A NaN sorts last and makes the
    percentile NaN, as in numpy.  Given ``trials``, values are only the
    largest of that many, ascending; they must include the
    n - max(_p99_low(n), 0) largest, which is all a sweep keeps.
    """
    n = len(values) if trials is None else trials
    position = (n - 1) * 0.99
    lo = _p99_low(n)
    skipped = n - len(values)
    a, b = values[lo - skipped], values[lo + 1 - skipped]
    t = position - lo
    gap = b - a
    p99 = b - gap * (1.0 - t) if t >= 0.5 else a + gap * t
    return math.nan if math.isnan(values[-1]) else float(p99)


class _Largest:
    """The k largest values of all that are added, in a buffer of 2k doubles.

    NaN counts as the largest, as np.sort puts it last.  ``floor`` is the
    k-th largest value in the buffer when it was last cut back to k: a
    later value no greater leaves the k largest values as they are, so
    blocks add only the values above it.  When the buffer fills, an
    in-place partition cuts it back to its k largest.  Each cut drops k
    values, so the partitions cost O(1) per value added.
    """

    def __init__(self, k: int):
        self.k = k
        self.buffer = np.empty(2 * k)
        self.size = 0
        self.floor = -math.inf

    def push(self, values) -> None:
        """Append at most k values, cutting the buffer back to k when it fills."""
        k, size = self.k, self.size
        room = 2 * k - size
        if len(values) > room:
            self.buffer[size:] = values[:room]
            values = values[room:]
            # Elements k.. are now the k largest, element k the least of them.
            self.buffer.partition(k)
            self.floor = float(self.buffer[k])
            self.buffer[:k] = self.buffer[k:]
            size = k
        self.buffer[size : size + len(values)] = values
        self.size = size + len(values)

    def add(self, block, ws) -> None:
        """Push the values of block that may be among the k largest; two rows of ws are lent."""
        keep_row, kept = _take(ws, 2)
        keep = np.less_equal(block, self.floor, out=_bools(keep_row))
        np.logical_not(keep, out=keep)  # NaN compares false, so it is kept
        count = int(np.count_nonzero(keep))
        n = len(block)
        if count > self.k:
            # More than k stand above the floor: the block's own k largest.
            np.copyto(kept, block)
            kept.partition(n - self.k)
            self.push(kept[n - self.k :])
        elif count == n:
            self.push(block)
        elif count:
            # np.compress allocates only the list of the count kept indices.
            self.push(np.compress(keep, block, out=kept[:count]))
        _give(ws, keep_row, kept)

    def top(self) -> np.ndarray:
        """The k largest values added, or all of them if fewer, ascending, in place."""
        values = self.buffer[: self.size]
        start = max(self.size - self.k, 0)
        if start:
            values.partition(start)
        top = values[start:]
        top.sort()
        return top


def _first_max(best, index: int, value: float):
    """(index, value) of the largest value as np.argmax picks it, given best so far.

    Candidates come in increasing index order, so a tie keeps the
    earlier one, and the first NaN beats every number.
    """
    if best is None or value > best[1] or (math.isnan(value) and not math.isnan(best[1])):
        return index, value
    return best


def _thread_count(blocks: int) -> int:
    """Threads for a sweep of ``blocks`` index blocks: one per usable CPU, capped."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks, _MAX_THREADS))


def _run_stripes(keys, regimes, trials: int, threads: int):
    """Run every block; return the exact sum of the spreads, the worst (index, spread) and the p99.

    Stripe t runs blocks t, t + threads, t + 2 threads, ...: stripe 0 on
    the calling thread, the others on their own threads, all of which are
    joined before this returns or raises.  Every stripe checks ``stop``
    before each block; the first exception a stripe raises sets it, and
    is re-raised here as the same object.

    Each stripe owns one workspace, allocated here before any block
    runs: row 0 holds the block's indices, rows 1-16 the sampler's output
    and scratch, and rows 7 onwards, once the sampler is done, the free
    rows of the route kernels, which take over rows 1-6 as well once the
    density entries are formed, then of the exact sum and the p99
    candidates.  The workspaces of all stripes are one array: freed, one
    allocation of that size lets a warm process take the next sweep's
    from pages it already has, where one per stripe was mapped afresh,
    about 1000 minor faults a 1e5-trial sweep.

    Each block reduces its own spreads: its exact sum, a Python int,
    adds to the stripe's, so the total does not depend on how blocks or
    stripes are merged; its np.argmax is merged in index order; and its
    values that may be among the k largest go to the stripe's _Largest.
    """
    k = trials - max(_p99_low(trials), 0)
    width = min(_BLOCK, trials)
    try:
        workspaces = np.empty((threads, _WORKSPACE_ROWS, width))
        largest = [_Largest(k) for _ in range(threads)]
    except MemoryError:
        nbytes = 8 * threads * (_WORKSPACE_ROWS * width + 2 * k)
        raise ValueError(
            f"trials={trials} needs {nbytes} bytes for the sweep workspaces and p99 candidates, "
            "more than this process can allocate"
        ) from None
    step = threads * _BLOCK
    stop = threading.Event()
    results = [(0, None)] * threads
    errors = []

    def stripe(t):
        try:
            rows, top = workspaces[t], largest[t]
            indices = rows[0].view(np.uint64)
            indices[:] = np.arange(t * _BLOCK, t * _BLOCK + width, dtype=np.uint64)
            total, best = 0, None
            for lo in range(t * _BLOCK, trials, step):
                if stop.is_set():
                    return
                block = rows[:, : min(_BLOCK, trials - lo)]
                w = _sample_streams(keys, regimes, indices[: block.shape[1]], block[1:17])
                ws = list(block[7:])
                spread = _route_spread(w[0].T, w[1].T, ws)
                total += _exact_sum(spread, ws)
                worst = int(np.argmax(spread))
                best = _first_max(best, lo + worst, float(spread[worst]))
                top.add(spread, ws)
                indices += np.uint64(step)
            results[t] = (total, best)
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

    best = None
    for index, value in sorted(best for _, best in results if best is not None):
        best = _first_max(best, index, value)
    for other in largest[1:]:
        largest[0].push(other.top())
    return sum(total for total, _ in results), best, _p99_sorted(largest[0].top(), trials)


def sweep(seed, trials: int, regime_u: str, regime_v: str) -> SweepSummary:
    """Run ``trials`` seeded comparisons and summarize the route spread.

    The trial at index i always sees the same pair of states, so the
    summary (elapsed aside) is a pure function of (seed, trials,
    regime_u, regime_v).  The keys of the left (stream 0) and right
    (stream 1) sampler streams are derived once per sweep.  Trials run
    in fixed index blocks, striped over one thread per usable CPU (from
    the CPU affinity, at most four; one block runs serially), and each
    block draws both of its states in one sampler pass under those keys.
    No per-trial array is kept: each block reduces its own spreads, and
    the reductions merge exactly, so the output is identical for any
    block partition and any thread count.  The mean is the exact sum of
    the spreads rounded once, equal to ``math.fsum(spreads) / trials``;
    the worst pair is the first maximum, as ``np.argmax`` picks it over
    all spreads, and its states are drawn again under the same keys; the
    p99 is numpy's linear-method percentile of the k = trials - floor(
    (trials - 1) 0.99) largest spreads, equal to
    ``np.percentile(spreads, 99.0)``.  A NaN spread makes all three NaN.

    Memory grows with the thread count, and with the trial count only
    through the p99 candidates: each thread holds a workspace of 22 rows
    of a 16384-trial block, 2.9 MB, and a buffer of 2k doubles, 16 B per
    k, where k is about trials / 100.  That is 3.0 MB a thread at 1e6
    trials, 4.5 MB at 1e7 and 690 MB at the cap of 2**32.  ``trials``
    may not exceed 2**32; a larger count, or one whose buffers cannot be
    allocated, raises ValueError.
    """
    start = time.perf_counter()
    seed = _check_int(seed, "seed", 0, 2**64)
    trials = _check_int(trials, "trials", 1, _MAX_TRIALS + 1)
    regimes = (_check_regime(regime_u), _check_regime(regime_v))

    keys = _stream_keys(seed, (0, 1))
    blocks = -(-trials // _BLOCK)
    total, (worst, max_diff), p99 = _run_stripes(keys, regimes, trials, _thread_count(blocks))
    # Integer division is correctly rounded: this is math.fsum(spreads) / trials,
    # which is the largest spread itself once that is NaN or infinite.
    mean = total / (1 << 1074) / trials if math.isfinite(max_diff) else max_diff
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
