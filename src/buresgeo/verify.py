"""Cross-route comparison reports and deterministic verification sweeps.

Every fidelity in this package can be computed three ways: the matrix
definition, the closed Bloch form, and the hyperbolic rapidity formula.
``compare`` joins the routes valid for one pair of states into a report;
``sweep`` drives them over seeded Monte Carlo samples and summarizes the
disagreement.  Trials are keyed by (seed, index): a sweep derives its two
stream keys once and varies only the index, so it returns the same
result for any partition of the index range into blocks, and for any
number of stripes running those blocks, not merely a statistically
equivalent one.  One stripe function runs the blocks: stripe 0 in the
calling process, each other stripe in a helper process that the first
multi-block sweep forks and later sweeps reuse (see _Helpers).
"""

from __future__ import annotations

import _thread
import math
import os
import time
from typing import NamedTuple

from . import hyperbolic, measures, qubit
from .hyperbolic import _hyperbolic_fidelity
from .measures import _closed_fidelity, _effectively_pure, _matrix_fidelity, _RouteError, _trace_distance
from .qubit import (
    NEAR_MIXED_BAND,
    NEAR_PURE_BAND,
    PURE_NORM,
    _bools,
    _check_int,
    _check_regime,
    _checked_bloch,
    _density_entries,
    _dot3,
    _give,
    _greater,
    _maximum,
    _minimum,
    _norm3,
    _own,
    _sample_streams,
    _stream_keys,
    _sub,
    _take,
    _where,
    _xyz,
    np,
)

__all__ = ["FidelityReport", "SweepSummary", "compare", "sweep"]

# Trials per sweep block.  Measured on a 2-core Xeon with numpy 2.4.6 and
# two threads, after one 1e6-trial sweep in the same process, with both
# sampler streams drawn in one pass: a 1e5-trial sweep took 17-20 ms at
# 16384, 18-19 ms at 32768, 26-28 ms at 8192 and at 65536
# (intermediates fall out of cache) and 43-47 ms at 4096 (per-call
# overhead).  Each stripe's workspace holds _WORKSPACE_ROWS rows of one
# block, so the block length sets a sweep's fixed memory: 3.1 MB a
# process at 16384.
_BLOCK = 16384

# Rows of one block that each stripe gets once per sweep and reuses for
# every block: the block's indices, and the 23 rows that the sampler
# and then the route kernels keep live at once, at the widest while the
# matrix route forms sqrt(rho1) rho2 sqrt(rho1).  Six of those are the
# sampler's (2, 3, block) output, which the routes take over once read,
# and two the masks of the states both fidelity routes take as pure.
_WORKSPACE_ROWS = 24

# Most stripes one sweep runs: stripe 0 in the calling process, each
# other in a helper process of its own, each with one workspace, so the
# cap bounds that memory.  Processes, not threads: the numpy calls on
# one block are short, and threads handed the interpreter lock back and
# forth around each.  On the 2-core Xeon a warm 1e5-trial sweep ran
# 1.17-1.19x faster on two threads than on one, and 1.57x faster on two
# processes than on two threads.
_MAX_STRIPES = 4

# Largest trial count a sweep accepts.  Nothing is kept per trial, but
# the p99 needs the k largest spreads, about trials / 100: the sweep
# buffers up to 2k doubles and one block for them, 687 MB at this cap,
# and larger counts are refused before anything is allocated.
_MAX_TRIALS = 2**32


class FidelityReport(NamedTuple):
    """All routes computed for one pair, with their worst disagreement.

    ``f_hyperbolic`` is None when either input is flagged pure: the
    rapidity route is undefined there and ``max_pairwise_diff`` covers
    only the routes actually computed.
    """

    u: tuple
    v: tuple
    f_matrix: float
    f_hyperbolic: float | None
    f_closed: float
    d_trace: float
    max_pairwise_diff: float
    regime_flags: frozenset


class SweepSummary(NamedTuple):
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
    """The three route fidelities of each pair and their spread, the range of the routes that apply.

    Takes trusted Bloch vectors u, v and their norms ru, rv, finite as
    validation and the sampler leave them, and returns
    (f_matrix, f_closed, f_hyperbolic, spread).  The vectors are arrays
    of any leading shape with norm arrays, or one pair on the float path:
    each vector a tuple of three Python floats and each norm a float,
    which runs the same kernel lines on floats and returns floats with
    the same bits.  This is the one place that decides where the
    hyperbolic route applies: on pairs with either norm above PURE_NORM
    it runs on norms clipped to PURE_NORM and u.v set to 0, so it stays
    finite, and its value there is returned as NaN.  It also decides,
    once per state and on the given norm, which states the closed and
    matrix routes take as pure (measures._effectively_pure), so the
    matrix route's recovered norm cannot decide otherwise.  The spread is
    max - min of the routes, taken by maximum and minimum, which
    propagate NaN: a NaN from any route that applies makes it NaN.
    Rounding is monotone and odd, so it equals the largest rounded
    pairwise difference bit for bit.

    With a workspace, the four results are rows popped from ws, and u and
    v are handed over: they must be the (n, 3) transposes of component
    rows, as the sampler returns them, and those rows join ws once their
    last use, the density entries, is done.
    """
    dot = _dot3(u, v, ws)
    snap_u, snap_v = _take(ws, 2)
    snap = (_effectively_pure(ru, snap_u), _effectively_pure(rv, snap_v))
    f_closed = _closed_fidelity(dot, ru, rv, ws, snap)
    rho1 = _density_entries(*_xyz(u), ws)
    rho2 = _density_entries(*_xyz(v), ws)
    if ws is not None:
        _give(ws, *u.T, *v.T)
    f_matrix = _matrix_fidelity(rho1, rho2, ws, snap)  # takes over rho1's rows
    _give(ws, *rho2, snap_u, snap_v)
    high, mask, ru_clip, rv_clip = _take(ws, 4)
    # The norms are finite, so this is (ru > PURE_NORM) | (rv > PURE_NORM).
    pure = _greater(_maximum(ru, rv, high), PURE_NORM, mask)
    f_hyp = _hyperbolic_fidelity(
        _where(pure, 0.0, dot, _own(ws, dot)),
        _minimum(ru, PURE_NORM, ru_clip),
        _minimum(rv, PURE_NORM, rv_clip),
        ws,
    )
    # On pure pairs the closed route's value fills the hyperbolic slot, so
    # it adds nothing to the range; any other NaN makes the spread NaN.
    f_hyp = _where(pure, f_closed, f_hyp, _own(ws, f_hyp))
    _give(ws, dot, high, ru_clip, rv_clip)
    spread, low = _take(ws, 2)
    top = _maximum(_maximum(f_matrix, f_closed, spread), f_hyp, spread)
    bottom = _minimum(_minimum(f_matrix, f_closed, low), f_hyp, low)
    spread = _sub(top, bottom, spread)
    f_hyp = _where(pure, math.nan, f_hyp, _own(ws, f_hyp))
    _give(ws, low, mask)
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
    return _compare(tuple(u.tolist()), float(ru), tuple(v.tolist()), float(rv))


def _compare(u, ru, v, rv) -> FidelityReport:
    """compare of trusted Bloch vectors u, v, each a tuple of three Python floats, and their float norms.

    The routes and the trace distance run on Python floats, so the
    kernels take no numpy call on the pair, and return the bits that
    _route_spread gives for the same vectors.
    """
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


def _exact_sum(x: np.ndarray, ws) -> int:
    """Exact sum of nonnegative finite doubles, in units of 2**-1074.

    A double is m * 2**(k - 1075) with biased exponent k (1 for
    subnormals) and integer m < 2**53.  The low 26 and high 27 bits of m
    are summed per exponent by bincount; for up to 2**26 values each bin
    stays below 2**53, so those float sums are exact.  The bins are then
    shifted into one Python int, whose sums are associative, so the total
    does not depend on how the values were split (Neal, "Fast exact
    summation using small and large superaccumulators").  Four rows of
    x's length are lent from ws: three hold the integer steps, and the
    fourth the weights, cast to float64 first so that bincount takes
    them as they are.
    """
    rows = _take(ws, 4)
    exponent, mantissa, part = (row.view(np.int64) for row in rows[:3])
    weights = rows[3]
    bits = x.view(np.int64)
    # With the sign bit clear, bits = (k << 52) + fraction: subtracting
    # (k - 1) << 52 leaves the fraction plus the implicit bit for k >= 1,
    # and subtracts nothing from a subnormal or zero, whose k is 0.
    k = np.maximum(np.right_shift(bits, 52, out=exponent), 1, out=exponent)
    shift = np.left_shift(np.subtract(k, 1, out=mantissa), 52, out=mantissa)
    m = np.subtract(bits, shift, out=mantissa)
    np.copyto(weights, np.bitwise_and(m, 0x3FFFFFF, out=part))
    lo = np.bincount(k, weights=weights)
    np.copyto(weights, np.right_shift(m, 26, out=part))
    hi = np.bincount(k, weights=weights)
    _give(ws, *rows)
    total = 0
    for e in np.flatnonzero(lo + hi).tolist():
        total += (int(hi[e]) << (e + 25)) + (int(lo[e]) << (e - 1))
    return total


def _p99_low(n: int) -> int:
    """Index of the order statistic at or below numpy's 99th-percentile position in n values.

    numpy's linear method sits at position (n - 1) 0.99, between the
    order statistics floor of it and the one after; one value takes
    numpy's index -1.
    """
    return math.floor((n - 1) * 0.99) if n > 1 else -1


class _Reduction:
    """All that a sweep of ``trials`` spreads keeps of them, added a block of at most ``width`` at a time.

    Blocks may come in any order, and so may the parts of other stripes'
    reductions that merge takes.  ``total`` is the exact sum of the
    spreads in units of 2**-1074, a Python int, so the order of the adds
    does not matter.  ``best`` is the (index, spread) that np.argmax
    picks over all spreads: a NaN beats every number, a larger value a
    smaller one, and of two equal values, or two NaNs, the smaller index
    wins, whichever block comes first.

    ``buffer`` holds the p99 candidates, at least the k largest spreads
    added, in 2k + width doubles, where k = trials - max(_p99_low(trials),
    0).  NaN counts as the largest, as np.sort puts it last.  ``floor``
    is the k-th largest value in the buffer when it was last cut back to
    k: a later value no greater leaves the k largest as they are, so each
    block appends only those above it.  Once the buffer holds more than
    2k, an in-place partition cuts it back to its k largest.  Each cut
    drops more than k values, so the partitions cost O(1) per value.
    """

    def __init__(self, trials: int, width: int):
        self.trials = trials
        self.width = width
        self.k = trials - max(_p99_low(trials), 0)
        self.buffer = np.empty(2 * self.k + width)
        self.size = 0
        self.floor = -math.inf
        self.total = 0
        self.best = self._rank = None

    def add(self, lo: int, spread: np.ndarray, ws) -> None:
        """Reduce the spreads of the trials from index ``lo`` on; ws lends 4 rows, then 1."""
        self.total += _exact_sum(spread, ws)
        worst = int(np.argmax(spread))
        index, value = lo + worst, float(spread[worst])
        nan = math.isnan(value)
        # Tuples order as np.argmax does: NaN first, then value, then the smaller index.
        self._take_best((index, value), (nan, 0.0 if nan else value, -index))
        (row,) = _take(ws, 1)
        self._keep(spread, row)
        _give(ws, row)

    def part(self):
        """What merge needs of this reduction: (total, best, its rank, the p99 candidates)."""
        return self.total, self.best, self._rank, self.buffer[: self.size]

    def merge(self, part) -> None:
        """Add the part() of another stripe's reduction, of trials added to no other."""
        total, best, rank, candidates = part
        self.total += total
        if best is not None:  # a stripe that ran no block
            self._take_best(best, rank)
        for lo in range(0, len(candidates), self.width):
            self._keep(candidates[lo : lo + self.width], None)

    def _take_best(self, best, rank) -> None:
        if self.best is None or rank > self._rank:
            self.best, self._rank = best, rank

    def _keep(self, values: np.ndarray, row) -> None:
        """Append the values above the floor, at most width of them, to the buffer; the row, if any, takes their mask."""
        keep = np.less_equal(values, self.floor, out=_bools(row))
        np.logical_not(keep, out=keep)  # NaN compares false, so it is kept
        size = self.size + int(np.count_nonzero(keep))
        # np.compress allocates only the list of the indices it keeps.
        np.compress(keep, values, out=self.buffer[self.size : size])
        if size > 2 * self.k:
            # Elements size - k.. are now the k largest, the first the least of them.
            self.buffer[:size].partition(size - self.k)
            self.floor = float(self.buffer[size - self.k])
            self.buffer[: self.k] = self.buffer[size - self.k : size]
            size = self.k
        self.size = size

    def p99(self) -> float:
        """np.percentile(spreads, 99.0) of all ``trials`` spreads, once all are added, bit for bit.

        numpy's default linear method takes the order statistics at
        lo = _p99_low(trials) and the one after it: the least two of the
        k largest, or the one value of a single trial, which takes
        numpy's index -1 and weight 1.  They are interpolated in numpy's
        rounding order.  A NaN sorts last and makes the percentile NaN.
        Partitions the buffer in place.
        """
        n, size = self.trials, self.size
        values = self.buffer[:size]
        a_at, b_at = size - self.k, min(size - self.k + 1, size - 1)
        values.partition([a_at, b_at, size - 1])
        a, b = values[a_at], values[b_at]
        lo = _p99_low(n)
        t = (n - 1) * 0.99 - lo
        gap = b - a
        p99 = b - gap * (1.0 - t) if t >= 0.5 else a + gap * t
        return math.nan if math.isnan(values[-1]) else float(p99)


def _stripe_count(blocks: int) -> int:
    """Stripes for a sweep of ``blocks`` index blocks: one per usable CPU, capped, and one where processes cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, blocks, _MAX_STRIPES))


def _stripe(keys, seed: int, regimes, trials: int, t: int, stripes: int, failed):
    """Run stripe t of ``stripes``, blocks t, t + stripes, t + 2 stripes, ...: (None, its _Reduction), or (trial, exception).

    The caller and the helpers run this one function.  ``failed[0]`` is
    shared by the sweep's stripes: ``trials`` until a stripe fails, then
    the trial its failure is charged to.  Each stripe stops at its first
    block that starts past it, so every block below the failed trial
    still runs, and the lowest failure of all the stripes is the serial
    sweep's.  Two stripes failing at once can leave the higher of their
    trials there, which only stops the others later.  A _RouteError from
    a block is charged to its trial, and returned with the trial named
    after the route's message and its index, within the block, moved on
    to the trial's own; any other exception from a block is charged to
    the block's first trial, and one from before the first block to -1.

    The stripe owns one workspace, allocated here before any block
    runs: row 0 holds the block's indices, rows 1-16 the sampler's output
    and scratch, and rows 7 onwards, once the sampler is done, the free
    rows of the route kernels, which take over rows 1-6 as well once the
    density entries are formed, then of the reduction.  Freed, it lets a
    warm process take the next sweep's from pages it already has.
    """
    at = -1
    try:
        width = min(_BLOCK, trials)
        try:
            rows = np.empty((_WORKSPACE_ROWS, width))
            reduction = _Reduction(trials, width)
        except MemoryError:
            k = trials - max(_p99_low(trials), 0)
            nbytes = 8 * (_WORKSPACE_ROWS * width + 2 * k + width)
            raise ValueError(
                f"trials={trials} needs {nbytes} bytes for a stripe's workspace and p99 candidates, "
                "more than this process can allocate"
            ) from None
        step = stripes * _BLOCK
        indices = rows[0].view(np.uint64)
        indices[:] = np.arange(t * _BLOCK, t * _BLOCK + width, dtype=np.uint64)
        for lo in range(t * _BLOCK, trials, step):
            if lo > failed[0]:
                break
            at = lo
            block = rows[:, : min(_BLOCK, trials - lo)]
            w = _sample_streams(keys, regimes, indices[: block.shape[1]], block[1:17])
            ws = list(block[7:])
            try:
                spread = _route_spread(w[0].T, w[1].T, ws)
            except _RouteError as exc:
                at = lo + exc.index  # the trial of the block's first failing value
                where = f"seed {seed}, {regimes[0]} x {regimes[1]}, trial {at}"
                raise _RouteError(f"{exc} ({where})", at) from None
            reduction.add(lo, spread, ws)
            indices += np.uint64(step)
    except Exception as exc:
        failed[0] = min(failed[0], at)
        return at, exc
    return None, reduction


def _run_stripes(keys, seed: int, regimes, trials: int, stripes: int) -> _Reduction:
    """Run every block and return the sweep's one _Reduction of the spreads.

    Stripe 0 runs here, and the helpers' parts are merged into its
    reduction.  If the helpers are busy with another thread's sweep, or
    none can be forked, this process runs every block itself, to the
    same result.  Of several failing stripes, the exception charged to
    the lowest trial is raised.
    """
    args = (keys, seed, regimes, trials)
    if stripes == 1 or not _helpers.lock.acquire(blocking=False):
        outcomes = [_stripe(*args, 0, 1, [trials])]
    else:
        try:
            outcomes = _helpers.run(args, stripes)
        finally:
            _helpers.lock.release()
    failures = [outcome for outcome in outcomes if outcome[0] is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    reduction = outcomes[0][1]
    for _, part in outcomes[1:]:
        reduction.merge(part)
    return reduction


# The module namespaces whose bindings a sweep runs: a helper runs those
# it was forked with, so _Helpers forks afresh once any differs.
_NAMESPACES = (vars(qubit), vars(measures), vars(hyperbolic), globals())


def _serve(requests, replies, failed) -> None:
    """A helper's loop: run each stripe asked for on the pipe requests and answer on replies, until requests closes.

    The pipes are binary files, and each message one pickle.  It answers
    (None, its reduction's part) or (trial, exception); an exception
    that pickle cannot carry over is sent as a RuntimeError with its
    type and message.  The helper ignores SIGINT, which reaches its
    owner's whole process group: the owner stops it.  Its standard
    streams point at os.devnull, so a reader of the owner's stdout sees
    the end of it when the owner exits.
    """
    import pickle
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    os.close(null)
    while True:
        try:
            args = pickle.load(requests)
        except EOFError:  # the owner has closed its end, or died
            return
        trial, value = _stripe(*args, failed)
        if trial is None:
            outcome = (None, value.part())
        else:
            outcome = (trial, value)
            try:
                pickle.loads(pickle.dumps(outcome))
            except Exception:
                outcome = (trial, RuntimeError(f"{type(value).__name__}: {value}"))
        pickle.dump(outcome, replies, pickle.HIGHEST_PROTOCOL)
        replies.flush()


class _Helpers:
    """The helper processes that run stripes 1.. of a sweep: forked by the first multi-block sweep, reused by later ones.

    Helper t - 1 runs stripe t: it takes (keys, seed, regimes, trials,
    t, stripes) on its request pipe and answers on its reply pipe.  The
    failed-trial word of _stripe is one int64 of shared memory, mapped
    before the first fork.  ``lock`` lets one sweep at a time use them.

    A helper is a fork of its owner, so it runs the code its owner had
    then.  Before each multi-block sweep, every binding of _NAMESPACES
    is compared with those the helpers were forked with; on any
    difference, such as a monkeypatched kernel, they are closed and new
    ones forked.

    Nothing outlives its owner: at exit, atexit closes the request pipes,
    on whose end of file each helper exits, and reaps every helper; an
    owner that dies without exiting closes them too.  A process forked
    later, a helper included, closes its copies of every helper pipe
    (os.register_at_fork) and starts with no helpers, so it keeps none
    alive.
    """

    def __init__(self):
        self.lock = _thread.allocate_lock()
        self.pids, self.requests, self.replies = [], [], []
        self.bindings = self.failed = None

    def run(self, args, stripes: int) -> list:
        """Stripes 0 .. stripes - 1 of the sweep of args, 0 here: each stripe's (None, reduction or part) or (trial, exception).

        Runs fewer stripes, to the same result, if fewer helpers can be
        forked.  An interrupt, or a helper gone, closes every helper.
        """
        import pickle

        if self.pids and any(
            list(ns) != names or list(map(id, ns.values())) != ids
            for ns, (names, _, ids) in zip(_NAMESPACES, self.bindings)
        ):
            self.close()
        if not self.pids:
            # Names, values and their ids: the values keep the ids from reuse.
            self.bindings = [(list(ns), list(ns.values()), list(map(id, ns.values()))) for ns in _NAMESPACES]
        while len(self.pids) < stripes - 1:
            try:
                self._fork()
            except OSError:  # no memory or process slot for one more
                break
        stripes = min(stripes, len(self.pids) + 1)
        failed = self.failed if stripes > 1 else [0]
        failed[0] = args[3]  # the trial count: no trial has failed
        try:
            for t, requests in enumerate(self.requests[: stripes - 1], 1):
                pickle.dump((*args, t, stripes), requests, pickle.HIGHEST_PROTOCOL)
                requests.flush()
            outcomes = [_stripe(*args, 0, stripes, failed)]
            for pid, replies in zip(self.pids, self.replies[: stripes - 1]):
                try:
                    outcomes.append(pickle.load(replies))
                except EOFError:
                    raise ChildProcessError(f"sweep helper process {pid} exited before its stripe was done") from None
        except BaseException:
            self.close()
            raise
        return outcomes

    def _fork(self) -> None:
        if self.failed is None:  # this process's first helper
            import atexit
            import mmap

            atexit.register(self.close)
            self.failed = memoryview(mmap.mmap(-1, 8)).cast("q")
        failed = self.failed
        request_read, request_write = os.pipe()
        reply_read, reply_write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_read, request_write, reply_read, reply_write):
                os.close(fd)
            raise
        if pid == 0:
            try:
                os.close(request_write)
                os.close(reply_read)
                _serve(os.fdopen(request_read, "rb"), os.fdopen(reply_write, "wb"), failed)
            finally:
                os._exit(0)
        os.close(request_read)
        os.close(reply_write)
        self.pids.append(pid)
        self.requests.append(os.fdopen(request_write, "wb"))
        self.replies.append(os.fdopen(reply_read, "rb"))

    def close(self) -> None:
        """Stop and reap every helper; a helper inside a stripe stops at its next block."""
        if self.failed is not None:
            self.failed[0] = -1
        for pipe in self.requests + self.replies:
            pipe.close()
        for pid in self.pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, by a wait of the owner's own
                pass
        self.pids, self.requests, self.replies = [], [], []

    def _forget(self) -> None:
        """In a forked child: close the copies of every helper pipe and start with no helpers, a fresh lock and word."""
        for pipe in self.requests + self.replies:
            pipe.close()
        self.__init__()


_helpers = _Helpers()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helpers._forget)


def sweep(seed, trials: int, regime_u: str, regime_v: str) -> SweepSummary:
    """Run ``trials`` seeded comparisons and summarize the route spread.

    The trial at index i always sees the same pair of states, so the
    summary (elapsed aside) is a pure function of (seed, trials,
    regime_u, regime_v).  The keys of the left (stream 0) and right
    (stream 1) sampler streams are derived once per sweep.  Trials run
    in fixed index blocks, striped over one process per usable CPU (from
    the CPU affinity, at most four; one block, or a platform without
    os.fork, runs in one stripe): stripe 0 in this process, the others
    in helper processes that stay for later sweeps (see _Helpers).  Each
    block draws both of its states in one sampler pass under those keys.
    No per-trial array is kept: each block adds its spreads to its
    stripe's reduction, the helpers send theirs back to be merged, and
    the result does not depend on the order of the adds or merges, so
    the output is identical for any block partition and any stripe
    count.  The mean is the exact
    sum of the spreads rounded once, equal to ``math.fsum(spreads) / trials``;
    the worst pair is the first maximum, as ``np.argmax`` picks it over
    all spreads, and its states are drawn again under the same keys; the
    p99 is numpy's linear-method percentile of the k = trials - floor(
    (trials - 1) 0.99) largest spreads, equal to
    ``np.percentile(spreads, 99.0)``.  A NaN spread makes all three NaN.

    Memory is per process, and grows with the trial count only through
    the p99 candidates: each stripe's process holds a workspace of 22
    rows of a 16384-trial block, 3.1 MB, and one buffer of 2k doubles
    and one 128 KiB block, where k is about trials / 100.  That is
    3.1 MB + 16 B x k + 128 KiB a process: the candidates take 0.29 MB
    at 1e6 trials, 1.7 MB at 1e7 and 687 MB at the cap of 2**32.
    ``trials`` may not exceed 2**32; a larger count, or one whose
    buffers cannot be allocated, raises ValueError.

    A route's own check failing on a trial raises _RouteError with the
    route's message and the trial named after it, for example
    ``closed-route fidelity 1.0004999384645075 lies outside [0, 1] (seed
    0, near_mixed x near_mixed, trial 0)``; compare on that trial's pair,
    drawn again with random_bloch_indexed, raises the same message.  Any
    stripe count names the trial that the serial sweep names, its first
    failing one, and raises an exception of the same type and message.
    """
    start = time.perf_counter()
    seed = _check_int(seed, "seed", 0, 2**64)
    trials = _check_int(trials, "trials", 1, _MAX_TRIALS + 1)
    regimes = (_check_regime(regime_u), _check_regime(regime_v))

    keys = _stream_keys(seed, (0, 1))
    blocks = -(-trials // _BLOCK)
    reduction = _run_stripes(keys, seed, regimes, trials, _stripe_count(blocks))
    worst, max_diff = reduction.best
    # Integer division is correctly rounded: this is math.fsum(spreads) / trials,
    # which is the largest spread itself once that is NaN or infinite.
    mean = reduction.total / (1 << 1074) / trials if math.isfinite(max_diff) else max_diff
    worst_u, worst_v = _sample_streams(keys, regimes, np.uint64([worst]))[:, :, 0].tolist()

    return SweepSummary(
        trials=trials,
        seed=seed,
        regime_u=regime_u,
        regime_v=regime_v,
        max_diff=max_diff,
        mean_diff=mean,
        p99_diff=reduction.p99(),
        worst_u=tuple(worst_u),
        worst_v=tuple(worst_v),
        worst_index=worst,
        elapsed_seconds=time.perf_counter() - start,
    )
