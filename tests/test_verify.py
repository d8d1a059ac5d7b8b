"""Tests for cross-route reports and deterministic sweeps."""

import functools
import itertools
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buresgeo as bg
from buresgeo import cli, measures, verify
from buresgeo.measures import _RouteError


def _strip_elapsed(summary):
    return summary._replace(elapsed_seconds=0.0)


@functools.cache
def _single_call_summary(seed, trials, regime_u, regime_v):
    """The summary of one _route_spread call over the whole index range."""
    idx = np.arange(trials)
    u = bg.random_bloch_indexed(seed, regime_u, idx, stream=0)
    v = bg.random_bloch_indexed(seed, regime_v, idx, stream=1)
    diffs = verify._route_spread(u, v)
    worst = int(np.argmax(diffs))
    return bg.SweepSummary(
        trials=trials,
        seed=seed,
        regime_u=regime_u,
        regime_v=regime_v,
        max_diff=float(diffs[worst]),
        mean_diff=math.fsum(diffs) / trials,
        p99_diff=float(np.percentile(diffs, 99.0)),
        worst_u=tuple(float(x) for x in u[worst]),
        worst_v=tuple(float(x) for x in v[worst]),
        worst_index=worst,
        elapsed_seconds=0.0,
    )


class TestCompare:
    def test_identical_mixed_states(self):
        report = bg.compare([0, 0, 0.3], [0, 0, 0.3])
        for value in (report.f_matrix, report.f_hyperbolic, report.f_closed):
            assert abs(value - 1.0) <= 1e-12
        assert report.max_pairwise_diff <= 1e-12
        assert report.d_trace == 0.0
        assert report.regime_flags == frozenset()

    def test_worked_pair(self):
        report = bg.compare([0.5, 0, 0], [0, 0.5, 0])
        np.testing.assert_allclose(
            [report.f_matrix, report.f_hyperbolic, report.f_closed], 0.875, atol=1e-12
        )
        np.testing.assert_allclose(report.d_trace, 0.3535533905932738, atol=1e-12)
        assert report.max_pairwise_diff <= 1e-12

    def test_orthogonal_pure_routes_around_hyperbolic(self):
        report = bg.compare([0, 0, 1], [0, 0, -1])
        assert report.f_hyperbolic is None
        assert report.f_closed == 0.0
        assert abs(report.f_matrix) <= 1e-15
        assert {"pure_u", "pure_v"} <= set(report.regime_flags)
        assert report.d_trace == 1.0

    def test_never_raises_on_pure(self):
        report = bg.compare([1, 0, 0], [0.3, 0.2, 0.1])
        assert report.f_hyperbolic is None
        assert "pure_u" in report.regime_flags
        assert "pure_v" not in report.regime_flags

    def test_near_flags(self):
        report = bg.compare([1 - 1e-5, 0, 0], [1e-5, 0, 0])
        assert "near_pure" in report.regime_flags
        assert "near_mixed" in report.regime_flags
        assert report.f_hyperbolic is not None

    def test_fidelities_in_range(self):
        for index in range(50):
            u = bg.random_bloch_indexed(71, "uniform_ball", index, stream=0)
            v = bg.random_bloch_indexed(71, "pure", index, stream=1)
            report = bg.compare(u, v)
            values = [report.f_matrix, report.f_closed]
            if report.f_hyperbolic is not None:
                values.append(report.f_hyperbolic)
            assert all(0.0 <= f <= 1.0 for f in values)


def _batch_routes(u, v):
    return verify._routes(u, v, bg.bloch_norm(u), bg.bloch_norm(v))


class TestRoutes:
    """compare and the sweep share one route kernel, verify._routes."""

    def test_identical_pure_pair(self):
        # u.v = 1 on norms clipped to PURE_NORM would push the masked
        # hyperbolic value to 1 + 1e-9, past the clamp; u.v is masked too.
        u = np.array([[0.0, 0.0, 1.0]])
        assert verify._route_spread(u, u)[0] == 0.0
        report = bg.compare(u[0], u[0])
        assert report.f_hyperbolic is None
        assert report.max_pairwise_diff == 0.0

    def test_identical_sampled_pure_rows(self):
        u = bg.random_bloch_indexed(3, "pure", np.arange(2000))
        f_matrix, f_closed, f_hyp, spread = _batch_routes(u, u)
        assert np.isnan(f_hyp).all()
        # The hyperbolic route is left out of the spread entirely.
        np.testing.assert_array_equal(spread, np.abs(f_matrix - f_closed))
        np.testing.assert_array_equal(verify._route_spread(u, u), spread)
        assert spread.max() <= 1e-15
        for i in range(0, 2000, 97):
            report = bg.compare(u[i], u[i])
            assert report.f_hyperbolic is None
            assert report.max_pairwise_diff == spread[i]

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 1])
    def test_compare_matches_batch_rows(self, seed):
        rows = np.arange(0, 6000, 37)
        for regime_u in bg.REGIMES:
            for regime_v in bg.REGIMES:
                u = bg.random_bloch_indexed(seed, regime_u, rows, stream=0)
                v = bg.random_bloch_indexed(seed, regime_v, rows, stream=1)
                f_matrix, f_closed, f_hyp, spread = _batch_routes(u, v)
                for i in range(len(rows)):
                    report = bg.compare(u[i], v[i])
                    where = (seed, regime_u, regime_v, i)
                    assert report.f_matrix == f_matrix[i], where
                    assert report.f_closed == f_closed[i], where
                    assert report.max_pairwise_diff == spread[i], where
                    if np.isnan(f_hyp[i]):
                        assert report.f_hyperbolic is None, where
                    else:
                        assert report.f_hyperbolic == f_hyp[i], where


class TestSweep:
    def test_single_trial(self):
        summary = bg.sweep(5, 1, "uniform_ball", "uniform_ball")
        assert summary.trials == 1
        assert summary.max_diff == summary.mean_diff == summary.p99_diff
        assert summary.worst_index == 0
        report = bg.compare(summary.worst_u, summary.worst_v)
        assert summary.max_diff == report.max_pairwise_diff

    def test_deterministic_across_runs(self):
        first = bg.sweep(99, 4000, "uniform_ball", "near_pure")
        second = bg.sweep(99, 4000, "uniform_ball", "near_pure")
        assert first.elapsed_seconds != 0.0
        assert _strip_elapsed(first) == _strip_elapsed(second)

    @pytest.mark.parametrize("block", [7, 1000, 4096])
    def test_block_partition_invariant(self, monkeypatch, block):
        monkeypatch.setattr(verify, "_BLOCK", block)
        cases = [(trials, "near_pure", "near_mixed") for trials in (block - 1, block, 5000)]
        cases += [(block + 1, ru, rv) for ru in bg.REGIMES for rv in bg.REGIMES]
        for trials, regime_u, regime_v in cases:
            expected = _single_call_summary(123, trials, regime_u, regime_v)
            summary = bg.sweep(123, trials, regime_u, regime_v)
            assert _strip_elapsed(summary) == expected, (trials, regime_u, regime_v)

    def test_default_block_boundaries(self):
        for trials in (verify._BLOCK - 1, verify._BLOCK, verify._BLOCK + 1):
            expected = _single_call_summary(321, trials, "near_pure", "near_mixed")
            assert _strip_elapsed(bg.sweep(321, trials, "near_pure", "near_mixed")) == expected

    def test_worst_pair_matches_indexed_sampler(self):
        summary = bg.sweep(17, 2000, "uniform_ball", "uniform_ball")
        u = bg.random_bloch_indexed(17, "uniform_ball", summary.worst_index, stream=0)
        v = bg.random_bloch_indexed(17, "uniform_ball", summary.worst_index, stream=1)
        assert summary.worst_u == tuple(u)
        assert summary.worst_v == tuple(v)

    def test_statistics_are_consistent(self):
        summary = bg.sweep(31, 3000, "uniform_ball", "pure")
        assert 0.0 <= summary.mean_diff <= summary.max_diff
        assert summary.p99_diff <= summary.max_diff
        assert summary.regime_u == "uniform_ball" and summary.regime_v == "pure"

    def test_worst_pair_reproduces_through_compare(self):
        # compare on a scalar pair must give the spread the batch kernels gave.
        for seed in range(12):
            for regime_u in bg.REGIMES:
                for regime_v in bg.REGIMES:
                    summary = bg.sweep(seed, 3000, regime_u, regime_v)
                    report = bg.compare(summary.worst_u, summary.worst_v)
                    assert report.max_pairwise_diff == summary.max_diff, (
                        seed, regime_u, regime_v,
                    )

    def test_agreement_across_all_regime_pairs(self):
        for regime_u in bg.REGIMES:
            for regime_v in bg.REGIMES:
                summary = bg.sweep(2024, 3000, regime_u, regime_v)
                assert summary.max_diff <= 1e-10, (regime_u, regime_v, summary.max_diff)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="trials"):
            bg.sweep(1, 0, "uniform_ball", "uniform_ball")
        with pytest.raises(ValueError, match="regime"):
            bg.sweep(1, 10, "uniform_ball", "gibbs")
        with pytest.raises(ValueError, match="seed"):
            bg.sweep(-1, 10, "uniform_ball", "uniform_ball")

    @pytest.mark.parametrize("trials", [2.7, 2.0, True, "3", None])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer in"):
            bg.sweep(1, trials, "uniform_ball", "uniform_ball")

    @pytest.mark.parametrize("seed", [True, False, 1.0, "1"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer in"):
            bg.sweep(seed, 10, "uniform_ball", "uniform_ball")

    @pytest.mark.parametrize("trials", [verify._MAX_TRIALS + 1, 2**40, 2**62])
    def test_rejects_trials_above_cap(self, trials):
        with pytest.raises(ValueError, match="trials must be an integer in"):
            bg.sweep(0, trials, "uniform_ball", "uniform_ball")

    def test_allocation_failure_is_value_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError

        # One thread: a workspace of _WORKSPACE_ROWS rows of 10 trials, and
        # 2k = 4 candidate doubles for the k = 10 - floor(9 * 0.99) = 2
        # largest, with room for one block of 10 more.
        monkeypatch.setattr(verify.np, "empty", fail)
        nbytes = 8 * (verify._WORKSPACE_ROWS * 10 + 4 + 10)
        with pytest.raises(ValueError, match=f"trials=10 needs {nbytes} bytes"):
            bg.sweep(0, 10, "uniform_ball", "uniform_ball")

    @pytest.mark.parametrize("regime_v", bg.REGIMES)
    @pytest.mark.parametrize("regime_u", bg.REGIMES)
    def test_workspace_rows_are_the_pools_peak(self, monkeypatch, regime_u, regime_v):
        # One block's sampler and kernels hold at most _WORKSPACE_ROWS rows
        # at once: a one-block sweep runs with that many, and with one row
        # fewer a kernel pops from the empty pool.
        rows = verify._WORKSPACE_ROWS
        assert bg.sweep(2, 100, regime_u, regime_v).trials == 100
        monkeypatch.setattr(verify, "_WORKSPACE_ROWS", rows - 1)
        with pytest.raises(IndexError, match="pop from empty list"):
            bg.sweep(2, 100, regime_u, regime_v)

    def test_accepts_numpy_integers(self):
        summary = bg.sweep(np.uint64(5), np.int64(3), "uniform_ball", "uniform_ball")
        assert _strip_elapsed(summary) == _strip_elapsed(bg.sweep(5, 3, "uniform_ball", "uniform_ball"))
        assert type(summary.seed) is int and type(summary.trials) is int


def _force_threads(monkeypatch, threads):
    monkeypatch.setattr(verify, "_thread_count", lambda blocks: threads)


class TestThreadedSweep:
    """Blocks striped over threads give the serial summary, bit for bit."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("block", [1000, 4096, 16384])
    def test_identical_for_any_thread_count_and_block(self, monkeypatch, block, threads):
        monkeypatch.setattr(verify, "_BLOCK", block)
        _force_threads(monkeypatch, threads)
        for trials in (1, 16383, 16385, 40000):
            for regime_u in bg.REGIMES:
                for regime_v in bg.REGIMES:
                    expected = _single_call_summary(trials + 1, trials, regime_u, regime_v)
                    summary = _strip_elapsed(bg.sweep(trials + 1, trials, regime_u, regime_v))
                    assert repr(summary) == repr(expected), (trials, regime_u, regime_v)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_mean_is_rounded_once(self, monkeypatch, threads):
        # Rounded per block or per thread, 1 + 2**-53 ties to 1.0 and the
        # mean loses the 2**-52 that the exact sum keeps.
        spreads = np.array([1.0, 2.0**-53, 2.0**-53, 0.0, 0.0, 0.0])
        monkeypatch.setattr(verify, "_BLOCK", 2)
        _force_threads(monkeypatch, threads)
        monkeypatch.setattr(
            verify, "_sample_streams",
            lambda keys, regimes, idx, ws=None: np.stack([[idx.astype(float)] * 3] * len(keys)),
        )
        monkeypatch.setattr(verify, "_route_spread", lambda u, v, ws=None: spreads[u[:, 0].astype(int)])
        summary = bg.sweep(0, len(spreads), "pure", "pure")
        assert summary.mean_diff == math.fsum(spreads) / len(spreads)
        assert summary.max_diff == 1.0 and summary.worst_index == 0

    def test_thread_count_follows_affinity_and_caps(self, monkeypatch):
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert verify._thread_count(1) == 1
        assert verify._thread_count(3) == min(3, verify._MAX_THREADS)
        assert verify._thread_count(10**6) == verify._MAX_THREADS
        monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        assert verify._thread_count(10**6) == 1

    def test_worker_failure_propagates_and_stops_every_thread(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "_BLOCK", 1000)
        _force_threads(monkeypatch, 3)
        original = verify._route_spread
        calls = itertools.count()
        raised = []

        def failing(u, v, ws=None):
            if next(calls) == 2:
                raised.append(ValueError("injected block failure"))
                raise raised[-1]
            return original(u, v, ws)

        monkeypatch.setattr(verify, "_route_spread", failing)
        before = threading.active_count()
        with pytest.raises(ValueError, match="injected block failure") as excinfo:
            bg.sweep(0, 100_000, "uniform_ball", "uniform_ball")
        assert excinfo.value is raised[0]
        assert threading.active_count() == before
        # The other stripes stop at their next block, far short of all 100.
        assert next(calls) <= 20

        calls = itertools.count()
        assert cli.main(["verify", "--trials", "100000"]) == cli.EXIT_USAGE
        assert "injected block failure" in capsys.readouterr().err
        assert threading.active_count() == before

    def test_no_thread_outlives_a_sweep(self):
        before = threading.active_count()
        summary = bg.sweep(8, 5 * verify._BLOCK, "near_pure", "uniform_ball")
        assert threading.active_count() == before
        assert _strip_elapsed(summary) == _single_call_summary(8, 5 * verify._BLOCK, "near_pure", "uniform_ball")

    def test_stress_with_frequent_thread_switches(self, monkeypatch):
        monkeypatch.setattr(verify, "_BLOCK", 257)
        _force_threads(monkeypatch, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 3.0
            for seed in itertools.count():
                trials = 2000 + 97 * seed
                expected = _single_call_summary(seed, trials, "uniform_ball", "near_mixed")
                summary = bg.sweep(seed, trials, "uniform_ball", "near_mixed")
                assert repr(_strip_elapsed(summary)) == repr(expected), seed
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)


def _scaled_gap(monkeypatch):
    """1 - r^2 scaled by 1.001: the closed route's fidelity of close enough states passes 1."""
    real = measures._one_minus_square

    def scaled(r, ws=None):
        gap = real(r, ws)
        return gap * 1.001 if ws is None else np.multiply(gap, 1.001, out=gap)

    monkeypatch.setattr(measures, "_one_minus_square", scaled)


def _negative_eigenvalue(monkeypatch):
    """The low eigenvalue of sqrt(rho1) rho2 sqrt(rho1) set to -1 wherever the high one passes 0.95."""
    real = measures._eig2

    def faulty(a, d, b_re, b_im, ws=None):
        lo, hi = real(a, d, b_re, b_im, ws)
        if type(lo) is float:
            return (-1.0 if hi > 0.4999 else lo), hi
        np.copyto(lo, -1.0, where=hi > 0.4999)
        return lo, hi

    monkeypatch.setattr(measures, "_eig2", faulty)


class TestRouteFaultLocation:
    """A route fault inside a sweep names its trial, whose pair reproduces the fault."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("fault, seed", [(_scaled_gap, 3), (_negative_eigenvalue, 2)], ids=["closed", "psd"])
    def test_the_named_trial_reproduces_the_fault(self, monkeypatch, fault, seed, threads):
        block = 1000
        monkeypatch.setattr(verify, "_BLOCK", block)
        _force_threads(monkeypatch, threads)
        fault(monkeypatch)
        with pytest.raises(_RouteError) as raised:
            bg.sweep(seed, 100_000, "uniform_ball", "near_mixed")
        match = re.fullmatch(rf"(.+) \(seed {seed}, uniform_ball x near_mixed, trial (\d+)\)", str(raised.value))
        assert match, str(raised.value)
        trial = int(match[2])
        assert raised.value.index == trial
        u = bg.random_bloch_indexed(seed, "uniform_ball", trial, stream=0)
        v = bg.random_bloch_indexed(seed, "near_mixed", trial, stream=1)
        with pytest.raises(_RouteError) as again:
            bg.compare(u, v)
        assert str(again.value) == match[1]
        # It is the first fault of its block: the block's array path names the same trial.
        indices = np.arange(trial - trial % block, trial - trial % block + block)
        with pytest.raises(_RouteError) as in_block:
            verify._route_spread(
                bg.random_bloch_indexed(seed, "uniform_ball", indices, stream=0),
                bg.random_bloch_indexed(seed, "near_mixed", indices, stream=1),
            )
        assert in_block.value.index == trial % block
        if threads == 1:
            assert trial >= block  # the first blocks pass, so the block's offset is added


def _grid_spreads(nan_xs=()):
    """A _route_spread stand-in: |u.x| on a grid of eighths, NaN where u.x is listed.

    The largest grid value turns up in many blocks and stripes, and ties
    crowd the order statistics around the p99.
    """
    nan_xs = np.asarray(nan_xs, dtype=float)

    def spreads(u, v, ws=None):
        out = np.round(np.abs(u[:, 0]) * 8.0) / 8.0
        out[np.isin(u[:, 0], nan_xs)] = np.nan
        return out

    return spreads


class TestReductions:
    """Per-block sums, maxima and p99 candidates merge to the one-array summary."""

    SEED = 606

    # 1001 trials keep k = 11 candidates; 100_000 keep k = 1001, more than a
    # 1000-trial block, and 410_000 keep k = 4101, more than a 4096-trial one.
    @pytest.mark.parametrize("trials", [1, 2, 3, 101, 1001, 4097, 100_000, 410_000])
    def test_merged_reductions_equal_one_array(self, monkeypatch, trials):
        chosen = sorted({trials - 1, trials // 2, min(1500, trials - 1)})
        xs = bg.random_bloch_indexed(self.SEED, "uniform_ball", chosen)[:, 0]
        variants = {
            "ties": _grid_spreads(),
            "nan": _grid_spreads(xs),
            "nan in the last block": _grid_spreads(xs[-1:]),
            "zeros": lambda u, v, ws=None: np.zeros(len(u)),
            "distinct": lambda u, v, ws=None: np.abs(u[:, 0]) * 1e-12,
        }
        for name, spreads in variants.items():
            monkeypatch.setattr(verify, "_route_spread", spreads)
            expected = repr(_single_call_summary.__wrapped__(self.SEED, trials, "uniform_ball", "uniform_ball"))
            for block in (1000, 4096):
                for threads in (1, 2, 3):
                    monkeypatch.setattr(verify, "_BLOCK", block)
                    _force_threads(monkeypatch, threads)
                    summary = bg.sweep(self.SEED, trials, "uniform_ball", "uniform_ball")
                    assert repr(_strip_elapsed(summary)) == expected, (name, block, threads)

    def test_memory_does_not_grow_with_trials(self):
        # A per-trial spread array would add 7.2 MB from 1e5 to 1e6 trials;
        # the p99 candidates add 16 B per extra candidate, in the sweep's one buffer.
        def peak(trials):
            tracemalloc.start()
            try:
                bg.sweep(5, trials, "uniform_ball", "uniform_ball")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(10**6) - peak(10**5) < 2**20


def _reduce(x, bounds, order, check=None):
    """x reduced by one _Reduction, its blocks x[bounds[i]:bounds[i + 1]] added in the given order.

    Each add gets a fresh copy of its block and 5 lent rows, as a stripe
    lends them.  check, if given, runs after each add with the values
    added so far.
    """
    blocks = list(zip(bounds, bounds[1:]))
    reduction = verify._Reduction(len(x), max(hi - lo for lo, hi in blocks))
    added = []
    for lo, hi in (blocks[i] for i in order):
        reduction.add(lo, x[lo:hi].copy(), list(np.empty((5, hi - lo))))
        added.append(x[lo:hi])
        if check:
            check(reduction, np.concatenate(added))
    return reduction


def _floor_below_kth(reduction, added):
    # The floor never passes the k-th largest value added so far.
    kth = np.sort(added)[-reduction.k] if len(added) >= reduction.k else -math.inf
    assert not reduction.floor > kth


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, math.nan, math.inf]), st.floats(0.0, 2.0)),
        min_size=1,
        max_size=300,
    ),
    # Copies of the values: ties, and k up to 37 candidates at 3600 values.
    copies=st.integers(1, 12),
    cuts=st.lists(st.integers(0, 3600), max_size=8),
    data=st.data(),
)
def test_reduction_equals_one_array(values, copies, cuts, data):
    # Stripes share one reduction, so blocks arrive in any order.
    x = np.tile(values, copies)
    bounds = sorted({0, len(x), *(min(c, len(x)) for c in cuts)})
    order = data.draw(st.permutations(range(len(bounds) - 1)))
    reduction = _reduce(x, bounds, order, _floor_below_kth)
    worst = int(np.argmax(x))
    assert repr(reduction.best) == repr((worst, float(x[worst])))
    with np.errstate(invalid="ignore"):  # inf - inf in the interpolation, as in numpy's
        assert repr(reduction.p99()) == repr(float(np.percentile(x, 99.0)))
    if np.isfinite(x).all():
        assert repr(reduction.total / (1 << 1074)) == repr(math.fsum(x))


_SPECIAL = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.0, 1e-300, 1e300]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from(_SPECIAL),
            st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=60,
    ),
    cuts=st.lists(st.integers(0, 60), max_size=5),
)
def test_exact_block_sum_equals_fsum(values, cuts):
    x = np.array(values)
    assert not np.signbit(x).any()
    bounds = sorted({0, len(values), *(min(c, len(values)) for c in cuts)})
    total = sum(verify._exact_sum(x[lo:hi], list(np.empty((4, hi - lo)))) for lo, hi in zip(bounds, bounds[1:]))
    assert repr(total / (1 << 1074)) == repr(math.fsum(values))


def _p99_cases():
    """Nonnegative like the spreads: ties, zeros, subnormals and plain draws, then NaN and a halfway case."""
    rng = np.random.default_rng(99)
    for n in [*range(1, 2001), 16383, 16385, 100_000]:
        yield rng.random(n) * 1e-15
        yield rng.integers(0, 3, n) * 2.0**-52
        yield np.where(rng.random(n) < 0.7, 0.0, rng.random(n))
        yield rng.integers(0, 5, n) * 5e-324 + rng.integers(0, 2, n) * 2.2250738585072014e-308
    yield np.array([np.nan])
    yield np.array([0.0, np.nan, *rng.random(300)])
    # At 51 values the position sits exactly halfway, t = 0.5, where numpy
    # interpolates from the upper value; from the lower one these two round apart.
    yield np.array([0.0] * 49 + [0.0005118216247002568, 0.9504636963259353])


def test_p99_equals_numpy_percentile():
    rng = np.random.default_rng(7)
    for x in _p99_cases():
        expected = repr(float(np.percentile(x, 99.0)))
        bounds = sorted({0, len(x), *rng.integers(0, len(x) + 1, 3).tolist()})
        reduction = _reduce(x, bounds, rng.permutation(len(bounds) - 1))
        assert repr(reduction.p99()) == expected, len(x)
