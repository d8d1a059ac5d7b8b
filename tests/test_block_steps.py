"""The sweep block's route arithmetic, step by step, against reference forms.

Each kernel step below does less work than the plain form it stands
for: a gap without a clamp, one floored division, a range check through
the batch's extremes, one mask call, one mantissa subtraction.  Each
test keeps the plain form as its reference and asks for the same bits,
or the same error message, on the inputs where the two could part: NaN,
inf, zero, subnormals, the largest double, the pure-norm thresholds
give or take a few ulps, and empty and mixed batches.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buresgeo import measures, verify
from buresgeo.hyperbolic import _hyperbolic_fidelity
from buresgeo.measures import _EXACT_PURE_NORM, _PSD_SLACK, UNIT_SLACK, _closed_fidelity
from buresgeo.qubit import (
    PURE_NORM,
    REGIMES,
    _density_entries,
    _dot3,
    _gamma,
    _norm3,
    _sample_streams,
    _stream_keys,
    _xyz,
)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def _ulps_around(x: float, count: int = 4):
    out = [x]
    for direction in (math.inf, -math.inf):
        y = x
        for _ in range(count):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


_SPECIAL = [
    0.0,
    5e-324,
    2.2250738585072009e-308,
    2.2250738585072014e-308,
    1e-300,
    1e-16,
    0.5,
    *_ulps_around(_EXACT_PURE_NORM),
    *_ulps_around(PURE_NORM),
    *_ulps_around(1.0),
    1.0 + 1e-12,
    1.7976931348623157e308,
    math.inf,
    math.nan,
]

_norms = st.one_of(st.sampled_from(_SPECIAL), st.floats(0.0, 1.0 + 1e-12))


def _ball_gap_reference(r):
    gap = np.maximum((1.0 - r) * (1.0 + r), 0.0)
    return np.where(r > _EXACT_PURE_NORM, 0.0, gap)


@settings(max_examples=300, deadline=None)
@given(r=st.lists(_norms, max_size=40))
def test_ball_gap_and_gamma_equal_reference(r):
    r = np.array(r)
    # 1.8e308 overflows (1 - r)(1 + r) in both forms alike.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        assert np.array_equal(_bits(measures._ball_gap(r)), _bits(_ball_gap_reference(r)))
        expected = 1.0 / np.sqrt((1.0 - r) * (1.0 + r))
        assert np.array_equal(_bits(_gamma(r)), _bits(expected))


def _clamp_unit_reference(x, what):
    outside = (x < -UNIT_SLACK) | (x > 1.0 + UNIT_SLACK)
    if outside.any():
        bad = x[outside]
        raise ValueError(f"{what} {float(bad.flat[0])!r} lies outside [0, 1]")
    return np.clip(x, 0.0, 1.0)[()]


def _outcome(f, *args):
    """f's result as bits, or its ValueError's message."""
    try:
        return ("value", _bits(f(*args)).tolist())
    except ValueError as exc:
        return ("error", str(exc))


_fidelities = st.one_of(
    st.sampled_from(
        [
            0.0,
            -0.0,
            1.0,
            -0.5e-12,
            1.0 + 0.5e-12,
            -UNIT_SLACK,
            1.0 + UNIT_SLACK,
            -1e-11,
            1.0 + 1e-11,
            math.nan,
            math.inf,
            -math.inf,
        ]
    ),
    st.floats(-2e-12, 1.0 + 2e-12),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_fidelities, max_size=30), rows=st.sampled_from([0, 1, 2]))
def test_clamp_unit_batch_equals_reference(values, rows):
    x = np.array(values)
    if rows and len(values) % rows == 0:
        x = x.reshape(rows, -1)
    assert _outcome(measures._clamp_unit, x, "f") == _outcome(_clamp_unit_reference, x, "f")


def test_clamp_unit_names_the_first_bad_value():
    x = np.array([0.5, np.nan, 1.5, -2.0, 0.25, 3.0])
    with pytest.raises(ValueError, match=r"^f 1\.5 lies outside"):
        measures._clamp_unit(x, "f")
    with pytest.raises(ValueError, match=r"^f 3\.0 lies outside"):
        measures._clamp_unit(x[::-1].reshape(2, 3), "f")


def _matrix_tail_reference(lo, hi, r1, r2):
    """What _matrix_fidelity does after its eigensolve, in the plain forms."""
    if float(lo) < -_PSD_SLACK if lo.ndim == 0 else (lo < -_PSD_SLACK).any():
        raise ValueError(
            f"sqrt(rho1) rho2 sqrt(rho1) has eigenvalue {float(np.min(lo)):.3e} < -1e-10"
        )
    det_product = _ball_gap_reference(r1) * _ball_gap_reference(r2) / 16.0
    lam_minus = det_product / np.maximum(hi, 5e-324)
    t = np.sqrt(np.maximum(hi, 0.0)) + np.sqrt(lam_minus)
    return _clamp_unit_reference(t * t, "matrix-route fidelity")


_eigenvalues = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, -5e-324, -1e-11, -_PSD_SLACK, -1e-9]
    ),
    st.sampled_from([math.nan, 0.25, 0.5, 1.0, 1.0 + 1e-13]),
    st.floats(-2e-10, 1.0),
)


@settings(max_examples=400, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_eigenvalues, _eigenvalues, st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        max_size=12,
    ),
    scalar=st.booleans(),
)
def test_matrix_route_tail_equals_reference(rows, scalar):
    # The eigensolve is replaced by chosen (lo, hi): nonpositive, subnormal
    # and NaN hi for the determinant recovery, negative and NaN lo for the
    # PSD check.  The states themselves are (r, 0, 0), so r is each norm.
    if scalar:
        rows = rows[:1]
        if not rows:
            return
    lo, hi, r1, r2 = (np.array(column) for column in zip(*rows)) if rows else [np.empty(0)] * 4
    if scalar:
        lo, hi, r1, r2 = lo[0], hi[0], r1[0], r2[0]
    zero = np.zeros_like(r1)
    rho1 = _density_entries(r1, zero, zero)
    rho2 = _density_entries(r2, zero, zero)
    r1, r2 = (_norm3(*(2.0 * rho[2], zero, zero)) for rho in (rho1, rho2))
    # A subnormal hi overflows the division, a negative one the root, alike.
    with np.errstate(invalid="ignore", over="ignore"), mock.patch.object(
        measures, "_eig2", lambda *_: (lo, hi)
    ):
        got = _outcome(measures._matrix_fidelity, rho1, rho2)
        expected = _outcome(_matrix_tail_reference, lo, hi, r1, r2)
    assert got == expected


def test_psd_check_sees_a_negative_eigenvalue_beside_a_nan():
    # A batch raises (test_measures covers the plain batch); its message
    # prints np.min, which a NaN makes nan, as before.
    rho = _density_entries(np.array([0.5, 0.5, 0.5]), np.zeros(3), np.zeros(3))
    lo = np.array([0.1, np.nan, -1e-9])
    with mock.patch.object(measures, "_eig2", lambda *_: (lo, np.ones(3))):
        with pytest.raises(ValueError, match="eigenvalue nan < -1e-10"):
            measures._matrix_fidelity(rho, rho)


def test_a_vanished_largest_eigenvalue_of_mixed_states_is_a_route_fault():
    # Only pure orthogonal states take L+ to 0, and their determinant
    # product is exactly 0.  Two maximally mixed states have 1/16: an
    # eigensolve that reports (0, 0) for them makes L- that product over
    # the least positive double, inf, and the fidelity leaves [0, 1].
    arrays = _density_entries(np.zeros(2), np.zeros(2), np.zeros(2)), np.zeros(2)
    floats = _density_entries(0.0, 0.0, 0.0), 0.0
    for rho, zero in (arrays, floats):
        with np.errstate(over="ignore"), mock.patch.object(measures, "_eig2", lambda *_: (zero, zero)):
            with pytest.raises(measures._RouteError, match=r"^matrix-route fidelity inf lies outside \[0, 1\]$"):
                measures._matrix_fidelity(rho, rho)


def _routes_reference(u, v, ru, rv, hyperbolic):
    dot = _dot3(u, v)
    # Both routes zero the gap of the states whose given norm passes the threshold.
    snap = (ru > _EXACT_PURE_NORM, rv > _EXACT_PURE_NORM)
    f_closed = _closed_fidelity(dot, ru, rv, None, snap)
    f_matrix = measures._matrix_fidelity(_density_entries(*_xyz(u)), _density_entries(*_xyz(v)), None, snap)
    pure = np.maximum(ru, rv) > PURE_NORM
    f_hyp = hyperbolic(
        np.where(pure, 0.0, dot), np.minimum(ru, PURE_NORM), np.minimum(rv, PURE_NORM)
    )
    f_hyp = np.where(pure, np.nan, f_hyp)
    spread = np.fmax(
        np.abs(f_matrix - f_closed),
        np.fmax(np.abs(f_hyp - f_matrix), np.abs(f_hyp - f_closed)),
    )
    return f_matrix, f_closed, f_hyp, spread


_radii = st.one_of(
    st.sampled_from([0.0, 0.5, *_ulps_around(PURE_NORM), *_ulps_around(_EXACT_PURE_NORM), 1.0]),
    st.floats(0.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(_radii, _radii, st.booleans(), st.booleans(), st.sampled_from([1.0, -1.0])),
        min_size=1,
        max_size=8,
    )
)
def test_routes_pure_mask_equals_reference(pairs):
    # u and v along +-x, so each norm is its radius exactly; a NaN given
    # in place of a norm must leave the mask as the larger norm's
    # comparison would, off.  A NaN norm makes the hyperbolic value NaN
    # either way, so the mask is read off the u.v that the hyperbolic
    # kernel receives.
    ru_, rv_, nan_u, nan_v, sign = (np.array(c) for c in zip(*pairs))
    zero = np.zeros_like(ru_)
    u = np.stack([ru_, zero, zero], axis=-1)
    v = np.stack([sign * rv_, zero, zero], axis=-1)
    ru = np.where(nan_u, np.nan, ru_)
    rv = np.where(nan_v, np.nan, rv_)
    seen = []

    def spy(dot, ru, rv, ws=None):
        seen.append([_bits(a).tolist() for a in (dot, ru, rv)])
        return _hyperbolic_fidelity(dot, ru, rv, ws)

    with mock.patch.object(verify, "_hyperbolic_fidelity", spy):
        got = _outcome(lambda *a: np.stack(verify._routes(*a)), u, v, ru, rv)
    expected = _outcome(lambda *a: np.stack(_routes_reference(*a, spy)), u, v, ru, rv)
    assert got == expected
    assert seen[0] == seen[1]


def _exact_sum_reference(x):
    bits = x.view(np.int64)
    exponent = bits >> 52
    mantissa = (bits & 0xFFFFFFFFFFFFF) | ((exponent > 0).astype(np.int64) << 52)
    exponent = np.maximum(exponent, 1)
    lo = np.bincount(exponent, weights=mantissa & 0x3FFFFFF)
    hi = np.bincount(exponent, weights=mantissa >> 26)
    total = 0
    for k in np.flatnonzero(lo + hi).tolist():
        total += (int(hi[k]) << (k + 25)) + (int(lo[k]) << (k - 1))
    return total


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from(
                [
                    0.0,
                    5e-324,
                    1e-310,
                    2.2250738585072009e-308,
                    2.2250738585072014e-308,
                    1.0,
                    1.7976931348623157e308,
                    math.inf,
                ]
            ),
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=True),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_exact_sum_mantissa_equals_reference(values):
    # One value at a time, the sum is its mantissa shifted by its exponent.
    x = np.array(values)
    for i in range(len(values)):
        assert verify._exact_sum(x[i : i + 1], list(np.empty((4, 1)))) == _exact_sum_reference(x[i : i + 1])
    assert verify._exact_sum(x, list(np.empty((4, len(x))))) == _exact_sum_reference(x)


@pytest.mark.parametrize("regime_v", REGIMES)
@pytest.mark.parametrize("regime_u", REGIMES)
def test_workspace_rows_give_the_same_bits(regime_u, regime_v):
    # A sweep stripe's workspace: row 0 holds the indices, rows 1-16 the
    # sampler's, and rows 7 onwards the route kernels', joined by the
    # sampler's output rows 1-6 once the density entries are formed.  Every
    # kernel must give the bits it gives without one, and put back every
    # row it does not return.
    n = 700
    rows = np.empty((verify._WORKSPACE_ROWS, n))
    keys = _stream_keys(9, (0, 1))
    indices = rows[0].view(np.uint64)
    indices[:] = np.arange(3 * n, 4 * n, dtype=np.uint64)
    regimes = (regime_u, regime_v)
    fresh = _sample_streams(keys, regimes, indices.copy())
    u, v = fresh[0].T, fresh[1].T
    expected = verify._routes(u, v, _norm3(*_xyz(u)), _norm3(*_xyz(v)))

    w = _sample_streams(keys, regimes, indices, rows[1:17])
    assert np.array_equal(_bits(w), _bits(fresh))
    pool = list(rows[7:])
    ru, rv = _norm3(*_xyz(w[0].T), pool), _norm3(*_xyz(w[1].T), pool)
    got = verify._routes(w[0].T, w[1].T, ru, rv, pool)
    assert np.array_equal(_bits(np.stack(got)), _bits(np.stack(expected)))
    # Six sampler rows joined; ru, rv and the four results are held.
    assert len(pool) == len(rows) - 7 + 6 - 2 - 4

    w = _sample_streams(keys, regimes, indices, rows[1:17])
    pool = list(rows[7:])
    spread = verify._route_spread(w[0].T, w[1].T, pool)
    assert len(pool) == len(rows) - 7 + 6 - 1
    assert np.array_equal(_bits(spread), _bits(expected[3]))
    assert verify._exact_sum(spread, pool) == _exact_sum_reference(expected[3])
    assert len(pool) == len(rows) - 7 + 6 - 1
