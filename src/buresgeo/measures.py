"""Trace distance and Bures fidelity between qubit states.

Two independent computations of each quantity live here: the matrix
definitions (trace norm of the difference, trace of the square root of
sqrt(rho1) rho2 sqrt(rho1)) and closed forms in the Bloch vectors.  The
third, hyperbolic route lives in :mod:`buresgeo.hyperbolic`; the three
are cross-checked by :mod:`buresgeo.verify`.

Each public function validates its inputs once and hands them to a
private kernel (``_matrix_fidelity``, ``_closed_fidelity``,
``_trace_distance``) that trusts its arrays.  The matrix kernel works
from density-matrix entries and the product sqrt(rho1) rho2 sqrt(rho1)
written out entry by entry; it never uses the Bloch closed form.
"""

from typing import NamedTuple

import numpy as np

from .qubit import (
    _bloch_of_entries,
    _checked_bloch,
    _checked_density,
    _dot3,
    _eig2,
    _eig2_scaled,
    _law_of_cosines,
    _norm3,
    _sqrt_entries,
    _xyz,
)

__all__ = [
    "LambdaRoots",
    "trace_distance_matrix",
    "trace_distance_bloch",
    "bures_fidelity_matrix",
    "lambda_roots",
    "bures_fidelity_closed",
]

# Fidelities may stray at most this far outside [0, 1] before being
# treated as a computation error rather than rounding.
UNIT_SLACK = 1e-12

_PSD_SLACK = 1e-10

# Norms this close to 1 are indistinguishable from pure once a state has
# round-tripped through its density matrix: 1 - |n|^2 falls within ~1000
# ulps of zero, and the square root of that noise (~1e-8) would dwarf the
# route-agreement budget.  Both fidelity routes therefore treat the
# radical term of such states as exactly zero.
_EXACT_PURE_NORM = 1.0 - 1e-13


class LambdaRoots(NamedTuple):
    """Eigenvalues of sqrt(rho1) rho2 sqrt(rho1), largest first."""

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray


def _clamp_unit(x, what: str):
    """Snap values within UNIT_SLACK of [0, 1] onto it; reject anything worse.

    NaN passes through and -0.0 stays -0.0, as under np.clip.  One value
    is clamped with Python floats, whose min and max return their first
    argument on ties and NaN, so the bits equal np.clip's at a fraction
    of a 0-d ufunc call's cost.
    """
    x = np.asarray(x)
    if x.ndim == 0:
        value = float(x)
        if value < -UNIT_SLACK or value > 1.0 + UNIT_SLACK:
            raise ValueError(f"{what} {value!r} lies outside [0, 1]")
        return np.float64(min(max(value, 0.0), 1.0))
    outside = (x < -UNIT_SLACK) | (x > 1.0 + UNIT_SLACK)
    if outside.any():
        bad = x[outside]
        raise ValueError(f"{what} {float(bad.flat[0])!r} lies outside [0, 1]")
    return np.clip(x, 0.0, 1.0)[()]


def _ball_gap(r):
    """1 - r^2 factored as (1-r)(1+r); exactly 0 for effectively pure norms."""
    gap = np.maximum((1.0 - r) * (1.0 + r), 0.0)
    return np.where(r > _EXACT_PURE_NORM, 0.0, gap)


def trace_distance_matrix(rho1, rho2):
    """Half the trace norm of rho1 - rho2.

    The difference is traceless Hermitian, so the distance is the sum of
    the absolute eigenvalues over two.  Always lies in [0, 1].
    """
    _, (a1, d1, b1_re, b1_im) = _checked_density(rho1)
    _, (a2, d2, b2_re, b2_im) = _checked_density(rho2)
    # Scaled: two close states differ by entries far below density scale.
    lo, hi = _eig2_scaled(a1 - a2, d1 - d2, b1_re - b2_re, b1_im - b2_im)
    return 0.5 * (np.abs(lo) + np.abs(hi))


def _trace_distance(u, v):
    ux, uy, uz = _xyz(u)
    vx, vy, vz = _xyz(v)
    return 0.5 * _norm3(ux - vx, uy - vy, uz - vz)


def trace_distance_bloch(u, v):
    """Half the Euclidean distance between the Bloch vectors."""
    return _trace_distance(_checked_bloch(u)[0], _checked_bloch(v)[0])


def _sandwich(root, rho):
    """Entries of R rho R for Hermitian R and rho, both given as entries.

    With R = [[p, q], [conj(q), s]] and rho = [[a, b], [conj(b), d]]:

        (R rho R)_00 = p^2 a + 2 p Re(q conj(b)) + |q|^2 d
        (R rho R)_11 = |q|^2 a + 2 s Re(q conj(b)) + s^2 d
        (R rho R)_01 = q (p a + s d) + q^2 conj(b) + p s b

    The product is Hermitian by construction, so no symmetrization is
    needed.
    """
    p, s, q_re, q_im = root
    a, d, b_re, b_im = rho
    q_sq = q_re * q_re + q_im * q_im
    cross = q_re * b_re + q_im * b_im
    m00 = p * p * a + 2.0 * p * cross + q_sq * d
    m11 = q_sq * a + 2.0 * s * cross + s * s * d
    t = p * a + s * d
    ps = p * s
    q2_re = q_re * q_re - q_im * q_im
    q2_im = 2.0 * q_re * q_im
    m01_re = q_re * t + (q2_re * b_re + q2_im * b_im) + ps * b_re
    m01_im = q_im * t + (q2_im * b_re - q2_re * b_im) + ps * b_im
    return m00, m11, m01_re, m01_im


def _matrix_fidelity(rho1, rho2):
    """Matrix-route kernel on the entries (a, d, Re b, Im b) of rho1 and rho2."""
    x1, y1, z1 = _bloch_of_entries(*rho1)
    r1 = _norm3(x1, y1, z1)
    r2 = _norm3(*_bloch_of_entries(*rho2))
    lo, hi = _eig2(*_sandwich(_sqrt_entries(x1, y1, z1, r1), rho2))
    # One pair is checked with a Python float comparison, as in _clamp_unit.
    if float(lo) < -_PSD_SLACK if lo.ndim == 0 else (lo < -_PSD_SLACK).any():
        raise ValueError(
            f"sqrt(rho1) rho2 sqrt(rho1) has eigenvalue {float(np.min(lo)):.3e} < -1e-10"
        )
    det_product = _ball_gap(r1) * _ball_gap(r2) / 16.0
    lam_minus = np.where(hi > 0.0, det_product / np.where(hi > 0.0, hi, 1.0), 0.0)
    # t * t, not t ** 2: a numpy scalar takes libm pow for ** 2, which can
    # round unlike the array path, so compare would not reproduce a sweep.
    t = np.sqrt(hi) + np.sqrt(lam_minus)
    return _clamp_unit(t * t, "bures fidelity")


def bures_fidelity_matrix(rho1, rho2):
    """Bures fidelity [trace sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2.

    Forms m = sqrt(rho1) rho2 sqrt(rho1) entry by entry (Hermitian by
    construction) and evaluates (sqrt(L+) + sqrt(L-))^2 from its
    eigenvalues.  L+ comes from the closed-form eigensolve; L- is
    recovered through det(m) = det(rho1) det(rho2) as that product over
    L+, because the direct small root cancels to ~1e-16 absolute near
    pure states, which sqrt would amplify far beyond the route-agreement
    budget.  Each determinant is evaluated as (1-r)(1+r)/4 from the
    recovered Bloch norm, the only factorization that stays accurate
    near the sphere, with effectively pure norms giving exactly zero.

    Raises ValueError if m has an eigenvalue below -1e-10 (inputs were
    not PSD to working precision) or the result leaves [0, 1] by more
    than 1e-12.
    """
    _, entries1 = _checked_density(rho1)
    _, entries2 = _checked_density(rho2)
    return _matrix_fidelity(entries1, entries2)


def lambda_roots(u, v) -> LambdaRoots:
    """Eigenvalues of sqrt(rho(u)) rho(v) sqrt(rho(u)) from Bloch vectors.

    With Lorentz factors g_u, g_v and g_w = g_u g_v (1 + u.v), the two
    roots are exp(+-phi_w) / (4 g_u g_v) where cosh(phi_w) = g_w.  The
    exponentials are evaluated as g_w + sinh(phi_w) and its reciprocal;
    the subtractive form cosh - sinh would cancel catastrophically for
    large phi_w.

    Requires |u|, |v| < 1; for pure inputs use bures_fidelity_closed.
    """
    u, ru = _checked_bloch(u)
    v, rv = _checked_bloch(v)
    if np.any(ru >= 1.0) or np.any(rv >= 1.0):
        raise ValueError("pure input: the root formula needs finite rapidities")
    gu, gv, gw = _law_of_cosines(_dot3(u, v), ru, rv)
    sinh_w = np.sqrt(np.maximum((gw - 1.0) * (gw + 1.0), 0.0))
    exp_plus = gw + sinh_w
    denom = 4.0 * gu * gv
    return LambdaRoots((exp_plus / denom)[()], (1.0 / (exp_plus * denom))[()])


def _closed_fidelity(dot, ru, rv):
    """Closed-form kernel from u.v and the two norms."""
    fid = 0.5 * (1.0 + dot) + 0.5 * np.sqrt(_ball_gap(ru) * _ball_gap(rv))
    return _clamp_unit(fid, "bures fidelity")


def bures_fidelity_closed(u, v):
    """Closed-form Bures fidelity (1 + u.v)/2 + sqrt((1-|u|^2)(1-|v|^2))/2.

    Valid on the whole ball including pure states, where the second term
    vanishes exactly (norms within ~1e-13 of 1 count as pure, so
    normalization rounding cannot leak into the radical).  Symmetric in
    (u, v) bit-for-bit: the dot product is accumulated in a fixed
    component order and every other operation is commutative.
    """
    u, ru = _checked_bloch(u)
    v, rv = _checked_bloch(v)
    return _closed_fidelity(_dot3(u, v), ru, rv)
