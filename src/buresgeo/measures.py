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

from __future__ import annotations

from typing import NamedTuple

from .qubit import (
    _SPHERE_BAND,
    _add,
    _bloch_of_entries,
    _checked_bloch,
    _checked_density,
    _div,
    _dot3,
    _eig2,
    _eig2_scaled,
    _give,
    _greater,
    _law_of_cosines,
    _maximum,
    _mul,
    _norm3,
    _one_minus_square,
    _own,
    _sqrt,
    _sqrt_entries,
    _sub,
    _take,
    _where,
    _xyz,
    np,
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
_EXACT_PURE_NORM = 1.0 - _SPHERE_BAND


class _RouteError(ValueError):
    """A route's own consistency check failed on trusted inputs: a fault in the computation, not a usage error."""


class LambdaRoots(NamedTuple):
    """Eigenvalues of sqrt(rho1) rho2 sqrt(rho1), largest first."""

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray


def _clamp_unit(x, what: str, out=None):
    """Snap values within UNIT_SLACK of [0, 1] onto it; reject anything worse.

    NaN passes through and -0.0 stays -0.0, as under np.clip.  One value
    is clamped with Python floats, whose min and max return their first
    argument on ties and NaN, so the bits equal np.clip's at a fraction
    of a 0-d ufunc call's cost.  It comes back as a float if it came as
    one, from the one-pair float path, and as a numpy float64 otherwise.
    A batch is checked through its extremes:
    fmin and fmax skip NaN, as the comparisons do, so a batch raises
    exactly when one of its values lies out of range, and the mask that
    finds the first such value, in C order, is built only then.  A
    batch is clipped into ``out``, x's own workspace row, when given.
    """
    one = type(x) is float
    if not one:
        x = np.asarray(x)
        if x.ndim:
            low, high = np.fmin.reduce(x, None, initial=np.inf), np.fmax.reduce(x, None, initial=-np.inf)
            if low < -UNIT_SLACK or high > 1.0 + UNIT_SLACK:
                # The first value out of range, alone, raises with the one-value message.
                _clamp_unit(x[(x < -UNIT_SLACK) | (x > 1.0 + UNIT_SLACK)][0], what)
            return np.clip(x, 0.0, 1.0, out=out)[()]
    value = float(x)
    if value < -UNIT_SLACK or value > 1.0 + UNIT_SLACK:
        raise _RouteError(f"{what} {value!r} lies outside [0, 1]")
    value = min(max(value, 0.0), 1.0)
    return value if one else np.float64(value)


def _ball_gap(r, ws=None):
    """1 - r^2 of the norms r, exactly 0 for effectively pure ones.

    Needs no clamp at 0: for a norm 0 <= r <= _EXACT_PURE_NORM both
    factors of (1-r)(1+r) are positive; a larger norm, inf too, takes
    the 0; and a NaN norm gives NaN with or without a clamp.
    """
    gap = _one_minus_square(r, ws)
    (mask,) = _take(ws, 1)
    value = _where(_greater(r, _EXACT_PURE_NORM, mask), 0.0, gap, _own(ws, gap))
    _give(ws, mask)
    return value


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


def _sandwich(root, rho, ws=None):
    """Entries of R rho R for Hermitian R and rho, both given as entries.

    With R = [[p, q], [conj(q), s]] and rho = [[a, b], [conj(b), d]]:

        (R rho R)_00 = p^2 a + 2 p Re(q conj(b)) + |q|^2 d
        (R rho R)_11 = |q|^2 a + 2 s Re(q conj(b)) + s^2 d
        (R rho R)_01 = q (p a + s d) + q^2 conj(b) + p s b

    The product is Hermitian by construction, so no symmetrization is
    needed.  Four scratch rows suffice: q^2 takes the rows of |q|^2 and
    Re(q conj(b)), and p a + s d waits in the row of Im (R rho R)_01.
    """
    p, s, q_re, q_im = root
    a, d, b_re, b_im = rho
    m00, m11, m01_re, m01_im, w0, w1, w2, tmp = _take(ws, 8)
    q_sq = _add(_mul(q_re, q_re, w0), _mul(q_im, q_im, tmp), w0)
    cross = _add(_mul(q_re, b_re, w1), _mul(q_im, b_im, tmp), w1)
    e00 = _add(_mul(_mul(p, p, m00), a, m00), _mul(_mul(2.0, p, tmp), cross, tmp), m00)
    e00 = _add(e00, _mul(q_sq, d, tmp), m00)
    e11 = _add(_mul(q_sq, a, m11), _mul(_mul(2.0, s, tmp), cross, tmp), m11)
    e11 = _add(e11, _mul(_mul(s, s, tmp), d, tmp), m11)
    t = _add(_mul(p, a, m01_im), _mul(s, d, tmp), m01_im)
    ps = _mul(p, s, w2)
    q2_re = _sub(_mul(q_re, q_re, w0), _mul(q_im, q_im, tmp), w0)
    q2_im = _mul(_mul(2.0, q_re, w1), q_im, w1)
    # (R rho R)_01 = q t + (q^2 conj(b)) + ps b, in the order written out
    # above: the bracket first, then q t + bracket, then + ps b.
    bracket = _add(_mul(q2_re, b_re, m01_re), _mul(q2_im, b_im, tmp), m01_re)
    e01_re = _add(_add(_mul(q_re, t, tmp), bracket, m01_re), _mul(ps, b_re, tmp), m01_re)
    bracket = _sub(_mul(q2_im, b_re, tmp), _mul(q2_re, b_im, w0), tmp)
    e01_im = _add(_mul(q_im, t, m01_im), bracket, m01_im)
    e01_im = _add(e01_im, _mul(ps, b_im, tmp), m01_im)
    _give(ws, w0, w1, w2, tmp)
    return e00, e11, e01_re, e01_im


def _matrix_fidelity(rho1, rho2, ws=None):
    """Matrix-route kernel on the entries (a, d, Re b, Im b) of rho1 and rho2.

    With a workspace, rho1's rows are handed over: its Bloch components
    are written over Re b, Im b and a, whose last use that is, and d's row
    goes back to ws.  Each other quantity is taken where it keeps the
    fewest rows live: 1 - |n1|^2 before the product, |n2| after the
    eigensolve.
    """
    a1, d1, b1_re, b1_im = rho1
    # _take pops from the end: x over Re b, y over Im b, z = a - d over a.
    x1, y1, z1 = _bloch_of_entries(*rho1, None if ws is None else [a1, b1_im, b1_re])
    _give(ws, d1)
    r1 = _norm3(x1, y1, z1, ws)
    root = _sqrt_entries(x1, y1, z1, r1, ws)
    _give(ws, x1, y1, z1)
    gap1 = _ball_gap(r1, ws)
    _give(ws, r1)
    product = _sandwich(root, rho2, ws)
    _give(ws, *root)
    lo, hi = _eig2(*product, ws)
    # One pair is checked with a Python float comparison, as in _clamp_unit;
    # a batch through its minimum, taken by fmin so a NaN hides no negative.
    one = type(lo) is float or lo.ndim == 0
    if (float(lo) if one else np.fmin.reduce(lo, None, initial=np.inf)) < -_PSD_SLACK:
        raise _RouteError(
            f"sqrt(rho1) rho2 sqrt(rho1) has eigenvalue {float(np.min(lo)):.3e} < -1e-10"
        )
    _give(ws, *product, lo)
    bloch2 = _bloch_of_entries(*rho2, ws)
    r2 = _norm3(*bloch2, ws)
    _give(ws, *bloch2)
    gap2 = _ball_gap(r2, ws)
    _give(ws, r2)
    f = _own(ws, gap1)
    det_product = _div(_mul(gap1, gap2, f), 16.0, f)
    lam, mask = _take(ws, 2)
    # det_product / hi where hi > 0, else 0, NaN hi included; where= skips
    # the other rows, so nothing divides by zero.
    if type(hi) is float:
        lam_minus = det_product / hi if hi > 0.0 else 0.0
    else:
        lam_minus = np.divide(det_product, hi, out=_zeros(lam, hi), where=_greater(hi, 0.0, mask))
    # hi can round to a tiny negative where the states are orthogonal and
    # pure; its root is then 0.  maximum, not fmax, so a NaN hi still shows.
    row = _own(ws, hi)
    root_hi = _sqrt(_maximum(hi, 0.0, row), row)
    # t * t, not t ** 2: a numpy scalar takes libm pow for ** 2, which can
    # round unlike the array path, so compare would not reproduce a sweep.
    t = _add(root_hi, _sqrt(lam_minus, lam), f)
    _give(ws, gap2, hi, lam, mask)
    return _clamp_unit(_mul(t, t, f), "matrix-route fidelity", f)


def _zeros(row, like):
    """Zeros shaped like ``like``: the row filled with them, or a fresh array without one."""
    if row is None:
        return np.zeros_like(like)
    row.fill(0.0)
    return row


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
    sinh_w = np.sqrt(np.maximum(-_one_minus_square(gw), 0.0))
    exp_plus = gw + sinh_w
    denom = 4.0 * gu * gv
    return LambdaRoots((exp_plus / denom)[()], (1.0 / (exp_plus * denom))[()])


def _closed_fidelity(dot, ru, rv, ws=None):
    """Closed-form kernel from u.v and the two norms."""
    (out,) = _take(ws, 1)
    half = _mul(0.5, _add(1.0, dot, out), out)
    gap = _ball_gap(ru, ws)
    gap_v = _ball_gap(rv, ws)
    row = _own(ws, gap)
    root = _sqrt(_mul(gap, gap_v, row), row)
    fid = _add(half, _mul(0.5, root, row), out)
    _give(ws, gap, gap_v)
    return _clamp_unit(fid, "closed-route fidelity", out)


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
