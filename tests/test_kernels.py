"""The private kernels: accuracy against an exact oracle, and equality
with the public routes that validate and then call them.

The oracle evaluates the closed form exactly on the float inputs:
``fractions.Fraction`` for u.v and 1 - |n|^2, and ``decimal`` at 40
digits for the square root.  It applies the package's pure-state snap
(a norm above _EXACT_PURE_NORM has a zero radical), so what it measures
is rounding error, not that convention.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import buresgeo as bg
from buresgeo.hyperbolic import _hyperbolic_fidelity
from buresgeo.measures import (
    _EXACT_PURE_NORM,
    _closed_fidelity,
    _matrix_fidelity,
    _trace_distance,
)
from buresgeo.qubit import (
    BALL_EPS,
    PURE_NORM,
    _bloch_of_entries,
    _checked_bloch,
    _density_entries,
    _dot3,
    _eig2,
    _hermitian2,
    _norm3,
    _sqrt_entries,
    _xyz,
)

_SNAP_NORM2 = Fraction(_EXACT_PURE_NORM) ** 2


def _exact_gap(n) -> Fraction:
    norm2 = sum(Fraction(x) ** 2 for x in n)
    return Fraction(0) if norm2 > _SNAP_NORM2 else 1 - norm2


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def exact_fidelity(u, v) -> Decimal:
    """(1 + u.v)/2 + sqrt((1 - |u|^2)(1 - |v|^2))/2 of the float inputs, to 40 digits."""
    dot = sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))
    with localcontext() as ctx:
        ctx.prec = 40
        return _decimal((1 + dot) / 2) + _decimal(_exact_gap(u) * _exact_gap(v)).sqrt() / 2


def _max_error(values, exact) -> float:
    with localcontext() as ctx:
        ctx.prec = 40
        return float(max(abs(Decimal(float(f)) - e) for f, e in zip(values, exact)))


# Absolute error bounds against the oracle, twice the largest error
# measured over 2000 pairs of each regime pair at seed 555.  A near-pure
# state paired with a non-pure one costs about 1e-12: 1 - |n|^2 is taken
# through the rounded norm, whose last bit is relatively large next to
# a gap of 1e-9.  Measured maxima were 1.3e-12 (closed) and 1.7e-12
# (matrix) there, and 1.5e-15 and 1.6e-15 on every other pair.  The
# hyperbolic route runs only on rows with neither norm above PURE_NORM;
# its maxima there, with sampler version 2, were 1.15e-12 and 1.04e-15.
_NEAR_PURE_BOUND = {"closed": 3e-12, "matrix": 4e-12, "hyperbolic": 2.3e-12}
_OTHER_BOUND = {"closed": 3e-15, "matrix": 4e-15, "hyperbolic": 2.1e-15}


@pytest.mark.parametrize("regime_v", bg.REGIMES)
@pytest.mark.parametrize("regime_u", bg.REGIMES)
def test_kernels_against_exact_oracle(regime_u, regime_v):
    idx = np.arange(2000)
    u = bg.random_bloch_indexed(555, regime_u, idx, stream=0)
    v = bg.random_bloch_indexed(555, regime_v, idx, stream=1)
    ux, uy, uz = _xyz(u)
    vx, vy, vz = _xyz(v)
    dot, ru, rv = _dot3(u, v), _norm3(ux, uy, uz), _norm3(vx, vy, vz)
    routes = {
        "closed": _closed_fidelity(dot, ru, rv),
        "matrix": _matrix_fidelity(_density_entries(ux, uy, uz), _density_entries(vx, vy, vz)),
    }
    exact = [exact_fidelity(a, b) for a, b in zip(u.tolist(), v.tolist())]
    near_pure = "near_pure" in (regime_u, regime_v) and "pure" not in (regime_u, regime_v)
    bounds = _NEAR_PURE_BOUND if near_pure else _OTHER_BOUND
    for route, values in routes.items():
        error = _max_error(values, exact)
        assert error <= bounds[route], f"{route} on {regime_u} x {regime_v}: {error:.3e}"
    mixed = np.flatnonzero((ru <= PURE_NORM) & (rv <= PURE_NORM))
    if len(mixed):
        hyperbolic = _hyperbolic_fidelity(dot[mixed], ru[mixed], rv[mixed])
        error = _max_error(hyperbolic, [exact[i] for i in mixed])
        assert error <= bounds["hyperbolic"], f"hyperbolic on {regime_u} x {regime_v}: {error:.3e}"


def test_oracle_worked_pair():
    assert exact_fidelity([0.5, 0.0, 0.0], [0.0, 0.5, 0.0]) == Decimal("0.875")
    assert exact_fidelity([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]) == 0


@st.composite
def bloch_vectors(draw):
    """Vectors on rays through the ball, with radii that hit every branch."""
    direction = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    length = float(np.linalg.norm(direction))
    assume(length > 1e-6)
    radius = draw(
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([0.0, 1e-12, 1e-3, PURE_NORM, 1.0 - 1e-13, 1.0]),
        )
    )
    return radius * direction / length


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(bloch_vectors(), bloch_vectors()), min_size=1, max_size=6))
def test_public_routes_equal_their_kernels(pairs):
    u = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs])
    u, ru = _checked_bloch(u)
    v, rv = _checked_bloch(v)
    dot = _dot3(u, v)
    entries_u = _density_entries(*_xyz(u))
    entries_v = _density_entries(*_xyz(v))
    rho_u = bg.density_from_bloch(u)
    rho_v = bg.density_from_bloch(v)

    np.testing.assert_array_equal(rho_u, _hermitian2(*entries_u))
    np.testing.assert_array_equal(bg.hermitian_eigenvalues(rho_u), _eig2(*entries_u))
    x, y, z = _bloch_of_entries(*entries_u)
    np.testing.assert_array_equal(
        bg.sqrt_density(rho_u), _hermitian2(*_sqrt_entries(x, y, z, _norm3(x, y, z)))
    )
    np.testing.assert_array_equal(
        bg.bures_fidelity_matrix(rho_u, rho_v), _matrix_fidelity(entries_u, entries_v)
    )
    np.testing.assert_array_equal(bg.bures_fidelity_closed(u, v), _closed_fidelity(dot, ru, rv))
    np.testing.assert_array_equal(bg.trace_distance_bloch(u, v), _trace_distance(u, v))
    if np.all(ru <= PURE_NORM) and np.all(rv <= PURE_NORM):
        np.testing.assert_array_equal(
            bg.fidelity_hyperbolic(u, v), _hyperbolic_fidelity(dot, ru, rv)
        )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**62 - 256),
    regime=st.sampled_from(bg.REGIMES),
)
def test_sampler_output_passes_validation(seed, stream, start, regime):
    # The verifier hands sampler output to the kernels unchecked; this is
    # the property that makes skipping the check safe.
    n = bg.random_bloch_indexed(seed, regime, np.arange(start, start + 256), stream=stream)
    checked, r = _checked_bloch(n)
    np.testing.assert_array_equal(checked, n)
    assert np.all(r <= 1.0 + BALL_EPS)
