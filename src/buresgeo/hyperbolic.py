"""Rapidity calculus on the Bloch ball.

A Bloch vector n factors as nhat * tanh(phi) with phi = artanh|n| the
rapidity; the Lorentz factor cosh(phi) equals 1/sqrt(1 - |n|^2).  Under
this map, qubit states compose like relativistic velocities, the
hyperbolic law of cosines gives the rapidity of the Einstein sum, and
the Bures fidelity collapses to

    F = cosh^2(phi_w / 2) / (cosh(phi_u) cosh(phi_v)),   w = u (+) v.

The module exposes that route plus the triangle with sides (phi_u,
phi_v, phi_w) embedded in the Poincare disk, so the geometry behind a
fidelity value can be inspected and plotted.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

from .measures import _clamp_unit
from .qubit import (
    BALL_EPS,
    PURE_NORM,
    _add,
    _check_int,
    _checked_bloch,
    _div,
    _dot3,
    _gamma,
    _give,
    _hermitian2,
    _law_of_cosines,
    _mul,
    _norm3,
    _numbers,
    _own,
    _pull_back,
    _quiet_norm,
    _xyz,
    np,
)

__all__ = [
    "DEGENERATE_NORM",
    "Rapidity",
    "HyperbolicTriangle",
    "rapidity_from_bloch",
    "bloch_from_rapidity",
    "lorentz_boost",
    "einstein_add",
    "gamma_composition",
    "fidelity_hyperbolic",
    "triangle",
    "geodesic_points",
    "disk_distance",
]

# Below this norm a Bloch vector has no usable direction and the
# triangle construction degenerates to a segment.
DEGENERATE_NORM = 1e-12

_Z_AXIS = (0.0, 0.0, 1.0)

# Largest phi lorentz_boost takes: its diagonal entries cosh(phi) +- sinh(phi)
# reach e^phi, which passes the largest double at phi = 709.7827.
_MAX_BOOST_PHI = 709.78

# Most points geodesic_points returns: 2**20 rows of (x, y) take 16 MiB,
# far beyond any plot, and larger counts are refused before allocating.
_MAX_POLYLINE_POINTS = 2**20


class Rapidity(NamedTuple):
    """Polar-hyperbolic form of a Bloch vector: n = direction * tanh(phi)."""

    direction: np.ndarray
    phi: np.ndarray


def rapidity_from_bloch(n) -> Rapidity:
    """Rapidity representation of n; phi is +inf exactly when |n| >= 1.

    The direction defaults to the z axis at n = 0, where phi = 0 makes
    it arbitrary.  The norm and the direction are taken from n scaled by
    the power of two that brings its largest component into [0.5, 1), as
    in _eig2_scaled, so the norm loses nothing to underflowing squares:
    down to the smallest subnormal, the direction is a unit vector and
    phi is |n| to a few ulps.  The scaling is exact, so wherever no
    square of n underflows the result is that of the unscaled n, bit for
    bit.
    """
    n, _ = _checked_bloch(n)
    exponent = np.frexp(np.abs(n).max(axis=-1, initial=0.0))[1]
    scaled = np.ldexp(n, -exponent[..., None])
    length = _norm3(*_xyz(scaled))
    r = np.ldexp(length, exponent)
    nonzero = (length > 0.0)[..., None]
    direction = np.where(nonzero, scaled / np.where(nonzero, length[..., None], 1.0), _Z_AXIS)
    phi = np.where(r < 1.0, np.arctanh(np.where(r < 1.0, r, 0.0)), np.inf)
    return Rapidity(direction[()], phi[()])


def _checked_rapidity(rep):
    """rep's direction and phi as float arrays, validated for bloch_from_rapidity and lorentz_boost.

    The direction has shape (..., 3), finite components and norm within
    BALL_EPS of 1; phi is >= 0, +inf included, and not NaN.
    """
    try:
        direction, phi = rep
    except (TypeError, ValueError):
        raise ValueError(f"expected a Rapidity (direction, phi), got {rep!r}") from None
    direction = _numbers(direction)
    phi = _numbers(phi)
    if direction.shape[-1:] != (3,):
        raise ValueError(f"rapidity direction must have 3 components, got shape {direction.shape}")
    if not (np.abs(_quiet_norm(direction) - 1.0) <= BALL_EPS).all():  # also on NaN and inf
        raise ValueError(f"rapidity direction must be a finite unit vector, to within {BALL_EPS}")
    if not (phi >= 0.0).all():  # also on NaN
        raise ValueError("rapidity phi must be a nonnegative number")
    return direction, phi


def bloch_from_rapidity(rep: Rapidity) -> np.ndarray:
    """Bloch vector direction * tanh(phi); phi = +inf maps onto the sphere.

    The direction has shape (..., 3) and unit norm within BALL_EPS; phi
    lies in [0, +inf].  Anything else, NaN included, raises ValueError.
    """
    direction, phi = _checked_rapidity(rep)
    return np.tanh(phi)[..., None] * direction


def lorentz_boost(rep: Rapidity) -> np.ndarray:
    """Boost matrix cosh(phi) + sigma.direction sinh(phi).

    Hermitian with trace 2 cosh(phi) and determinant 1; dividing by the
    trace recovers the density matrix of the underlying Bloch vector.
    The direction has shape (..., 3) and unit norm within BALL_EPS; phi
    lies in [0, 709.78], where the entries stay finite.  Anything else
    raises ValueError, phi = +inf too (pure states have no finite boost).

    The smaller diagonal entry cosh(phi) - sinh(phi) |d_z| would cancel
    for large phi; it is taken as the equal, for a unit direction,
    (1 + sinh(phi)^2 (d_x^2 + d_y^2)) / (cosh(phi) + sinh(phi) |d_z|),
    so both diagonal entries are accurate to a few ulps, relative, for
    every phi.  How close the determinant comes to 1: along +-z the
    diagonal entries multiply to 1 within a few ulps; off the axis the
    determinant is the difference of the diagonal product and |b|^2,
    both about sinh(phi)^2 (d_x^2 + d_y^2), so it is 1 only to a few
    ulps of that size.
    """
    direction, phi = _checked_rapidity(rep)
    if not (phi <= _MAX_BOOST_PHI).all():
        raise ValueError(
            f"the boost matrix overflows above phi = {_MAX_BOOST_PHI} "
            "and diverges at phi = +inf, a pure state"
        )
    ch = np.cosh(phi)
    sh = np.sinh(phi)
    dx, dy, dz = _xyz(direction)
    larger = ch + sh * np.abs(dz)
    # (1 + sh^2 q) / larger with q = dx^2 + dy^2, split as
    # 1/larger + sh q (sh/larger): sh/larger <= 1, so nothing overflows
    # up to phi = 709.78.
    smaller = 1.0 / larger + sh * (dx * dx + dy * dy) * (sh / larger)
    upper, lower = np.where(dz >= 0.0, larger, smaller), np.where(dz >= 0.0, smaller, larger)
    return _hermitian2(upper, lower, sh * dx, -sh * dy)


def einstein_add(u, v) -> np.ndarray:
    """Einstein velocity addition u (+) v (speed of light 1).

        w = [u + v/g_u + (g_u/(1+g_u)) (u.v) u] / (1 + u.v)

    Not commutative, but |u (+) v| = |v (+) u|.  Requires |u| < 1 so the
    Lorentz factor g_u is finite, and 1 + u.v > 1e-15 (the antipodal
    pure limit has no well-defined sum).  Takes Bloch vectors of shape
    (..., 3) and returns the sums as a float array of that shape, the
    components _einstein_add gives stacked on the last axis.
    """
    u, ru = _checked_bloch(u)
    v, _ = _checked_bloch(v)
    if np.any(ru >= 1.0):
        raise ValueError("left operand of einstein_add must lie strictly inside the ball")
    return np.stack(_einstein_add(u, v, _gamma(ru), _dot3(u, v))[0], axis=-1)


def _einstein_add(u, v, gu, dot):
    """Einstein-sum kernel from the operands, the Lorentz factor g_u of u and u.v; returns (w, |w|).

    Runs one component at a time, so it takes either form: u and v as
    arrays of shape (..., 3) with g_u and u.v of shape (...), and w comes
    back as a tuple of its three component arrays; or one pair on the
    float path, each vector a tuple of three Python floats with g_u and
    u.v floats, and w comes back as a tuple of three floats.  |w| is of
    the shape, or the type, of u.v.  Both forms give the same bits.
    """
    denom = 1.0 + dot
    if (denom <= 1e-15) if type(denom) is float else np.any(denom <= 1e-15):
        raise ValueError("antipodal pure limit: 1 + u.v vanishes")
    scale = gu / (1.0 + gu) * dot
    w = tuple((a + b / gu + scale * a) / denom for a, b in zip(_xyz(u), _xyz(v)))
    # Rounding may land an ulp outside the closed ball; pull back into it.
    rw = _norm3(*w)
    over = rw > 1.0
    return _pull_back(w, rw, over) if (over if type(rw) is float else over.any()) else (w, rw)


def gamma_composition(u, v):
    """Lorentz factor of u (+) v: g_w = g_u g_v (1 + u.v) = cosh(phi_w).

    This is the hyperbolic law of cosines for the triangle with sides
    phi_u, phi_v and included angle pi - arccos(uhat.vhat).
    """
    u, ru = _checked_bloch(u)
    v, rv = _checked_bloch(v)
    if np.any(ru >= 1.0) or np.any(rv >= 1.0):
        raise ValueError("pure input: the Lorentz factor diverges on the sphere")
    _, _, gw = _law_of_cosines(_dot3(u, v), ru, rv)
    return gw[()]


def _hyperbolic_fidelity(dot, ru, rv, ws=None):
    """Rapidity-route kernel from u.v and the two norms, both <= PURE_NORM."""
    gu, gv, gw = _law_of_cosines(dot, ru, rv, ws)
    out, den = _own(ws, gw), _own(ws, gu)
    fid = _div(_add(1.0, gw, out), _mul(_mul(2.0, gu, den), gv, den), out)
    _give(ws, gu, gv)
    return _clamp_unit(fid, "hyperbolic fidelity", out)


def fidelity_hyperbolic(u, v):
    """Bures fidelity via rapidities: cosh^2(phi_w/2) / (cosh phi_u cosh phi_v).

    cosh^2(phi_w/2) is evaluated by the half-angle identity
    (1 + cosh phi_w)/2 straight from the composed Lorentz factor, never
    through phi_w itself (arccosh loses precision near 1).

    Requires |u|, |v| <= PURE_NORM; route pure states through
    bures_fidelity_closed, which is exact there.
    """
    u, ru = _checked_bloch(u)
    v, rv = _checked_bloch(v)
    if np.any(ru > PURE_NORM) or np.any(rv > PURE_NORM):
        raise ValueError(
            "input too close to pure for the rapidity route (|n| > 1 - 1e-9); "
            "use bures_fidelity_closed"
        )
    return _hyperbolic_fidelity(_dot3(u, v), ru, rv)


# ---------------------------------------------------------------------------
# The triangle behind a fidelity value, embedded in the Poincare disk.
# ---------------------------------------------------------------------------


class HyperbolicTriangle(NamedTuple):
    """Triangle ABC with |AB| = phi_u, |AC| = phi_v, |BC| = phi_w.

    The embedding pose is canonical: A at the disk origin, B on the
    positive x axis, C at polar angle ``angle_a``.  ``disk_d`` is the
    geodesic midpoint of BC and ``median_ad`` the hyperbolic length of
    the median from A to it.
    """

    phi_u: float
    phi_v: float
    phi_w: float
    angle_a: float
    median_ad: float
    disk_a: tuple
    disk_b: tuple
    disk_c: tuple
    disk_d: tuple

    def sides(self) -> tuple:
        return (self.phi_u, self.phi_v, self.phi_w)


def _half_tanh(r, g):
    """tanh(phi/2) for r = tanh(phi), via r*g/(1+g); regular at r = 0."""
    return r * g / (1.0 + g)


def _mobius_to_origin(b: complex, z: complex) -> complex:
    """Disk automorphism sending b to 0, applied to z."""
    return (z - b) / (1.0 - b.conjugate() * z)


def _mobius_from_origin(b: complex, z: complex) -> complex:
    """Inverse of _mobius_to_origin(b, .)."""
    return (z + b) / (1.0 + b.conjugate() * z)


def _geodesic_midpoint(b: complex, c: complex) -> complex:
    """Midpoint of the geodesic segment from b to c in the Poincare disk.

    The arc length comes from disk_distance, not from the translated
    radius |t| = tanh(d/2): near the rim that radius saturates and would
    misplace the midpoint by ~1e-9.
    """
    t = _mobius_to_origin(b, c)
    rt = abs(t)
    if rt == 0.0:
        return b
    d = _disk_distance(b.real, b.imag, c.real, c.imag)
    return _mobius_from_origin(b, math.tanh(d / 4.0) * (t / rt))


def _disk_points(p) -> np.ndarray:
    """p, points of shape (..., 2) or a complex number, as a float array of points strictly inside the unit disk.

    The package's one check of a Poincare-disk point: points on or
    outside the rim, or not finite, raise ValueError.
    """
    xy = _numbers((p.real, p.imag) if isinstance(p, complex) else p)
    if xy.shape[-1:] != (2,):
        raise ValueError(f"a Poincare-disk point has 2 coordinates, got shape {xy.shape}")
    x, y = xy[..., 0], xy[..., 1]
    with np.errstate(over="ignore"):  # a huge coordinate's depth overflows to -inf
        if not (1.0 - (x * x + y * y) > 0.0).all():  # False on NaN
            raise ValueError("Poincare-disk points must lie strictly inside the unit disk")
    return xy


def _polyline_count(count) -> int:
    """count as an int from 2 to _MAX_POLYLINE_POINTS; anything else raises ValueError."""
    if isinstance(count, numbers.Integral) and count < 2:
        raise ValueError("a geodesic polyline needs at least 2 points")
    return _check_int(count, "count", 2, _MAX_POLYLINE_POINTS + 1)


def _polylines(ends, count: int) -> np.ndarray:
    """Polylines along the geodesics b -> c of ends, as an array of shape (len(ends), count, 2).

    Takes trusted input: (b, c) pairs of complex numbers strictly inside
    the disk, and a count checked by _polyline_count.  Each row is what
    geodesic_points returns for its pair, bit for bit; linspace, tanh
    and the Mobius map run once over all rows.
    """
    starts = np.array([b for b, _ in ends], dtype=complex)
    units = np.zeros(len(ends), dtype=complex)
    halves = np.zeros(len(ends))
    for i, (b, c) in enumerate(ends):
        t = _mobius_to_origin(b, c)
        rt = abs(t)
        if rt != 0.0:
            units[i] = t / rt
            # Arc length from the stable distance form; |t| saturates near the rim.
            halves[i] = _disk_distance(b.real, b.imag, c.real, c.imag) / 2.0
    radii = np.tanh(np.linspace(0.0, 1.0, count) * halves[:, None])
    z = _mobius_from_origin(starts[:, None], radii * units[:, None])
    for i, (b, c) in enumerate(ends):
        if units[i] == 0.0:  # b == c: the geodesic is one point
            z[i] = b
        z[i, 0] = b
        z[i, -1] = c
    return np.stack((z.real, z.imag), axis=-1)


def geodesic_points(p, q, count: int) -> np.ndarray:
    """``count`` points along the geodesic from p to q, equally spaced in arc length.

    Endpoints are returned exactly.  Points are (x, y) rows; p and q may
    be 2-vectors or complex numbers strictly inside the unit disk.
    ``count`` is an integer from 2 to _MAX_POLYLINE_POINTS; anything
    else, like a point on or outside the rim, raises ValueError.  The
    points come from _polylines, the kernel the CLI's triangle command
    calls for all three edges at once.
    """
    count = _polyline_count(count)
    p, q = _disk_points(p), _disk_points(q)
    if p.shape != (2,) or q.shape != (2,):
        raise ValueError("geodesic_points takes one point p and one point q")
    return _polylines(((complex(*p), complex(*q)),), count)[0]


def disk_distance(p, q) -> float:
    """Hyperbolic distance between two Poincare-disk points.

    Uses 2 asinh(sqrt(|p-q|^2 / ((1-|p|^2)(1-|q|^2)))), which stays
    accurate for close points, where arccosh(1 + 2|p-q|^2 / ...) loses
    the small term to 1 + x, and out to the rim, where the
    Mobius-quotient form cancels.  Against a 60-digit oracle its
    relative error stayed below 1.4 eps / min(1-|p|^2, 1-|q|^2), with
    eps = 2**-52: each 1 - |p|^2 is rounded once near the rim.
    p and q are points of shape (..., 2) or complex numbers; points on
    or outside the rim, or not finite, raise ValueError.
    """
    p, q = _disk_points(p), _disk_points(q)
    return _disk_distance(p[..., 0], p[..., 1], q[..., 0], q[..., 1])


def _disk_distance(px, py, qx, qy):
    """disk_distance from the coordinates of points known to lie strictly inside the disk.

    Takes arrays or Python floats.  Each sum of two squares is added in
    the order np.sum takes over a length-2 axis, so both give the bits of
    that form.
    """
    dx = px - qx
    dy = py - qy
    depth = (1.0 - (px * px + py * py)) * (1.0 - (qx * qx + qy * qy))
    return 2.0 * np.arcsinh(np.sqrt((dx * dx + dy * dy) / depth))[()]


def triangle(u, v) -> HyperbolicTriangle:
    """Construct the rapidity triangle of the pair (u, v).

    Sides are phi_u = artanh|u|, phi_v = artanh|v| and phi_w, the
    rapidity of u (+) v.  The vertex angle at A is pi - arccos(uhat.vhat)
    and the median length follows the identity

        cosh(median) = (cosh phi_u + cosh phi_v) / (2 cosh(phi_w / 2)),

    cross-checked in the test suite against the geodesic midpoint
    coordinates.  Norms must lie in (DEGENERATE_NORM, PURE_NORM]:
    smaller leaves the direction undefined, larger has no finite sides.
    Validates u and v, then builds the triangle with _triangle, which
    the CLI calls directly on vectors it has validated itself.
    """
    u, ru = _checked_bloch(u)
    v, rv = _checked_bloch(v)
    if u.shape != (3,) or v.shape != (3,):
        raise ValueError("triangle takes a single pair of Bloch vectors")
    return _triangle(tuple(u.tolist()), float(ru), tuple(v.tolist()), float(rv))


def _triangle(u, ru, v, rv) -> HyperbolicTriangle:
    """triangle of trusted Bloch vectors u, v, each a tuple of three Python floats, and their float norms.

    The kernels run on Python floats, as in verify._compare, and every
    field is a float or a tuple of floats.  Still raises ValueError for
    norms outside (DEGENERATE_NORM, PURE_NORM].
    """
    if ru <= DEGENERATE_NORM or rv <= DEGENERATE_NORM:
        raise ValueError(
            f"degenerate input: |u| = {ru:.3e}, |v| = {rv:.3e}; directions below "
            f"{DEGENERATE_NORM} are undefined and the triangle collapses to a segment"
        )
    if ru > PURE_NORM or rv > PURE_NORM:
        raise ValueError("pure input: triangle sides artanh|n| must be finite (|n| <= 1 - 1e-9)")

    phi_u = math.atanh(ru)
    phi_v = math.atanh(rv)
    dot = _dot3(u, v)
    gu, gv, gw = _law_of_cosines(dot, ru, rv)
    cos_hat = dot / (ru * rv)
    angle_a = math.pi - math.acos(min(1.0, max(-1.0, cos_hat)))

    rw = _einstein_add(u, v, gu, dot)[1]
    # artanh is accurate for moderate |w| but saturates near the rim,
    # where arccosh of the composed Lorentz factor takes over.
    phi_w = math.atanh(rw) if rw <= 0.9 else math.acosh(max(gw, 1.0))

    cosh_half_w = math.sqrt((1.0 + gw) / 2.0)
    median_ad = math.acosh(max((gu + gv) / (2.0 * cosh_half_w), 1.0))

    b = complex(_half_tanh(ru, gu), 0.0)
    tc = _half_tanh(rv, gv)
    c = complex(tc * math.cos(angle_a), tc * math.sin(angle_a))
    d = _geodesic_midpoint(b, c)

    return HyperbolicTriangle(
        phi_u=phi_u,
        phi_v=phi_v,
        phi_w=phi_w,
        angle_a=angle_a,
        median_ad=median_ad,
        disk_a=(0.0, 0.0),
        disk_b=(b.real, b.imag),
        disk_c=(c.real, c.imag),
        disk_d=(d.real, d.imag),
    )
