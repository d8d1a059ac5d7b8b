"""Bloch-vector and density-matrix representations of a single qubit.

A qubit state is either a real 3-vector n with |n| <= 1 (a Bloch vector)
or the corresponding 2x2 density matrix (1 + sigma.n)/2.  This module
provides the conversion both ways, closed-form eigenvalues for 2x2
Hermitian matrices, the positive-semidefinite matrix square root, and a
deterministic counter-based sampler for test points in four regimes.

All functions broadcast over leading axes: Bloch vectors have shape
(..., 3) and matrices shape (..., 2, 2).

Validation happens once, at the public boundary.  Each public function
checks its inputs and then calls a private kernel that trusts its
arrays; callers that already hold valid data, such as the verifier
with the sampler's output, call the kernels directly.  Kernels work on
2x2 matrices as explicit entries, without einsum or matmul.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys

__all__ = [
    "BALL_EPS",
    "PURE_NORM",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "REGIMES",
    "as_bloch_vector",
    "bloch_norm",
    "density_from_bloch",
    "bloch_from_density",
    "validate_density_matrix",
    "hermitian_eigenvalues",
    "sqrt_density",
    "random_bloch",
    "random_bloch_indexed",
]

# Largest amount by which |n| may exceed 1 before a vector is rejected.
BALL_EPS = 1e-12

# Norms within this of 1 count as on the sphere.  Inside it, both
# fidelity routes treat 1 - |n|^2 as exactly 0 (measures._EXACT_PURE_NORM).
# Outside it, up to 1 + BALL_EPS, _checked_bloch pulls the vector back
# into the ball, where the matrix route would otherwise leave [0, 1] by
# more than its slack; the sampler's pure states, 1 or 2 ulps above 1,
# keep their bits.
_SPHERE_BAND = 1e-13

# Norms above this are routed as pure: the rapidity artanh|n| is treated
# as too large for the hyperbolic fidelity route and the triangle, and
# verify._routes masks the hyperbolic route out, so compare and sweep
# compare only the matrix and closed routes there.
PURE_NORM = 1.0 - 1e-9

# Largest entry of |m - m^dag| that _checked_matrix accepts.
# _HERMITIAN_TOL: density matrices, whose kernels drop the anti-Hermitian
# part; 1e-12 like the trace and positivity checks.
# _EIG_HERMITIAN_TOL: the input of hermitian_eigenvalues, which need not
# be a density matrix and is read from its upper triangle only.  Merging
# the two would change which inputs each function accepts.
_HERMITIAN_TOL = 1e-12
_EIG_HERMITIAN_TOL = 1e-10
_PSD_TOL = 1e-12
_TRACE_TOL = 1e-12


# ---------------------------------------------------------------------------
# numpy, imported on first use.
#
# A one-pair request runs on Python floats, and numpy's import is about
# half of a fresh ``buresgeo fidelity`` process.  So every module of the
# package binds ``np`` to numpy itself where it is imported already, as it
# is for every caller that holds an array, or else to a _Numpy, which
# imports numpy on the first access to any of its attributes.  That is a
# plain import: a second thread that imports numpy while the first runs
# numpy's code waits on the import system's lock for the module until the
# code is done, so no thread sees numpy half executed.
# ---------------------------------------------------------------------------


class _Numpy:
    """numpy's attributes, each fetched by a plain ``import numpy`` on first access and kept."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = sys.modules.get("numpy") or _Numpy()

_PAULI_NAMES = ("SIGMA_X", "SIGMA_Y", "SIGMA_Z", "PAULI")


def __getattr__(name: str):
    """SIGMA_X, SIGMA_Y, SIGMA_Z and PAULI, built once, on first access (PEP 562)."""
    if name not in _PAULI_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Threads that race here build a set each; the first to store a name wins it.
    sigmas = [np.array(m, dtype=complex) for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
    for key, value in zip(_PAULI_NAMES, [*sigmas, np.stack(sigmas)]):
        globals().setdefault(key, value)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_PAULI_NAMES})


# ---------------------------------------------------------------------------
# Workspace rows.
#
# A sweep block runs the kernels on 16384-row arrays, and the allocator
# maps and unmaps a fresh temporary of that size on every numpy call.  So
# each kernel takes ``ws``: None, or a list of free rows of one workspace
# allocated per sweep, each shaped like the kernel's operands.  A kernel
# pops the rows it writes, puts its scratch rows back before it returns,
# and leaves the rows that hold its results to its caller, who puts them
# back when done with them.  Every numpy call gets its destination row as
# ``out``; without a workspace that row is None, numpy allocates, and the
# helpers below apply Python's operators.  One pair runs on Python
# floats: the CLI parses each vector into a tuple of its three
# components, _in_ball validates that tuple and returns it with its norm
# as a float, and verify._compare hands both to the kernels as they are;
# _xyz returns such a tuple as it is.  Where an operand is exactly a
# float, the helpers take math.sqrt and comparisons in place of 0-d
# ufunc calls, so that path loads no numpy; numpy scalars and arrays
# never are, so the public functions keep their numpy calls, values and
# types.  + - * / and sqrt round correctly either way, and a ufunc
# writing into a row rounds as one allocating its result, so the bits
# depend neither on ws nor on the float path.
# ---------------------------------------------------------------------------


def _take(ws, count: int):
    """count rows popped from the free rows ws, or count Nones without a workspace."""
    if ws is None:
        return (None,) * count
    return [ws.pop() for _ in range(count)]


def _give(ws, *rows) -> None:
    """Put rows back on the free rows ws; nothing without a workspace."""
    if ws is not None:
        ws.extend(rows)


def _own(ws, x):
    """x's own row, to be written over, or None without a workspace."""
    return None if ws is None else x


def _bools(row):
    """A boolean mask in the first bytes of the float row, or None."""
    return None if row is None else row.view(np.bool_)[..., : row.shape[-1]]


def _add(a, b, out):
    return a + b if out is None else np.add(a, b, out=out)


def _sub(a, b, out):
    return a - b if out is None else np.subtract(a, b, out=out)


def _mul(a, b, out):
    return a * b if out is None else np.multiply(a, b, out=out)


def _div(a, b, out):
    return a / b if out is None else np.divide(a, b, out=out)


def _greater(a, b, out):
    """a > b, as a boolean mask in the first bytes of the float row out when there is one."""
    return a > b if out is None else np.greater(a, b, out=_bools(out))


# Unary ufuncs take a numpy scalar's fast path only when called without out=.
def _sqrt(x, out):
    if out is not None:
        return np.sqrt(x, out=out)
    # A negative float goes to numpy, which returns NaN where math.sqrt raises.
    return math.sqrt(x) if type(x) is float and not x < 0.0 else np.sqrt(x)


def _neg(x, out):
    return -x if out is None else np.negative(x, out=out)


# The binary ones below take floats the way numpy's array loops take each
# element: NaN wins in maximum and minimum, and a tie, such as -0.0
# against 0.0, gives the second operand.  There is no NaN-skipping fmax:
# the kernels' operands are finite wherever their inputs are, and a NaN
# that a fault makes must show in the result.
def _maximum(a, b, out):
    if out is None and type(a) is float:
        return a if a > b or a != a else b
    return np.maximum(a, b, out=out)


def _minimum(a, b, out):
    if out is None and type(a) is float:
        return a if a < b or a != a else b
    return np.minimum(a, b, out=out)


def _where(cond, x, y, out):
    """np.where(cond, x, y), written over y's own row out when there is one."""
    if out is None:
        return (x if cond else y) if type(cond) is bool else np.where(cond, x, y)
    np.copyto(out, x, where=cond)
    return out


def _one_minus_square(r, ws=None):
    """1 - r^2 = 1/cosh^2(artanh r), as (1-r)(1+r), which keeps its accuracy near r = 1.

    The package's one home for this quantity; positive for 0 <= r < 1.
    """
    gap, tmp = _take(ws, 2)
    value = _mul(_sub(1.0, r, gap), _add(1.0, r, tmp), gap)
    _give(ws, tmp)
    return value


def _gamma(r, ws=None):
    """Lorentz factor 1/sqrt(1 - r^2)."""
    gap = _one_minus_square(r, ws)
    row = _own(ws, gap)
    return _div(1.0, _sqrt(gap, row), row)


def _law_of_cosines(dot, ru, rv, ws=None):
    """Lorentz factors (g_u, g_v, g_w) of u, v and u (+) v, from u.v and norms below 1.

    g_w = g_u g_v (1 + u.v) = cosh(phi_w) is the hyperbolic law of
    cosines; every route and function that needs g_w takes it from here.
    """
    gu = _gamma(ru, ws)
    gv = _gamma(rv, ws)
    gw, tmp = _take(ws, 2)
    value = _mul(_mul(gu, gv, gw), _add(1.0, dot, tmp), gw)
    _give(ws, tmp)
    return gu, gv, value


def _xyz(n):
    """Components of Bloch vectors of shape (..., 3), each of shape (...).

    One vector given as a tuple of its three Python floats is its own
    components, and is returned as it is.
    """
    return n if type(n) is tuple else (n[..., 0], n[..., 1], n[..., 2])


def _norm3(x, y, z, ws=None):
    # The package's one Bloch norm.  Its summation order matches
    # numpy.linalg.norm over a length-3 last axis, bit for bit.
    out, tmp = _take(ws, 2)
    total = _add(_mul(x, x, out), _mul(y, y, tmp), out)
    total = _add(total, _mul(z, z, tmp), out)
    _give(ws, tmp)
    return _sqrt(total, out)


def _dot3(u, v, ws=None):
    (ux, uy, uz), (vx, vy, vz) = _xyz(u), _xyz(v)
    # Fixed accumulation order, so the result is bit-identical under swap.
    out, tmp = _take(ws, 2)
    dot = _add(_mul(ux, vx, out), _mul(uy, vy, tmp), out)
    dot = _add(dot, _mul(uz, vz, tmp), out)
    _give(ws, tmp)
    return dot


def _numbers(x, dtype=float) -> np.ndarray:
    """x as an array of dtype, float or complex; the public boundary's one conversion.

    Raises ValueError for input of any other dtype kind: complex input
    where reals are due, which would otherwise be cut to its real part,
    and None, strings and integers beyond 64 bits, which numpy holds as
    objects.
    """
    x = np.asarray(x)
    # Kinds: bool, signed and unsigned integer, floating point, complex.
    if x.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise ValueError(f"expected {dtype.__name__} input, got an array of dtype {x.dtype}")
    return np.asarray(x, dtype=dtype)


def _float3(n) -> np.ndarray:
    """n as a float array whose last axis has the 3 Bloch components."""
    n = _numbers(n)
    if n.shape[-1:] != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {n.shape}")
    return n


def _quiet_norm(n):
    """_norm3 of the float vectors n; inf, without numpy's warning, where the squares overflow."""
    with np.errstate(over="ignore"):  # components past about 1e154
        return _norm3(*_xyz(n))


def _pull_back(n, r, over):
    """(n, |n|) with the vectors n of norms r pulled back into the closed unit ball where over.

    The package's one pull-back.  Each such vector is divided by its
    norm; division can itself round back above 1, so the stragglers are
    shaved by 1, 2, 4 and 8 ulps in turn: 15 ulps exceed any rounding in
    the norm.  The other vectors, all finite, are divided and multiplied
    by 1 only, which keeps their bits.  Takes one vector as a tuple of
    three floats too, with its norm a float and over a bool, and returns
    a tuple and a float.
    """
    xyz = [_div(c, _where(over, r, 1.0, None), None) for c in _xyz(n)]
    for ulps in (1.0, 2.0, 4.0, 8.0):
        shave = _where(over & (_norm3(*xyz) > 1.0), 1.0 - ulps * 2.0**-52, 1.0, None)
        xyz = [_mul(c, shave, None) for c in xyz]
    return (tuple(xyz) if type(n) is tuple else np.stack(xyz, axis=-1)), _norm3(*xyz)


def _in_ball(n):
    """The boundary rule of _checked_bloch on the float vectors n: (n, |n|), or ValueError.

    n is a float array of shape (..., 3), or one vector as a tuple of
    three Python floats, as the CLI parses it; a tuple is checked on
    floats, with the array's bits and messages, and comes back as a tuple
    with its norm as a float.
    """
    one = type(n) is tuple
    r = _norm3(*n) if one else _quiet_norm(n)  # float squares overflow to inf without a warning
    if not (r <= 1.0 + _SPHERE_BAND if one else (r <= 1.0 + _SPHERE_BAND).all()):  # also on NaN
        if not (r <= 1.0 + BALL_EPS if one else (r <= 1.0 + BALL_EPS).all()):
            if not (all(map(math.isfinite, n)) if one else np.isfinite(n).all()):
                raise ValueError("Bloch vector has non-finite components")
            raise ValueError(f"Bloch vector norm {r if one else float(np.max(r))!r} lies outside the unit ball")
        n, r = _pull_back(n, r, r > 1.0 + _SPHERE_BAND)
    return n, r


def _checked_bloch(n):
    """Validate n as in as_bloch_vector; return (n, |n|), the norm computed once."""
    return _in_ball(_float3(n))


def as_bloch_vector(n) -> np.ndarray:
    """Validate and return n as a float array of shape (..., 3).

    Rejects non-finite components and norms larger than 1 + BALL_EPS.
    A vector whose norm exceeds 1 by more than 1e-13 is pulled back into
    the closed ball: divided by its norm, then shaved by a few ulps if
    that rounds above 1.
    """
    return _checked_bloch(n)[0]


def _pow2_scaled(n):
    """(n * 2**-e, its _norm3, e) for the float vectors n, with e from each vector's largest component.

    The package's one power-of-two scaling of Bloch vectors (Blue, ACM
    TOMS 1978), by _eig2_scaled's rule: 2**-e brings the largest
    |component| into [0.5, 1), so no square of the scaled vector can
    overflow or lose the norm to underflow.  The scaling is exact:
    wherever no square of n, nor their sum, underflows or overflows,
    the norm times 2**e is _norm3(n), bit for bit.  An inf or NaN
    component stays one under any scaling.
    """
    exponent = np.frexp(np.abs(n).max(axis=-1, initial=0.0))[1]
    scaled = np.ldexp(n, -exponent[..., None])
    return scaled, _norm3(*_xyz(scaled)), exponent


def bloch_norm(n) -> np.ndarray:
    """Euclidean norm of Bloch vectors of shape (..., 3), over the last axis.

    The vectors are not validated, so any real 3-vector has a norm.  It
    is exact at every scale, subnormal components included: within 1.5
    eps, relative, of the true norm, and within half the smallest
    subnormal more where the norm is itself subnormal.  It is inf only
    where a component is inf or the norm lies past the largest double,
    and NaN where a component is NaN.
    """
    _, length, exponent = _pow2_scaled(_float3(n))
    with np.errstate(over="ignore"):  # a norm past the largest double
        return np.ldexp(length, exponent)


# ---------------------------------------------------------------------------
# 2x2 Hermitian matrices as entries.
#
# Kernels below pass a Hermitian matrix [[a, b], [conj(b), d]] as the
# four real arrays (a, d, Re b, Im b) and trust them: the public
# functions validate once and then call the kernels.
# ---------------------------------------------------------------------------


def _hermitian2(a, d, b_re, b_im) -> np.ndarray:
    """Complex matrices [[a, b], [conj(b), d]] of shape (..., 2, 2)."""
    out = np.empty(np.broadcast(a, d, b_re, b_im).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 1, 1] = d
    out[..., 0, 1].real = b_re
    out[..., 0, 1].imag = b_im
    out[..., 1, 0].real = b_re
    out[..., 1, 0].imag = -b_im
    return out


def _entries(m):
    """Entries (a, d, Re b, Im b) of the Hermitian part of 2x2 matrices m."""
    upper = m[..., 0, 1]
    lower = m[..., 1, 0]
    return (
        m[..., 0, 0].real,
        m[..., 1, 1].real,
        0.5 * (upper.real + lower.real),
        0.5 * (upper.imag - lower.imag),
    )


def _density_entries(x, y, z, ws=None):
    """Entries of (1 + sigma.n)/2 for n = (x, y, z)."""
    a, d, b_re, b_im = _take(ws, 4)
    return (
        _mul(0.5, _add(1.0, z, a), a),
        _mul(0.5, _sub(1.0, z, d), d),
        _mul(0.5, x, b_re),
        _mul(-0.5, y, b_im),
    )


def _bloch_of_entries(a, d, b_re, b_im, ws=None):
    """Components k of Re trace(rho sigma_k) for rho given by its entries."""
    x, y, z = _take(ws, 3)
    return _mul(2.0, b_re, x), _mul(-2.0, b_im, y), _sub(a, d, z)


def _eig2(a, d, b_re, b_im, ws=None):
    """Eigenvalues (low, high) of [[a, b], [conj(b), d]]: mean -+ sqrt(((a-d)/2)^2 + |b|^2).

    The squares are summed as they are, without hypot, which numpy runs
    as a scalar loop: entries above about 1e153 in magnitude would
    overflow them, and a matrix whose entries all lie below about 1e-154
    would lose its gap to underflow.  The route kernels pass
    density-scale entries, at most 1 in magnitude; _eig2_scaled takes
    any other matrix.
    """
    lo, hi, gap, tmp = _take(ws, 4)
    mean = _mul(0.5, _add(a, d, hi), hi)
    h = _mul(0.5, _sub(a, d, gap), gap)
    square = _add(_mul(h, h, gap), _mul(b_re, b_re, tmp), gap)
    half_gap = _sqrt(_add(square, _mul(b_im, b_im, tmp), gap), gap)
    low = _sub(mean, half_gap, lo)
    high = _add(mean, half_gap, hi)
    _give(ws, gap, tmp)
    return low, high


def _eig2_scaled(a, d, b_re, b_im):
    """_eig2 for entries of any magnitude, subnormal up to the largest double.

    Each matrix is scaled by the power of two that brings its largest
    entry into [0.5, 1), so no square can overflow or lose precision to
    underflow, and its eigenvalues are scaled back.  Scaling by a power
    of two is exact, so on a density matrix the result equals _eig2's bit
    for bit.
    """
    largest = np.maximum(np.maximum(np.abs(a), np.abs(d)), np.maximum(np.abs(b_re), np.abs(b_im)))
    exponent = np.frexp(largest)[1]
    lo, hi = _eig2(*(np.ldexp(x, -exponent) for x in (a, d, b_re, b_im)))
    return np.ldexp(lo, exponent), np.ldexp(hi, exponent)


def density_from_bloch(n) -> np.ndarray:
    """Density matrix (1 + sigma.n)/2 of the Bloch vector n.

    The result is Hermitian with unit trace and eigenvalues (1 +- |n|)/2.
    """
    return _hermitian2(*_density_entries(*_xyz(as_bloch_vector(n))))


def bloch_from_density(rho) -> np.ndarray:
    """Recover the Bloch vector, component k = Re trace(rho sigma_k)."""
    return np.stack(_bloch_of_entries(*_checked_density(rho)[1]), axis=-1)


def _checked_matrix(m, tol: float, what: str) -> np.ndarray:
    """m as complex 2x2 matrices with finite entries and |m - m^dag| at most tol; else ValueError."""
    m = _numbers(m, complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"{what} must be 2x2, got shape {m.shape}")
    # First: a NaN or infinite entry makes the skew NaN, which no
    # tolerance comparison rejects.
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has non-finite entries")
    # Opposite entries near the largest double overflow the difference to
    # inf, which the comparison rejects; the warning would only repeat it.
    with np.errstate(over="ignore"):
        skew = np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))), initial=0.0)
    if skew > tol:
        raise ValueError(f"{what} is not Hermitian (max |m - m^dag| = {float(skew):.3e})")
    return m


def _checked_density(rho):
    """Validate rho as in validate_density_matrix; return (rho, its entries)."""
    rho = _checked_matrix(rho, _HERMITIAN_TOL, "density matrix")
    # Entries near the largest double overflow the trace, the entries or
    # the eigenvalues to inf, which the checks reject; the warning would
    # only repeat it.
    with np.errstate(over="ignore"):
        trace = np.abs(rho[..., 0, 0] + rho[..., 1, 1] - 1.0)
        if np.any(trace > _TRACE_TOL):
            raise ValueError(f"density matrix trace differs from 1 by {float(np.max(trace)):.3e}")
        entries = _entries(rho)
        # Scaled: the trace check does not bound the off-diagonal entry.
        lo, _ = _eig2_scaled(*entries)
    if np.any(lo < -_PSD_TOL):
        raise ValueError(f"density matrix has negative eigenvalue {float(np.min(lo)):.3e}")
    return rho, entries


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return as complex array.

    Raises ValueError describing the first violated property.
    """
    return _checked_density(rho)[0]


def hermitian_eigenvalues(m):
    """Eigenvalues (low, high) of 2x2 Hermitian matrices, closed form.

    Uses the symmetric form mean +- sqrt(((a11-a22)/2)^2 + |a12|^2),
    which stays accurate for nearly degenerate spectra where the
    quadratic formula would cancel.  Each matrix is first scaled by a
    power of two, exactly, so entries of any finite magnitude, subnormal
    ones included, neither overflow nor underflow the squares; an
    eigenvalue beyond the largest double raises ValueError.

    Args:
        m: array of shape (..., 2, 2) with finite entries, Hermitian to
            within 1e-10.

    Returns:
        Tuple (lambda_minus, lambda_plus) with lambda_minus <= lambda_plus.
    """
    m = _checked_matrix(m, _EIG_HERMITIAN_TOL, "matrix")
    upper = m[..., 0, 1]
    with np.errstate(over="ignore"):  # checked below
        lo, hi = _eig2_scaled(m[..., 0, 0].real, m[..., 1, 1].real, upper.real, upper.imag)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("matrix eigenvalues overflow the largest double")
    return lo, hi


def _sqrt_entries(x, y, z, r, ws=None):
    """Entries of sqrt((1 + sigma.n)/2) for n = (x, y, z) of norm r; see sqrt_density."""
    p, s, q_re, q_im, alpha_row, scale_row = _take(ws, 6)
    # alpha = (sqrt((1 + r)/2) + sqrt(max((1 - r)/2, 0))) / 2, its roots in p and s.
    plus = _sqrt(_mul(0.5, _add(1.0, r, p), p), p)
    minus = _sqrt(_maximum(_mul(0.5, _sub(1.0, r, s), s), 0.0, s), s)
    alpha = _mul(0.5, _add(plus, minus, alpha_row), alpha_row)
    four_alpha = _mul(4.0, alpha, scale_row)
    entries = (
        _add(alpha, _div(z, four_alpha, p), p),
        _sub(alpha, _div(z, four_alpha, s), s),
        _div(x, four_alpha, q_re),
        _div(_neg(y, q_im), four_alpha, q_im),
    )
    _give(ws, alpha_row, scale_row)
    return entries


def sqrt_density(rho) -> np.ndarray:
    """Hermitian PSD square root of a density matrix.

    With Bloch vector n, rho has eigenvalues (1 +- |n|)/2 and
    eigenprojectors (1 +- sigma.nhat)/2, so its root is

        sqrt(rho) = alpha + sigma.n / (4 alpha),
        alpha = (sqrt((1 + |n|)/2) + sqrt((1 - |n|)/2)) / 2.

    This is the spectral decomposition with the coefficient
    (sqrt(l+) - sqrt(l-)) / (2|n|) of sigma.n rewritten as
    1 / (2 (sqrt(l+) + sqrt(l-))) = 1 / (4 alpha), which removes the
    cancelling difference: one formula, regular at n = 0 and exact in
    the pure limit |n| = 1.
    """
    _, entries = _checked_density(rho)
    x, y, z = _bloch_of_entries(*entries)
    return _hermitian2(*_sqrt_entries(x, y, z, _norm3(x, y, z)))


# ---------------------------------------------------------------------------
# Deterministic sampling.
#
# Trials must be bit-reproducible for any execution order or block
# partitioning, so randomness is a pure function of (seed, stream, index)
# rather than sequential generator state: each needed 64-bit word is the
# splitmix64 output at an explicit counter position, under a key that
# depends on (seed, stream) alone and is derived once per caller.
# ---------------------------------------------------------------------------

REGIMES = ("uniform_ball", "near_pure", "near_mixed", "pure")

# Python ints: numpy casts each to uint64 against a uint64 array.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB

# Norm bands of the near_pure and near_mixed regimes, which the sampler
# draws from and verify.compare flags: within NEAR_PURE_BAND of the
# sphere is near pure, below NEAR_MIXED_BAND near mixed.  The sampler
# draws near-pure gaps 1 - |n| no smaller than _NEAR_PURE_GAP_LO.
NEAR_PURE_BAND = 1e-3
NEAR_MIXED_BAND = 1e-3
_NEAR_PURE_GAP_LO = 1e-9
_LOG_GAP_LO = math.log(_NEAR_PURE_GAP_LO)
_LOG_GAP_HI = math.log(NEAR_PURE_BAND)


def _mix64(x, tmp=None):
    """splitmix64's output function of the uint64 words x, in place if x is an array.

    ``tmp``, an array of x's shape and dtype, takes the shifted words, so
    a caller that holds one spares three fresh temporaries.
    """
    x ^= np.right_shift(x, np.uint64(30), out=tmp)
    x *= _SM_MUL1
    x ^= np.right_shift(x, np.uint64(27), out=tmp)
    x *= _SM_MUL2
    x ^= np.right_shift(x, np.uint64(31), out=tmp)
    return x


def _splitmix(keys, counter, out=None, tmp=None):
    """splitmix64 output under the key words keys at the uint64 array counter = position + 1.

    The package's one splitmix64: counter times the golden gamma, in
    place, plus keys, into out, then mixed in place with tmp as _mix64's
    scratch.  uint64 arrays wrap around silently, as splitmix64 wants.
    """
    counter *= _SM_GAMMA
    return _mix64(np.add(counter, keys, out=out), tmp)


# Largest index plus one: each index owns the four counter positions
# 4i .. 4i + 3, which must not wrap around 2**64.  The sampler reads the
# first three: polar, azimuth and radius.  splitmix64 mixes position + 1,
# so the words sit at 4i + 1 .. 4i + 3 of its counter.
_INDEX_LIMIT = 2**62


@functools.cache
def _word_counters():
    """The counter offsets 1, 2 and 3 of an index's words, as a (3, 1) uint64 array, built on first use.

    An array, not a list: a list of ints would promote the uint64 sum to float64.
    """
    return np.arange(1, 4, dtype=np.uint64)[:, None]


def _check_int(value, name: str, lo: int, hi: int) -> int:
    """Return value as an int in [lo, hi); bools, floats and all else raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value < hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return int(value)


def _check_regime(regime) -> str:
    """Return regime if it is one of REGIMES; anything else raises ValueError."""
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    return regime


def _direction(u_polar, u_azimuth, ws=None):
    """Unit vectors (x, y, z), uniform on the sphere, from two uniforms in [0, 1).

    z = 2 u_polar - 1 is uniform on [-1, 1), which makes the point
    uniform on the sphere (Archimedes), and the azimuth theta is uniform
    on [-pi, pi).  Its cosine and sine come from the half-angle tangent
    t = tan(pi (u_azimuth - 1/2)) = tan(theta/2) as (1 - t^2, 2t) / (1 + t^2),
    so the only transcendental call is tan, which numpy evaluates as a
    vector kernel where sin and cos take a scalar loop.  At u_azimuth = 0,
    t is about -1.6e16: still finite, and its square cannot overflow.
    The vector is normalized last, so each row has norm 1 to rounding.

    Takes arrays, and works in place on five rows of its own: from ws,
    shaped like u_polar, or fresh ones without a workspace.
    """
    z, s, t, t_sq, w = _take(ws, 5)
    z = np.multiply(2.0, u_polar, out=z)
    z -= 1.0
    s = np.subtract(1.0, np.multiply(z, z, out=s), out=s)
    np.sqrt(np.maximum(s, 0.0, out=s), out=s)
    t = np.subtract(u_azimuth, 0.5, out=t)
    t *= np.pi
    np.tan(t, out=t)  # tan(theta / 2)
    t_sq = np.multiply(t, t, out=t_sq)
    w = np.add(1.0, t_sq, out=w)
    np.divide(s, w, out=w)  # s / (1 + t^2)
    x = np.subtract(1.0, t_sq, out=t_sq)
    x *= w  # s cos(theta)
    y = np.multiply(2.0, t, out=t)
    y *= w  # s sin(theta)
    _give(ws, s, w)
    length = _norm3(x, y, z, ws)
    x /= length
    y /= length
    z /= length
    _give(ws, length)
    return x, y, z


def _radius(regime: str, u) -> None:
    """Overwrite the uniforms u in [0, 1) with the norms of regime's vectors."""
    if regime == "uniform_ball":
        # |n|^3 uniform in [0, 1) gives uniform density over the ball volume.
        np.cbrt(u, out=u)
    elif regime == "near_pure":
        # 1 - |n| log-uniform in [_NEAR_PURE_GAP_LO, NEAR_PURE_BAND).
        u *= _LOG_GAP_HI - _LOG_GAP_LO
        u += _LOG_GAP_LO
        np.exp(u, out=u)
        np.subtract(1.0, u, out=u)
    elif regime == "near_mixed":
        u *= NEAR_MIXED_BAND
    else:  # pure
        u.fill(1.0)


def _stream_keys(seed: int, streams) -> np.ndarray:
    """The key words of the given streams of seed, as a (len(streams), 1, 1) uint64 array."""
    seed_key = _splitmix(np.uint64(seed), np.ones(1, dtype=np.uint64))
    return _splitmix(seed_key, np.array(streams, dtype=np.uint64) + np.uint64(1))[:, None, None]


def _sample_streams(keys, regimes, indices, ws=None) -> np.ndarray:
    """Sampler version 2 over several streams of one seed, in one pass; trusts its inputs.

    Takes the streams' keys from _stream_keys, one regime of REGIMES per
    stream and a 1-D uint64 array of indices below 2**62, and returns the
    array of shape (len(keys), 3, len(indices)) whose row [s, k] holds
    component k of stream s's vectors: random_bloch_indexed of each
    stream, component-major.  The counter positions are formed once, and
    every numpy call after that covers all streams, so a sweep block
    draws both of its sides with one set of calls.  Word j of an index
    becomes a double in [0, 1) from its top 53 bits, in out[s, j], whose
    memory serves as the mixer's scratch until then.

    ``ws`` is None or a float64 array of 8 len(keys) rows of
    len(indices): the output takes its first 3 len(keys) rows, and the
    words and then _direction's scratch the rest, so nothing is
    allocated.  Without it, the output and every intermediate are fresh.
    """
    streams, n = len(keys), indices.size
    shape = (streams, 3, n)
    if ws is None:
        out, words, pairs = np.empty(shape), None, None
    else:
        out = ws[: 3 * streams].reshape(shape)
        words = ws[3 * streams : 6 * streams].view(np.uint64).reshape(shape)
        pairs = list(ws[3 * streams :].reshape(-1, streams, n))
    mixed = out.view(np.uint64)
    # 4 i goes through the words' first row, the counter through the output's.
    scaled = np.multiply(indices, np.uint64(4), out=None if ws is None else words[0, 0])
    counter = np.add(scaled, _word_counters(), out=None if ws is None else mixed[0])
    words = _splitmix(keys, counter, words, mixed)
    words >>= np.uint64(11)
    # Cast first, exactly (the words are below 2**53), then scale in place:
    # multiplying the uint64 words by a float would cast through buffers
    # that numpy allocates on every call.
    out[...] = words
    out *= 2.0**-53
    for s, regime in enumerate(regimes):
        _radius(regime, out[s, 2])
    for k, component in enumerate(_direction(out[:, 0], out[:, 1], pairs)):
        np.multiply(out[:, 2], component, out=out[:, k])
    return out


def random_bloch_indexed(seed, regime: str, indices, stream: int = 0) -> np.ndarray:
    """Bloch vectors determined by (seed, stream, index), vectorized.

    Each index yields the same vector no matter how calls are batched or
    ordered, which is what makes verification sweeps partitionable.

    This is sampler version 2.  Index i reads the splitmix64 words at
    counter positions 4i (polar), 4i + 1 (azimuth) and 4i + 2 (radius);
    the azimuth's cosine and sine come from its half-angle tangent (see
    _direction) instead of sin and cos, so every vector, and with it
    every ``verify`` envelope, differs from version 1's.  The bits are
    identical across runs, batches, block partitions and thread counts
    on one machine, but tan, cbrt, exp and log run as numpy vector
    kernels chosen by CPU dispatch, so they can differ in the last bits
    between CPUs with different SIMD extensions.

    Args:
        seed: unsigned 64-bit integer.
        regime: one of REGIMES.
        indices: integer or array of integers in [0, 2**62).
        stream: unsigned 64-bit integer separating independent sequences
            that share a seed (a sweep uses stream 0 for the left state,
            1 for the right).

    Returns:
        Array of shape indices.shape + (3,).
    """
    seed = _check_int(seed, "seed", 0, 2**64)
    stream = _check_int(stream, "stream", 0, 2**64)
    _check_regime(regime)
    idx = np.asarray(indices)
    if idx.size == 0:  # numpy reads [] as float64
        idx = np.empty(idx.shape, dtype=np.uint64)
    if not np.issubdtype(idx.dtype, np.integer) or np.any(idx < 0) or np.any(idx >= _INDEX_LIMIT):
        raise ValueError("indices must be integers in [0, 2**62)")
    out = _sample_streams(_stream_keys(seed, (stream,)), (regime,), idx.reshape(-1).astype(np.uint64))
    return out[0].T.reshape(idx.shape + (3,))


def random_bloch(seed, regime: str) -> np.ndarray:
    """Single deterministic Bloch vector for (seed, regime).

    Equal to ``random_bloch_indexed(seed, regime, 0)``.
    """
    return random_bloch_indexed(seed, regime, 0)
