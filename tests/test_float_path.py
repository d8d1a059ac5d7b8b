"""The one-pair float path against the sweep's array path, bit for bit.

verify._compare runs the route kernels on Python floats: each vector as a
tuple of its components, each norm as a float.  The sweep runs the same
kernel lines on workspace rows.  + - * / and sqrt round correctly both
ways, so every report value must carry the bits of the sweep's row for
the same pair, and be exactly of type float.  The public functions keep
their numpy path: on one vector they return what they return on a batch,
as numpy types.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import buresgeo as bg
from buresgeo import cli, hyperbolic, measures, verify
from buresgeo.measures import _EXACT_PURE_NORM, _clamp_unit
from buresgeo.qubit import (
    BALL_EPS,
    PURE_NORM,
    REGIMES,
    _checked_bloch,
    _dot3,
    _gamma,
    _in_ball,
    _maximum,
    _minimum,
    _norm3,
    _sqrt,
    _where,
    _xyz,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

REPORT_FLOATS = ("f_matrix", "f_closed", "d_trace", "max_pairwise_diff")


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


def _array_path(u: np.ndarray, v: np.ndarray):
    """Routes, spreads and trace distances of the pairs (u[i], v[i]) as a sweep block runs them.

    The vectors sit in component rows of one workspace, as the sampler
    leaves them, and the kernels write into its free rows.
    """
    n = len(u)
    rows = np.empty((verify._WORKSPACE_ROWS, n))
    sides = rows[1:7].reshape(2, 3, n)
    sides[0], sides[1] = u.T, v.T
    pool = list(rows[7:])
    ru, rv = _norm3(*_xyz(sides[0].T), pool), _norm3(*_xyz(sides[1].T), pool)
    routes = [row.copy() for row in verify._routes(sides[0].T, sides[1].T, ru, rv, pool)]

    sides[0], sides[1] = u.T, v.T
    spread = verify._route_spread(sides[0].T, sides[1].T, list(rows[7:]))
    assert np.array_equal(spread.view(np.uint64), routes[3].view(np.uint64))
    return routes, measures._trace_distance(u, v)


def _one_pair(n: np.ndarray):
    """The vector n of shape (3,) and its norm as the CLI hands them to verify._compare: a tuple and a float."""
    return _in_ball(tuple(n.tolist()))


def _assert_same_bits(u: np.ndarray, v: np.ndarray) -> None:
    try:
        (f_matrix, f_closed, f_hyp, spread), d_trace = _array_path(u, v)
    except ValueError as exc:
        # A route's range check fails: the float path must fail alike, pair by pair.
        if len(u) > 1:
            for i in range(len(u)):
                _assert_same_bits(u[i : i + 1], v[i : i + 1])
            return
        with pytest.raises(ValueError) as raised:
            verify._compare(*_one_pair(u[0]), *_one_pair(v[0]))
        assert str(raised.value) == str(exc)
        return
    for i in range(len(u)):
        report = verify._compare(*_one_pair(u[i]), *_one_pair(v[i]))
        for name in REPORT_FLOATS:
            assert type(getattr(report, name)) is float, name
        assert all(type(x) is float for x in report.u + report.v)
        assert report.u == tuple(u[i].tolist()) and report.v == tuple(v[i].tolist())
        got = (report.f_matrix, report.f_closed, report.max_pairwise_diff, report.d_trace)
        expected = (f_matrix[i], f_closed[i], spread[i], d_trace[i])
        assert [_bits(x) for x in got] == [_bits(x) for x in expected], (u[i], v[i])
        if report.f_hyperbolic is None:
            assert math.isnan(f_hyp[i])
        else:
            assert type(report.f_hyperbolic) is float
            assert _bits(report.f_hyperbolic) == _bits(f_hyp[i])


@pytest.mark.parametrize("regime_v", REGIMES)
@pytest.mark.parametrize("regime_u", REGIMES)
def test_compare_equals_the_sweep_rows(regime_u, regime_v):
    indices = np.arange(200)
    u = bg.random_bloch_indexed(23, regime_u, indices, stream=0)
    v = bg.random_bloch_indexed(23, regime_v, indices, stream=1)
    _assert_same_bits(u, v)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, -0.5, 1.0, PURE_NORM, 1e300, math.inf, -math.inf, math.nan]


def _loop(ufunc, *args):
    """ufunc's array loop on one element of each operand."""
    return ufunc(*(np.full(17, x) for x in args))[0]


def test_float_forms_match_the_array_loops():
    for a in SPECIAL:
        for helper, ufunc in ((_maximum, np.maximum), (_minimum, np.minimum)):
            for b in SPECIAL:
                got = helper(a, b, None)
                assert type(got) is float and _bits(got) == _bits(_loop(ufunc, a, b)), (helper, a, b)
        for cond in (True, False):
            assert _where(cond, a, 0.25, None) is (a if cond else 0.25)
        if not a < 0.0:
            got = _sqrt(a, None)
            assert type(got) is float and _bits(got) == _bits(_loop(np.sqrt, a))
        else:
            # math.sqrt would raise; numpy's NaN comes back, as before.
            with np.errstate(invalid="ignore"):
                assert math.isnan(_sqrt(a, None))


def test_clamp_unit_keeps_the_type_it_is_given():
    for x in (-1e-12, -0.0, 0.0, 0.5, 1.0, 1.0 + 1e-12, math.nan):
        got, numpy_got = _clamp_unit(x, "f"), _clamp_unit(np.float64(x), "f")
        assert type(got) is float and type(numpy_got) is np.float64
        assert _bits(got) == _bits(numpy_got) == _bits(np.clip(x, 0.0, 1.0))
    for x in (-2e-12, 1.0 + 2e-12, math.inf, -math.inf):
        with pytest.raises(ValueError) as raised:
            _clamp_unit(x, "f")
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            _clamp_unit(np.float64(x), "f")


def _ulp_neighbours(x: float) -> list:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


EDGE_NORMS = [
    0.0,
    5e-324,
    1e-310,
    0.5,
    *_ulp_neighbours(PURE_NORM),
    *_ulp_neighbours(_EXACT_PURE_NORM),
    1.0,
    1.0 + BALL_EPS,
]


@st.composite
def _vectors(draw) -> np.ndarray:
    kind = draw(st.sampled_from(["sampled", "axis", "scaled", "subnormal"]))
    if kind == "sampled":
        regime = draw(st.sampled_from(REGIMES))
        index = draw(st.integers(0, 2**62 - 1))
        return bg.random_bloch_indexed(draw(st.integers(0, 2**64 - 1)), regime, index)
    if kind == "axis":
        # Along an axis the norm is the component itself, exactly.
        n = np.zeros(3)
        n[draw(st.integers(0, 2))] = draw(st.sampled_from([1.0, -1.0])) * draw(st.sampled_from(EDGE_NORMS))
        return n
    if kind == "scaled":
        direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        length = float(np.linalg.norm(direction))
        if length < 0.5:
            direction, length = np.array([0.0, 0.6, 0.8]), 1.0
        return direction / length * draw(st.sampled_from(EDGE_NORMS[:-1]))
    tiny = st.floats(-1e-300, 1e-300).filter(lambda x: abs(x) < 2.2250738585072014e-308)
    return np.array(draw(st.lists(tiny, min_size=3, max_size=3)))


@st.composite
def _pairs(draw):
    u = draw(_vectors())
    kind = draw(st.sampled_from(["any", "identical", "antipodal", "nearby"]))
    if kind == "nearby":
        # A difference from the smallest subnormal to 2**-400, whose squares
        # underflow; it survives the sum where u's components are as small.
        tiny = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        return u, u + tiny * 2.0 ** draw(st.integers(-1074, -400))
    v = draw(_vectors()) if kind == "any" else u.copy() if kind == "identical" else -u
    return u, v


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(_pairs(), min_size=1, max_size=6))
def test_compare_equals_the_sweep_rows_on_edges(pairs):
    # The sweep's kernels trust their vectors, so they get the validated
    # ones: past 1 + 1e-13, validation pulls a vector back into the ball.
    u = _checked_bloch(np.array([p[0] for p in pairs]))[0]
    v = _checked_bloch(np.array([p[1] for p in pairs]))[0]
    _assert_same_bits(u, v)


def test_trace_distance_keeps_tiny_differences_on_both_paths():
    # Below 2**-500 the norm of the difference is taken again on the
    # difference times 2**600; the rows above it keep the unscaled norm.
    u = np.array([[3e-170, 4e-170, 0.0], [1e-323, 0.0, 0.0], [0.0, 2.0**-500, 0.0], [0.6, 0.0, 0.0]])
    v = np.zeros_like(u)
    _assert_same_bits(u, v)
    assert measures._trace_distance(u, v).tolist() == [2.5e-170, 5e-324, 2.0**-501, 0.3]
    assert measures._trace_distance(u[3:], v[3:]).tolist() == [0.3]


def test_edge_set_is_inside_the_ball():
    # The edge norms are valid inputs: compare accepts every one of them.
    for r in EDGE_NORMS:
        assert bg.compare([r, 0.0, 0.0], [0.0, 0.0, -r]).max_pairwise_diff <= 1e-10


def test_both_paths_answer_past_the_sphere():
    # Identical vectors just past the sphere, still inside BALL_EPS: left
    # as they are, the matrix route's fidelity would leave [0, 1] by more
    # than its slack (1.0000000000015001).  Validation pulls them back
    # onto the sphere, and both paths answer 1, bit for bit.
    u, r = _checked_bloch(np.array([[1.0 + BALL_EPS, 0.0, 0.0]]))
    assert u.tolist() == [[1.0, 0.0, 0.0]] and r.tolist() == [1.0]
    (f_matrix, f_closed, _, spread), _ = _array_path(u, u)
    assert f_matrix.tolist() == f_closed.tolist() == [1.0] and spread.tolist() == [0.0]
    _assert_same_bits(u, u)


_PAST_SPHERE_RADII = st.one_of(
    st.floats(PURE_NORM, 1.0 + BALL_EPS),
    st.sampled_from([1.0, *_ulp_neighbours(1.0 + 1e-13), 1.0 + 6.7e-13, 1.0 + BALL_EPS]),
)
_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(lambda d: bg.bloch_norm(d) > 0.1)


@settings(max_examples=300, deadline=None)
@given(
    ru=_PAST_SPHERE_RADII,
    rv=_PAST_SPHERE_RADII,
    du=_DIRECTIONS,
    dv=_DIRECTIONS,
    identical=st.booleans(),
)
def test_every_route_answers_up_to_ball_eps_past_the_sphere(ru, rv, du, dv, identical):
    u = ru * du / bg.bloch_norm(du)
    v = u.copy() if identical else rv * dv / bg.bloch_norm(dv)
    # Scaling can round a norm past 1 + BALL_EPS, which validation rejects.
    assume(bg.bloch_norm(u) <= 1.0 + BALL_EPS and bg.bloch_norm(v) <= 1.0 + BALL_EPS)
    report = bg.compare(u, v)
    assert 0.0 <= report.f_matrix <= 1.0 and 0.0 <= report.f_closed <= 1.0
    assert report.max_pairwise_diff <= 1e-10
    f_matrix = bg.bures_fidelity_matrix(bg.density_from_bloch(u), bg.density_from_bloch(v))
    assert 0.0 <= f_matrix <= 1.0 and abs(f_matrix - report.f_closed) <= 1e-10
    argv = ["fidelity"] + [f"--{name}=" + ",".join(map(repr, n.tolist())) for name, n in (("u", u), ("v", v))]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    result = json.loads(out.getvalue())["result"]
    assert code == 0 and 0.0 <= result["f_matrix"] <= 1.0 and result["max_pairwise_diff"] <= 1e-10


def _public_results(u, v):
    rho_u, rho_v = bg.density_from_bloch(u), bg.density_from_bloch(v)
    results = {
        "bures_fidelity_closed": bg.bures_fidelity_closed(u, v),
        "bures_fidelity_matrix": bg.bures_fidelity_matrix(rho_u, rho_v),
        "trace_distance_bloch": bg.trace_distance_bloch(u, v),
        "trace_distance_matrix": bg.trace_distance_matrix(rho_u, rho_v),
        "bloch_norm": bg.bloch_norm(u),
        "sqrt_density": bg.sqrt_density(rho_u),
        "density_from_bloch": rho_u,
    }
    if bg.bloch_norm(u).max() <= PURE_NORM and bg.bloch_norm(v).max() <= PURE_NORM:
        roots = bg.lambda_roots(u, v)
        results.update(
            fidelity_hyperbolic=bg.fidelity_hyperbolic(u, v),
            gamma_composition=bg.gamma_composition(u, v),
            lambda_plus=roots.lambda_plus,
            lambda_minus=roots.lambda_minus,
            einstein_add=bg.einstein_add(u, v),
        )
    return results


@pytest.mark.parametrize("regime_v", REGIMES)
@pytest.mark.parametrize("regime_u", REGIMES)
def test_public_functions_keep_their_numpy_types_on_one_vector(regime_u, regime_v):
    indices = np.arange(40)
    u = bg.random_bloch_indexed(5, regime_u, indices, stream=0)
    v = bg.random_bloch_indexed(5, regime_v, indices, stream=1)
    batch = _public_results(u, v)
    for i in range(len(indices)):
        one = _public_results(u[i], v[i])
        assert one.keys() == batch.keys()
        for name, value in one.items():
            row = batch[name][i]
            if np.ndim(row) == 0:
                assert type(value) is np.float64, name
            else:
                assert type(value) is np.ndarray and value.dtype == row.dtype, name
            assert np.array_equal(np.asarray(value).view(np.uint64), np.asarray(row).view(np.uint64)), name


# ---------------------------------------------------------------------------
# The boundary rule on the CLI's tuple against the public array form.
# ---------------------------------------------------------------------------

_UNIT = st.floats(-1.0, 1.0)
_SUBNORMAL = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)


def _on_radius(radius):
    """Triples of the given radii, along random directions; rounding may move the norm by an ulp or two."""
    directions = st.tuples(_UNIT, _UNIT, _UNIT).filter(lambda d: math.hypot(*d) > 0.1)
    return st.builds(lambda d, r: tuple(c / math.hypot(*d) * r for c in d), directions, radius)


_TRIPLES = {
    "ball": _on_radius(st.floats(0.0, 1.0)),
    "past_sphere": _on_radius(
        st.one_of(
            st.floats(1.0 + 1e-13, 1.0 + BALL_EPS, exclude_min=True),
            st.sampled_from([math.nextafter(1.0 + 1e-13, 2.0), 1.0 + BALL_EPS]),
        )
    ),
    "past_ball_eps": _on_radius(st.floats(1.0 + BALL_EPS, 4.0, exclude_min=True)),
    "non_finite": st.tuples(
        st.sampled_from([math.nan, math.inf, -math.inf]), st.one_of(_UNIT, st.just(math.nan)), _UNIT
    ).flatmap(st.permutations).map(tuple),
    "huge": st.tuples(*[st.floats(1e199, 1e201).flatmap(lambda x: st.sampled_from([x, -x]))] * 3),
    "subnormal": st.tuples(_SUBNORMAL, _SUBNORMAL, _SUBNORMAL),
}


def _rule_on_both_forms(triple: tuple):
    """_in_ball on the tuple against _checked_bloch on the array: same (n, |n|) bits, or the same ValueError."""
    try:
        n, r = _checked_bloch(np.array(triple))
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _in_ball(triple)
        assert str(raised.value) == str(exc)
        return None
    got_n, got_r = _in_ball(triple)
    assert type(got_n) is tuple and all(type(c) is float for c in got_n) and type(got_r) is float
    assert [_bits(c) for c in got_n] == [_bits(c) for c in n] and _bits(got_r) == _bits(r), triple
    return got_n, got_r


@settings(max_examples=400, deadline=None)
@given(triple=st.one_of(*_TRIPLES.values()))
def test_boundary_rule_is_one_rule_on_tuples_and_arrays(triple):
    _rule_on_both_forms(triple)


@pytest.mark.parametrize("kind", sorted(_TRIPLES))
def test_each_kind_of_triple_takes_its_branch(kind):
    # The draws above cover each branch of the rule: kept, pulled back, or rejected.
    triple = {
        "ball": (0.6, 0.0, -0.8 * 0.5),
        "past_sphere": (1.0 + BALL_EPS, 0.0, 0.0),
        "past_ball_eps": (0.0, 1.0 + 2 * BALL_EPS, 0.0),
        "non_finite": (0.0, math.nan, -math.inf),
        "huge": (1e200, -1e200, 1e200),
        "subnormal": (5e-324, -1e-310, 2e-308),
    }[kind]
    result = _rule_on_both_forms(triple)
    if kind in ("ball", "subnormal"):
        assert result[0] == triple
    elif kind == "past_sphere":
        assert result == ((1.0, 0.0, 0.0), 1.0)
    else:
        assert result is None


@settings(max_examples=200, deadline=None)
@given(
    u=st.one_of(_TRIPLES["ball"], _TRIPLES["past_sphere"]),
    v=st.one_of(_TRIPLES["ball"], _TRIPLES["past_sphere"]),
    identical=st.booleans(),
)
def test_cli_pair_reports_what_compare_reports(u, v, identical):
    # The CLI validates tuples and hands them to _compare as they are;
    # the public compare validates arrays.  The reports carry the same bits.
    v = u if identical else v
    checked_u, checked_v = _rule_on_both_forms(u), _rule_on_both_forms(v)
    assume(checked_u is not None and checked_v is not None)  # scaling can round past 1 + BALL_EPS
    ours = verify._compare(*checked_u, *checked_v)
    theirs = bg.compare(np.array(u), np.array(v))
    assert ours.regime_flags == theirs.regime_flags
    for name in ("u", "v", *REPORT_FLOATS, "f_hyperbolic"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert [_bits(x) for x in np.ravel(a)] == [_bits(x) for x in np.ravel(b)], name


# ---------------------------------------------------------------------------
# The Einstein sum: one kernel, component by component, on floats and arrays.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("regime_v", REGIMES)
@pytest.mark.parametrize("regime_u", [regime for regime in REGIMES if regime != "pure"])  # g_u is finite
def test_einstein_sum_of_one_pair_is_its_row_of_the_batch(monkeypatch, regime_u, regime_v):
    real, pulled = hyperbolic._pull_back, []

    def counted(n, r, over):
        pulled.append(over)
        return real(n, r, over)

    monkeypatch.setattr(hyperbolic, "_pull_back", counted)
    indices = np.arange(300)
    u, ru = _checked_bloch(bg.random_bloch_indexed(7, regime_u, indices, stream=0))
    drawn, _ = _checked_bloch(bg.random_bloch_indexed(7, regime_v, indices, stream=1))
    for v in (drawn, -0.7 * u):
        w, rw = hyperbolic._einstein_add(u, v, _gamma(ru), _dot3(u, v))
        assert type(w) is tuple and len(w) == 3
        assert np.array_equal(bg.einstein_add(u, v).view(np.uint64), np.stack(w, axis=-1).view(np.uint64))
        del pulled[:]
        for i in range(len(indices)):
            one_u, one_v = tuple(u[i].tolist()), tuple(v[i].tolist())
            one_w, one_rw = hyperbolic._einstein_add(one_u, one_v, _gamma(float(ru[i])), _dot3(one_u, one_v))
            assert type(one_w) is tuple and all(type(c) is float for c in one_w) and type(one_rw) is float
            assert [_bits(c) for c in one_w] == [_bits(c[i]) for c in w], i
            assert _bits(one_rw) == _bits(rw[i]), i
        if v is drawn and regime_v == "pure":
            assert pulled, "no sum passed the sphere"  # rounding lands some an ulp past it


def test_einstein_sum_refuses_the_antipodal_limit_on_both_forms():
    # 1 + u.v = 2**-53 <= 1e-15: the sum has no direction.
    u, v = (1.0 - 2.0**-53, 0.0, 0.0), (-1.0, 0.0, 0.0)
    gu = _gamma(u[0])
    with pytest.raises(ValueError, match="antipodal pure limit") as one:
        hyperbolic._einstein_add(u, v, gu, _dot3(u, v))
    batch_u, batch_v = np.array([(0.5, 0.0, 0.0), u]), np.array([(0.0, 0.5, 0.0), v])
    with pytest.raises(ValueError) as batch:
        hyperbolic._einstein_add(batch_u, batch_v, _gamma(_norm3(*_xyz(batch_u))), _dot3(batch_u, batch_v))
    assert str(batch.value) == str(one.value)
    with pytest.raises(ValueError, match="antipodal pure limit"):
        bg.einstein_add(u, v)
