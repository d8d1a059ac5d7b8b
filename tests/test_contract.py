"""The public contract, checked over every callable in ``buresgeo.__all__``.

Each public function is fed hostile input in each argument in turn, the
other arguments kept valid: NaN, infinities, 1e308, subnormals, a wrong
last axis, empty batches, 0-d input, bools, complex numbers, None,
strings, and integers too large for 64 bits.  Every call must either
return finite values in the function's documented range or raise
ValueError.  Warnings are errors here, so a numpy RuntimeWarning or
ComplexWarning fails the check as any other exception does.  Two
functions document a non-finite result: ``bloch_norm``, which validates
nothing, is inf for an inf component or a norm past the largest double
and NaN for a NaN component, and ``rapidity_from_bloch`` gives
``phi = +inf`` on the sphere, which a bool vector such as (True, False,
False) reaches; its phi is checked as tanh(phi), which is finite there.

The list of public names itself comes from one source, each module's
``__all__``; the package re-exports the four lists.
"""

import pickle

import numpy as np
import pytest

import buresgeo as bg
from buresgeo import hyperbolic, measures, qubit, verify

pytestmark = pytest.mark.filterwarnings("error")

MODULES = (qubit, measures, hyperbolic, verify)

# Public callables that hold values and compute nothing.
RECORDS = {"FidelityReport", "HyperbolicTriangle", "LambdaRoots", "Rapidity", "SweepSummary"}

_HUGE = 10**400

# Each hostile scalar, placed into one component of an otherwise valid input.
SCALARS = [np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324, True, 1j, None, "0.5", _HUGE, 2**64]

VECTORS = [[x, 0.0, 0.0] for x in SCALARS] + [
    np.full(3, 5e-324),
    [1e-310, -1e-310, 0.0],
    np.zeros(2),
    np.zeros(4),
    np.zeros((3, 2)),
    np.empty((0, 3)),
    np.float64(0.5),
    0.5,
    [True, False, False],
    np.array([True, False, True]),
    np.array([0.1 + 1j, 0.0, 0.0]),
    [0.1 + 1j, 0.0, 0.0],
    None,
    "0,0,0",
    ["a", "b", "c"],
    [_HUGE, 0, 0],
    [2**63, 0, 0],
]

MATRICES = (
    [[[x, 0.0], [0.0, 0.5]] for x in SCALARS]
    + [[[0.5, x], [x, 0.5]] for x in SCALARS]
    + [
        np.zeros((3, 3)),
        np.zeros(2),
        np.empty((0, 2, 2)),
        np.complex128(0.5),
        np.eye(2, dtype=bool),
        np.array([[True, False], [False, False]]),
        np.full((2, 2), 5e-324),
        np.diag([1e308, 1e308]),
        [[1.7e308, 1.7e308], [1.7e308, 1.0 - 1.7e308]],
        None,
        "1",
        [["a", "b"], ["c", "d"]],
        [[_HUGE, 0], [0, 0]],
    ]
)

INTEGERS = [np.nan, np.inf, 1e308, 5e-324, 2.0, 2.5, True, 1j, None, "1", -1, 2**64, _HUGE, np.int64(-1)]

SEEDS = INTEGERS + [np.uint64(2**63), 2**64 - 1]

INDICES = INTEGERS + [
    [np.nan],
    [-1],
    [2**62],
    2**62 - 1,
    [_HUGE],
    [True],
    np.empty(0, dtype=int),
    np.empty(0),
    np.uint64(2**63),
    np.zeros((2, 0), dtype=int),
]

COUNTS = INTEGERS + [0, 1, 2**20 + 1, np.int64(3)]

TRIALS = INTEGERS + [0, 2**32 + 1]

REGIME_NAMES = [None, "", "x", "Pure", 1, np.nan, b"pure"]

POINTS = [[x, 0.0] for x in SCALARS] + [
    np.zeros(3),
    np.zeros(1),
    np.zeros((2, 3)),
    np.empty((0, 2)),
    np.float64(0.5),
    [True, False],
    [1.0, 0.0],
    np.array([0.1 + 0.2j, 0.0]),
    0.1 + 0.2j,
    1.0 + 0j,
    complex(np.nan, 0.0),
    None,
    "0,0",
    [_HUGE, 0],
]

_UNIT_Z = np.array([0.0, 0.0, 1.0])

RAPIDITIES = (
    [bg.Rapidity(direction, 0.5) for direction in VECTORS]
    + [bg.Rapidity(_UNIT_Z, phi) for phi in SCALARS]
    + [
        bg.Rapidity(_UNIT_Z, -1.0),
        bg.Rapidity(_UNIT_Z, 709.79),
        bg.Rapidity(_UNIT_Z, 1000.0),
        bg.Rapidity(_UNIT_Z, np.array([0.5, np.nan])),
        bg.Rapidity([0.0, 0.0, 2.0], 1.0),
        bg.Rapidity([1e308, 1e308, 0.0], 1.0),
        bg.Rapidity(np.empty((0, 3)), np.empty(0)),
        None,
        (1, 2, 3),
        "ab",
        5,
    ]
)

HOSTILE = {
    "bloch": VECTORS,
    "rho": MATRICES,
    "seed": SEEDS,
    "regime": REGIME_NAMES,
    "indices": INDICES,
    "count": COUNTS,
    "trials": TRIALS,
    "point": POINTS,
    "rapidity": RAPIDITIES,
}

U = np.array([0.3, -0.2, 0.1])
V = np.array([-0.1, 0.4, 0.2])
RHO_U = bg.density_from_bloch(U)
RHO_V = bg.density_from_bloch(V)
P = np.array([0.2, -0.1])
Q = np.array([-0.3, 0.4])


def _norms(n):
    return np.sqrt(np.sum(np.square(np.asarray(n, dtype=float)), axis=-1))


def _unit(values):
    return [(values, 0.0, 1.0)]


def _ball(n):
    return [(_norms(n), 0.0, 1.0 + bg.BALL_EPS)]


def _finite(values):
    return [(values, -np.inf, np.inf)]


def _matrix_entries(m):
    return _finite(m.real) + _finite(m.imag)


def _triangle_parts(t):
    sides = np.array(t.sides() + (t.median_ad,))
    disk = np.array([t.disk_a, t.disk_b, t.disk_c, t.disk_d])
    return [(sides, 0.0, np.inf), (np.array(t.angle_a), 0.0, np.pi)] + [(_norms(disk), 0.0, 1.0)]


def _report_parts(r):
    routes = [r.f_matrix, r.f_closed] + ([] if r.f_hyperbolic is None else [r.f_hyperbolic])
    return _unit(np.array(routes)) + _unit(np.array(r.d_trace)) + _unit(np.array(r.max_pairwise_diff))


def _summary_parts(s):
    spreads = np.array([s.max_diff, s.mean_diff, s.p99_diff])
    return _unit(spreads) + _ball(np.array([s.worst_u, s.worst_v]))


# name: (valid arguments, the kind of each, (value, lo, hi) triples of the result).
CONTRACT = {
    "as_bloch_vector": ((U,), ("bloch",), _ball),
    "bloch_norm": ((U,), ("bloch",), None),
    "density_from_bloch": ((U,), ("bloch",), _matrix_entries),
    "bloch_from_density": ((RHO_U,), ("rho",), lambda n: [(_norms(n), 0.0, 1.0 + 1e-11)]),
    "validate_density_matrix": ((RHO_U,), ("rho",), _matrix_entries),
    "hermitian_eigenvalues": ((RHO_U,), ("rho",), lambda r: _finite(r[0]) + _finite(r[1])),
    "sqrt_density": ((RHO_U,), ("rho",), _matrix_entries),
    "random_bloch": ((7, "near_pure"), ("seed", "regime"), _ball),
    "random_bloch_indexed": (
        (7, "uniform_ball", [0, 5], 1),
        ("seed", "regime", "indices", "seed"),
        _ball,
    ),
    "trace_distance_matrix": ((RHO_U, RHO_V), ("rho", "rho"), _unit),
    "trace_distance_bloch": ((U, V), ("bloch", "bloch"), _unit),
    "bures_fidelity_matrix": ((RHO_U, RHO_V), ("rho", "rho"), _unit),
    "lambda_roots": (
        (U, V),
        ("bloch", "bloch"),
        lambda r: [(r.lambda_plus, 0.0, np.inf), (r.lambda_minus, 0.0, np.inf)],
    ),
    "bures_fidelity_closed": ((U, V), ("bloch", "bloch"), _unit),
    "rapidity_from_bloch": (
        (U,),
        ("bloch",),
        # phi = +inf on the sphere is documented; tanh(phi) is finite there.
        lambda r: _finite(r.direction) + [(np.tanh(r.phi), 0.0, 1.0)],
    ),
    "bloch_from_rapidity": ((bg.rapidity_from_bloch(U),), ("rapidity",), _ball),
    "lorentz_boost": ((bg.rapidity_from_bloch(U),), ("rapidity",), _matrix_entries),
    "einstein_add": ((U, V), ("bloch", "bloch"), _ball),
    "gamma_composition": ((U, V), ("bloch", "bloch"), lambda g: [(g, 1.0, np.inf)]),
    "fidelity_hyperbolic": ((U, V), ("bloch", "bloch"), _unit),
    "triangle": ((U, V), ("bloch", "bloch"), _triangle_parts),
    "geodesic_points": ((P, Q, 5), ("point", "point", "count"), lambda xy: [(_norms(xy), 0.0, 1.0)]),
    "disk_distance": ((P, Q), ("point", "point"), lambda d: [(d, 0.0, np.inf)]),
    "compare": ((U, V), ("bloch", "bloch"), _report_parts),
    "sweep": (
        (3, 5, "uniform_ball", "near_pure"),
        ("seed", "trials", "regime", "regime"),
        _summary_parts,
    ),
}

FUNCTIONS = [name for name in bg.__all__ if callable(getattr(bg, name)) and name not in RECORDS]


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _violations(name, result) -> list:
    """What in ``result`` breaks the documented range of ``name``."""
    if name == "bloch_norm":
        # Documented: inf for an inf component or a norm past the largest
        # double, NaN for a NaN component.
        values = np.asarray(result, dtype=float)
        return [] if ((values >= 0.0) | np.isnan(values)).all() else [f"norm {values!r}"]
    problems = []
    for values, lo, hi in CONTRACT[name][2](result):
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            problems.append(f"non-finite {values!r}")
        elif not ((values >= lo) & (values <= hi)).all():
            problems.append(f"{values!r} outside [{lo}, {hi}]")
    return problems


def test_public_names_come_from_the_module_lists():
    assert len(bg.__all__) == len(set(bg.__all__))
    module_names = [name for module in MODULES for name in module.__all__]
    assert len(module_names) == len(set(module_names))
    assert set(bg.__all__) == set(module_names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(bg, name) is getattr(module, name), name


def test_every_public_callable_is_under_contract():
    callables = {name for name in bg.__all__ if callable(getattr(bg, name))}
    assert callables == set(CONTRACT) | RECORDS
    for name in RECORDS:
        record = getattr(bg, name)
        assert isinstance(record, type)
        assert issubclass(record, tuple), name


def test_result_records_keep_their_repr_hash_pickling_and_immutability():
    # As the frozen dataclasses they replaced: the repr lists every field,
    # and the hash is that of the tuple of field values.
    pair = ([0.5, 0.0, 0.0], [0.0, 0.5, 0.0])
    for record in (bg.compare(*pair), bg.triangle(*pair), bg.sweep(1, 10, "pure", "near_pure")):
        fields = record._asdict()
        items = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(record) == f"{type(record).__name__}({items})"
        assert hash(record) == hash(tuple(fields.values()))
        assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(AttributeError):
            setattr(record, next(iter(fields)), None)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_hostile_input_returns_in_range_or_raises_value_error(name):
    function = getattr(bg, name)
    args, kinds, _ = CONTRACT[name]
    # The valid call must pass, so a range check that rejects every result shows up here.
    assert _violations(name, function(*args)) == []
    failures = []
    for position, kind in enumerate(kinds):
        for bad in HOSTILE[kind]:
            call = list(args)
            call[position] = bad
            try:
                result = function(*call)
            except ValueError:
                continue
            except Exception as exc:  # every other exception, warnings included, breaks the contract
                failures.append(f"arg {position} = {_short(bad)}: {type(exc).__name__}: {_short(str(exc))}")
                continue
            failures.extend(f"arg {position} = {_short(bad)}: {problem}" for problem in _violations(name, result))
    assert failures == [], "\n".join(failures)
