"""Tests for trace distance, the matrix fidelity route and the closed form."""

import numpy as np
import pytest
from conftest import fidelity_brute, random_rotations, regime_pairs, trace_distance_brute
from hypothesis import given, settings
from hypothesis import strategies as st

import buresgeo as bg
from buresgeo.measures import _clamp_unit, _matrix_fidelity

U_HALF_X = np.array([0.5, 0.0, 0.0])
V_HALF_Y = np.array([0.0, 0.5, 0.0])

# Quadratic satisfied by the roots of sqrt(rho1) rho2 sqrt(rho1): the
# linear coefficient is g_w / (2 g_u g_v), the constant 1 / (16 g_u^2 g_v^2).
def _root_quadratic_coeffs(u, v):
    gu = 1.0 / np.sqrt(1.0 - np.sum(u * u, axis=-1))
    gv = 1.0 / np.sqrt(1.0 - np.sum(v * v, axis=-1))
    gw = gu * gv * (1.0 + np.sum(u * v, axis=-1))
    return gw / (2.0 * gu * gv), 1.0 / (16.0 * gu**2 * gv**2)


class TestTraceDistance:
    def test_identical_states(self):
        rho = bg.density_from_bloch([0.2, 0.1, -0.4])
        assert bg.trace_distance_matrix(rho, rho) == 0.0
        assert bg.trace_distance_bloch([0.2, 0.1, -0.4], [0.2, 0.1, -0.4]) == 0.0

    def test_orthogonal_pure(self):
        up = bg.density_from_bloch([0, 0, 1])
        down = bg.density_from_bloch([0, 0, -1])
        np.testing.assert_allclose(bg.trace_distance_matrix(up, down), 1.0, atol=1e-15)
        np.testing.assert_allclose(bg.trace_distance_bloch([0, 0, 1], [0, 0, -1]), 1.0, atol=1e-15)

    def test_worked_pair(self):
        # Eigenvalues of (sigma_x - sigma_y)/4 are +-sqrt(0.5)/2.
        expected = 0.3535533905932738
        rho1 = bg.density_from_bloch(U_HALF_X)
        rho2 = bg.density_from_bloch(V_HALF_Y)
        assert abs(trace_distance_brute(rho1, rho2) - expected) < 1e-15
        np.testing.assert_allclose(bg.trace_distance_matrix(rho1, rho2), expected, atol=1e-12)
        np.testing.assert_allclose(bg.trace_distance_bloch(U_HALF_X, V_HALF_Y), expected, atol=1e-12)

    def test_tiny_difference_keeps_its_size(self):
        # The difference of two states is far below density scale; its
        # eigenvalues +-1e-170 would vanish if their squares underflowed.
        rho = np.array([[0.5, 1e-170], [1e-170, 0.5]])
        assert bg.trace_distance_matrix(rho, np.eye(2) / 2) == 1e-170

    def test_routes_agree_all_regimes(self):
        for _, _, u, v in regime_pairs(101, 100_000):
            matrix = bg.trace_distance_matrix(bg.density_from_bloch(u), bg.density_from_bloch(v))
            euclid = bg.trace_distance_bloch(u, v)
            np.testing.assert_allclose(matrix, euclid, atol=1e-12)
            assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0 + 1e-15)


class TestBuresFidelityMatrix:
    def test_self_fidelity_is_one(self):
        for regime in bg.REGIMES:
            n = bg.random_bloch_indexed(7, regime, np.arange(500))
            rho = bg.density_from_bloch(n)
            np.testing.assert_allclose(bg.bures_fidelity_matrix(rho, rho), 1.0, atol=1e-12)

    def test_orthogonal_pure_is_zero(self):
        up = bg.density_from_bloch([0, 0, 1])
        down = bg.density_from_bloch([0, 0, -1])
        np.testing.assert_allclose(bg.bures_fidelity_matrix(up, down), 0.0, atol=1e-15)

    def test_worked_pair(self):
        rho1 = bg.density_from_bloch(U_HALF_X)
        rho2 = bg.density_from_bloch(V_HALF_Y)
        assert abs(fidelity_brute(rho1, rho2) - 0.875) < 1e-9
        np.testing.assert_allclose(bg.bures_fidelity_matrix(rho1, rho2), 0.875, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        n = rng.uniform(-0.57, 0.57, size=(200, 3))
        m = rng.uniform(-0.57, 0.57, size=(200, 3))
        ours = bg.bures_fidelity_matrix(bg.density_from_bloch(n), bg.density_from_bloch(m))
        brute = [
            fidelity_brute(bg.density_from_bloch(a), bg.density_from_bloch(b))
            for a, b in zip(n, m)
        ]
        np.testing.assert_allclose(ours, brute, atol=1e-9)

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError, match="trace"):
            bg.bures_fidelity_matrix(np.eye(2), np.eye(2))

    @pytest.mark.parametrize("shape", [(), (1,), (3,)])
    def test_psd_check_has_one_message_for_one_pair_and_a_batch(self, shape):
        # The kernel trusts its entries; rho2 = diag(1.5, -0.5) against the
        # maximally mixed rho1 gives m = rho2 / 2, eigenvalue -0.25.
        rho1 = tuple(np.full(shape, x) for x in (0.5, 0.5, 0.0, 0.0))
        rho2 = tuple(np.full(shape, x)[()] for x in (1.5, -0.5, 0.0, 0.0))
        with pytest.raises(ValueError, match=r"^sqrt\(rho1\) rho2 sqrt\(rho1\) has eigenvalue -2\.500e-01 < -1e-10$"):
            _matrix_fidelity(rho1, rho2)


class TestLambdaRoots:
    def test_maximally_mixed_pair(self):
        roots = bg.lambda_roots([0, 0, 0], [0, 0, 0])
        np.testing.assert_allclose([roots.lambda_plus, roots.lambda_minus], [0.25, 0.25], atol=1e-15)

    def test_worked_pair(self):
        # Quadratic with sum 1/2 and product 9/256 has roots (4 +- sqrt(7))/16.
        roots = bg.lambda_roots(U_HALF_X, V_HALF_Y)
        np.testing.assert_allclose(roots.lambda_plus, (4 + np.sqrt(7)) / 16, atol=1e-12)
        np.testing.assert_allclose(roots.lambda_minus, (4 - np.sqrt(7)) / 16, atol=1e-12)
        np.testing.assert_allclose(roots.lambda_plus + roots.lambda_minus, 0.5, atol=1e-15)
        np.testing.assert_allclose(roots.lambda_plus * roots.lambda_minus, 9 / 256, atol=1e-15)

    def test_matches_matrix_eigenvalues(self):
        rng = np.random.default_rng(23)
        from scipy.linalg import sqrtm

        for _ in range(100):
            u = rng.uniform(-0.5, 0.5, 3)
            v = rng.uniform(-0.5, 0.5, 3)
            root1 = sqrtm(bg.density_from_bloch(u))
            eigs = np.linalg.eigvalsh(root1 @ bg.density_from_bloch(v) @ root1)
            roots = bg.lambda_roots(u, v)
            np.testing.assert_allclose(roots.lambda_minus, eigs[0], atol=1e-9)
            np.testing.assert_allclose(roots.lambda_plus, eigs[1], atol=1e-9)

    def test_vieta_and_residual(self):
        nonpure = ("uniform_ball", "near_pure", "near_mixed")
        for _, _, u, v in regime_pairs(29, 3000, nonpure):
            roots = bg.lambda_roots(u, v)
            lin, const = _root_quadratic_coeffs(u, v)
            np.testing.assert_allclose(roots.lambda_plus + roots.lambda_minus, lin, atol=1e-12)
            np.testing.assert_allclose(roots.lambda_plus * roots.lambda_minus, const, atol=1e-12)
            for lam in roots:
                residual = np.abs(lam * lam - lin * lam + const)
                assert np.max(residual) <= 1e-12
            assert np.all(roots.lambda_minus >= 0.0)
            assert np.all(roots.lambda_minus <= roots.lambda_plus + 1e-15)
            assert np.all(roots.lambda_plus <= 1.0 + 1e-15)

    def test_rejects_pure(self):
        with pytest.raises(ValueError, match="pure"):
            bg.lambda_roots([0, 0, 1], [0, 0, 0])

    def test_root_sum_squared_is_closed_fidelity(self):
        nonpure = ("uniform_ball", "near_pure", "near_mixed")
        for _, _, u, v in regime_pairs(31, 2000, nonpure):
            roots = bg.lambda_roots(u, v)
            fid = (np.sqrt(roots.lambda_plus) + np.sqrt(roots.lambda_minus)) ** 2
            np.testing.assert_allclose(fid, bg.bures_fidelity_closed(u, v), atol=1e-12)


class TestBuresFidelityClosed:
    def test_pure_pair_is_half_one_plus_cos(self):
        u = np.array([0.0, 0.0, 1.0])
        v = np.array([1.0, 0.0, 0.0])
        assert bg.bures_fidelity_closed(u, v) == 0.5

    def test_mixed_against_maximally_mixed(self):
        np.testing.assert_allclose(
            bg.bures_fidelity_closed([0, 0, 0], [0, 0, 0.8]), 0.8, atol=1e-15
        )

    def test_worked_pair(self):
        rho1 = bg.density_from_bloch(U_HALF_X)
        rho2 = bg.density_from_bloch(V_HALF_Y)
        assert abs(fidelity_brute(rho1, rho2) - 0.875) < 1e-9
        assert bg.bures_fidelity_closed(U_HALF_X, V_HALF_Y) == 0.875

    def test_bit_exact_symmetry(self):
        for _, _, u, v in regime_pairs(37, 2000):
            forward = bg.bures_fidelity_closed(u, v)
            backward = bg.bures_fidelity_closed(v, u)
            np.testing.assert_array_equal(forward, backward)


class TestRouteAgreement:
    def test_matrix_vs_closed_all_regimes(self):
        for regime_u, regime_v, u, v in regime_pairs(41, 100_000):
            closed = bg.bures_fidelity_closed(u, v)
            matrix = bg.bures_fidelity_matrix(bg.density_from_bloch(u), bg.density_from_bloch(v))
            worst = float(np.max(np.abs(closed - matrix)))
            assert worst <= 1e-11, f"{regime_u} x {regime_v}: {worst:.3e}"

    def test_matrix_route_symmetry(self):
        for _, _, u, v in regime_pairs(43, 2000):
            rho_u = bg.density_from_bloch(u)
            rho_v = bg.density_from_bloch(v)
            forward = bg.bures_fidelity_matrix(rho_u, rho_v)
            backward = bg.bures_fidelity_matrix(rho_v, rho_u)
            assert np.max(np.abs(forward - backward)) <= 1e-11

    def test_rotation_invariance(self):
        rng = np.random.default_rng(47)
        rots = random_rotations(rng, 200)
        u = bg.random_bloch_indexed(53, "uniform_ball", np.arange(200))
        v = bg.random_bloch_indexed(53, "near_pure", np.arange(200), stream=1)
        ru = np.einsum("kij,kj->ki", rots, u)
        rv = np.einsum("kij,kj->ki", rots, v)
        for fid in (
            bg.bures_fidelity_closed,
            lambda a, b: bg.bures_fidelity_matrix(bg.density_from_bloch(a), bg.density_from_bloch(b)),
        ):
            assert np.max(np.abs(fid(u, v) - fid(ru, rv))) <= 1e-11


class TestFidelityProperties:
    def test_range(self):
        for _, _, u, v in regime_pairs(59, 3000):
            fid = bg.bures_fidelity_closed(u, v)
            assert np.all(fid >= 0.0) and np.all(fid <= 1.0)
            fid = bg.bures_fidelity_matrix(bg.density_from_bloch(u), bg.density_from_bloch(v))
            assert np.all(fid >= 0.0) and np.all(fid <= 1.0)

    def test_identity_of_indiscernibles(self):
        # Nearby states are indistinguishable from F...
        u = bg.random_bloch_indexed(61, "uniform_ball", np.arange(500))
        v = u * (1.0 - 1e-10)
        assert np.all(np.abs(bg.trace_distance_bloch(u, v)) <= 1e-9 / 2)
        assert np.all(bg.bures_fidelity_closed(u, v) >= 1.0 - 1e-12)
        # ... and F within 1e-12 of 1 pins the states together: by the
        # distance bound D <= sqrt(1 - F), no farther apart than 2e-6.
        w = bg.random_bloch_indexed(61, "uniform_ball", np.arange(500), stream=1)
        fid = bg.bures_fidelity_closed(u, w)
        near_one = fid >= 1.0 - 1e-12
        assert np.all(np.linalg.norm((u - w)[near_one], axis=-1) <= 2e-6)

    def test_fuchs_van_de_graaf(self):
        for _, _, u, v in regime_pairs(67, 3000):
            fid = bg.bures_fidelity_closed(u, v)
            dist = bg.trace_distance_bloch(u, v)
            assert np.all(1.0 - np.sqrt(fid) <= dist + 1e-12)
            assert np.all(dist <= np.sqrt(1.0 - fid * (1.0 - 1e-12)) + 1e-12)


class TestClampPolicy:
    def test_within_slack_snaps(self):
        assert _clamp_unit(np.array(1.0 + 0.5e-12), "fidelity") == 1.0
        assert _clamp_unit(np.array(-0.5e-12), "fidelity") == 0.0

    def test_beyond_slack_raises(self):
        with pytest.raises(ValueError, match="outside"):
            _clamp_unit(np.array(1.0 + 1e-11), "fidelity")
        with pytest.raises(ValueError, match="outside"):
            _clamp_unit(np.array(-1e-11), "fidelity")


@settings(max_examples=100, deadline=None)
@given(
    ux=st.floats(-0.57, 0.57), uy=st.floats(-0.57, 0.57), uz=st.floats(-0.57, 0.57),
    vx=st.floats(-0.57, 0.57), vy=st.floats(-0.57, 0.57), vz=st.floats(-0.57, 0.57),
)
def test_closed_form_symmetry_property(ux, uy, uz, vx, vy, vz):
    u = np.array([ux, uy, uz])
    v = np.array([vx, vy, vz])
    assert bg.bures_fidelity_closed(u, v) == bg.bures_fidelity_closed(v, u)


_N0 = np.empty((0, 3))
_RHO0 = np.empty((0, 2, 2))
_RAP0 = bg.Rapidity(_N0, np.empty(0))

EMPTY_BATCH_CALLS = {
    "as_bloch_vector": lambda: bg.as_bloch_vector(_N0),
    "bloch_norm": lambda: bg.bloch_norm(_N0),
    "density_from_bloch": lambda: bg.density_from_bloch(_N0),
    "bloch_from_density": lambda: bg.bloch_from_density(_RHO0),
    "validate_density_matrix": lambda: bg.validate_density_matrix(_RHO0),
    "hermitian_eigenvalues": lambda: bg.hermitian_eigenvalues(_RHO0),
    "sqrt_density": lambda: bg.sqrt_density(_RHO0),
    "random_bloch_indexed": lambda: bg.random_bloch_indexed(1, "uniform_ball", np.arange(0)),
    "trace_distance_matrix": lambda: bg.trace_distance_matrix(_RHO0, _RHO0),
    "trace_distance_bloch": lambda: bg.trace_distance_bloch(_N0, _N0),
    "bures_fidelity_matrix": lambda: bg.bures_fidelity_matrix(_RHO0, _RHO0),
    "bures_fidelity_closed": lambda: bg.bures_fidelity_closed(_N0, _N0),
    "lambda_roots": lambda: bg.lambda_roots(_N0, _N0),
    "rapidity_from_bloch": lambda: bg.rapidity_from_bloch(_N0),
    "bloch_from_rapidity": lambda: bg.bloch_from_rapidity(_RAP0),
    "lorentz_boost": lambda: bg.lorentz_boost(_RAP0),
    "einstein_add": lambda: bg.einstein_add(_N0, _N0),
    "gamma_composition": lambda: bg.gamma_composition(_N0, _N0),
    "fidelity_hyperbolic": lambda: bg.fidelity_hyperbolic(_N0, _N0),
    "disk_distance": lambda: bg.disk_distance(np.empty((0, 2)), np.empty((0, 2))),
}


@pytest.mark.parametrize("name", sorted(EMPTY_BATCH_CALLS))
def test_empty_batch_gives_empty_result(name):
    result = EMPTY_BATCH_CALLS[name]()
    for part in result if isinstance(result, tuple) else (result,):
        assert np.shape(part)[0] == 0, name
