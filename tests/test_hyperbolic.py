"""Tests for rapidity calculus, Einstein addition and the disk triangle."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from conftest import assert_close_scaled, disk_distance_mobius, regime_pairs
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import buresgeo as bg
from buresgeo.hyperbolic import _disk_distance, _mobius_from_origin, _mobius_to_origin, _polylines

LN2 = 0.6931471805599453
NONPURE = ("uniform_ball", "near_pure", "near_mixed")


class TestRapidity:
    def test_zero_vector(self):
        rep = bg.rapidity_from_bloch([0, 0, 0])
        np.testing.assert_array_equal(rep.direction, [0, 0, 1])
        assert rep.phi == 0.0

    def test_partial_z(self):
        # artanh(0.6) = ln((1 + 0.6)/(1 - 0.6))/2 = ln 2.
        rep = bg.rapidity_from_bloch([0, 0, 0.6])
        np.testing.assert_allclose(rep.phi, LN2, atol=1e-15)
        np.testing.assert_array_equal(rep.direction, [0, 0, 1])

    def test_pure_is_infinite(self):
        assert bg.rapidity_from_bloch([1, 0, 0]).phi == np.inf

    def test_round_trip(self):
        for regime in NONPURE:
            n = bg.random_bloch_indexed(3, regime, np.arange(2000))
            rep = bg.rapidity_from_bloch(n)
            np.testing.assert_allclose(np.linalg.norm(rep.direction, axis=-1), 1.0, atol=1e-12)
            np.testing.assert_allclose(bg.bloch_from_rapidity(rep), n, atol=1e-12)
            r = bg.bloch_norm(n)
            np.testing.assert_allclose(np.tanh(rep.phi), r, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        components=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda c: max(map(abs, c)) > 0.1),
        exponent=st.integers(-1074, -498),
    )
    def test_tiny_norms(self, components, exponent):
        # |n| from about 1e-150 down to the smallest subnormal, where the
        # squares of the components underflow.
        n = np.ldexp(np.array(components), exponent)
        assume(n.any())
        norm = math.hypot(*n.tolist())
        rep = bg.rapidity_from_bloch(n)
        assert abs(np.linalg.norm(rep.direction) - 1.0) <= bg.BALL_EPS
        assert abs(rep.phi - norm) <= 4 * math.ulp(norm)
        back = bg.bloch_from_rapidity(rep)
        np.testing.assert_allclose(back, n, rtol=1e-15, atol=4 * 5e-324)

    @settings(max_examples=300, deadline=None)
    @given(
        components=st.tuples(
            *[st.one_of(st.just(0.0), st.floats(2.0**-511, 1.0), st.floats(-1.0, -(2.0**-511)))] * 3
        )
    )
    def test_unscaled_form_where_no_square_underflows(self, components):
        # Every square is normal or zero: the power-of-two scaling changes
        # no bit of n / |n| and artanh |n|.
        n = np.array(components)
        assume(np.linalg.norm(n) <= 1.0)
        rep = bg.rapidity_from_bloch(n)
        r = bg.bloch_norm(n)
        direction = n / r if r > 0.0 else np.array([0.0, 0.0, 1.0])
        phi = np.arctanh(r) if r < 1.0 else np.inf
        assert rep.direction.tobytes() == direction.tobytes()
        assert np.float64(rep.phi).tobytes() == np.float64(phi).tobytes()

    def test_inverse_examples(self):
        np.testing.assert_array_equal(
            bg.bloch_from_rapidity(bg.Rapidity(np.array([1.0, 0, 0]), 0.0)), [0, 0, 0]
        )
        np.testing.assert_allclose(
            bg.bloch_from_rapidity(bg.Rapidity(np.array([1.0, 0, 0]), LN2)),
            [0.6, 0, 0],
            atol=1e-15,
        )
        np.testing.assert_array_equal(
            bg.bloch_from_rapidity(bg.Rapidity(np.array([0.0, 1.0, 0]), np.inf)), [0, 1, 0]
        )


class TestLorentzBoost:
    def test_zero_rapidity_is_identity(self):
        rep = bg.Rapidity(np.array([0.0, 0.0, 1.0]), 0.0)
        np.testing.assert_array_equal(bg.lorentz_boost(rep), np.eye(2))

    def test_z_boost_diagonal(self):
        # exp(+-phi) on the sigma_z eigenbasis with phi = ln 2.
        rep = bg.Rapidity(np.array([0.0, 0.0, 1.0]), LN2)
        np.testing.assert_allclose(bg.lorentz_boost(rep), np.diag([2.0, 0.5]), atol=1e-15)

    def test_trace_and_det(self):
        n = bg.random_bloch_indexed(5, "uniform_ball", np.arange(500))
        rep = bg.rapidity_from_bloch(n)
        boost = bg.lorentz_boost(rep)
        trace = (boost[..., 0, 0] + boost[..., 1, 1]).real
        np.testing.assert_allclose(trace, 2.0 * np.cosh(rep.phi), atol=1e-12)
        det = (boost[..., 0, 0] * boost[..., 1, 1] - boost[..., 0, 1] * boost[..., 1, 0]).real
        np.testing.assert_allclose(det, 1.0, atol=1e-12)

    def test_density_correspondence(self):
        # rho(n) is the boost matrix normalized by its trace.
        for regime in NONPURE:
            n = bg.random_bloch_indexed(7, regime, np.arange(1000))
            rep = bg.rapidity_from_bloch(n)
            normalized = bg.lorentz_boost(rep) / (2.0 * np.cosh(rep.phi))[..., None, None]
            np.testing.assert_allclose(normalized, bg.density_from_bloch(n), atol=1e-12)

    @pytest.mark.parametrize("phi", [10.0, 18.0, 20.0, 100.0, 355.0, 700.0, 709.78])
    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_determinant_along_z(self, phi, z):
        boost = bg.lorentz_boost(bg.Rapidity(np.array([0.0, 0.0, z]), phi)).real
        assert abs(boost[0, 0] * boost[1, 1] - 1.0) <= 4 * 2.0**-52

    @settings(max_examples=200, deadline=None)
    @given(
        phi=st.one_of(st.floats(0.0, 40.0), st.floats(0.0, 709.78)),
        dz=st.floats(-0.999, 0.999),
        azimuth=st.sampled_from([(3, 4, 5), (5, -12, 13), (1, 0, 1), (0, 1, 1), (-8, 15, 17)]),
    )
    def test_smaller_diagonal_entry(self, phi, dz, azimuth):
        # Against cosh(phi) - sinh(phi) |d_z| to 50 digits, on directions
        # with d_z exact and d_x, d_y the rounded rest of a unit vector.
        # The largest error over 20000 such draws was 3.4 ulps.
        with localcontext() as ctx:
            ctx.prec = 50
            rho = (1 - Decimal(dz) ** 2).sqrt() / azimuth[2]
            direction = np.array([float(rho * azimuth[0]), float(rho * azimuth[1]), dz])
            e = Decimal(phi).exp()
            exact = (e + 1 / e) / 2 - (e - 1 / e) / 2 * abs(Decimal(dz))
            boost = bg.lorentz_boost(bg.Rapidity(direction, phi)).real
            smaller = boost[1, 1] if dz >= 0.0 else boost[0, 0]
            assert abs(Decimal(smaller) - exact) <= exact * Decimal(6 * 2.0**-52)

    def test_rejects_infinite_rapidity(self):
        with pytest.raises(ValueError, match="pure"):
            bg.lorentz_boost(bg.Rapidity(np.array([0.0, 0.0, 1.0]), np.inf))


class TestEinsteinAdd:
    def test_zero_identity(self):
        v = np.array([0.3, -0.2, 0.1])
        np.testing.assert_allclose(bg.einstein_add([0, 0, 0], v), v, atol=1e-15)

    def test_collinear_rapidity_additivity(self):
        # tanh(2 artanh 0.5) = 0.8.
        np.testing.assert_allclose(
            bg.einstein_add([0.5, 0, 0], [0.5, 0, 0]), [0.8, 0, 0], atol=1e-15
        )

    def test_worked_orthogonal_pair(self):
        # Term by term with g_u = 2/sqrt(3) and u.v = 0.
        w = bg.einstein_add([0.5, 0, 0], [0, 0.5, 0])
        np.testing.assert_allclose(w, [0.5, 0.4330127018922193, 0.0], atol=1e-15)
        np.testing.assert_allclose(1.0 / np.sqrt(1.0 - np.dot(w, w)), 4.0 / 3.0, atol=1e-12)

    def test_norm_symmetry(self):
        for _, _, u, v in regime_pairs(11, 2000, NONPURE):
            forward = bg.bloch_norm(bg.einstein_add(u, v))
            backward = bg.bloch_norm(bg.einstein_add(v, u))
            np.testing.assert_allclose(forward, backward, atol=1e-12)

    def test_not_componentwise_commutative(self):
        a = bg.einstein_add([0.5, 0, 0], [0, 0.5, 0])
        b = bg.einstein_add([0, 0.5, 0], [0.5, 0, 0])
        assert not np.allclose(a, b, atol=1e-3)

    def test_norm_stays_in_ball(self):
        for _, _, u, v in regime_pairs(13, 2000, NONPURE):
            assert np.all(bg.bloch_norm(bg.einstein_add(u, v)) <= 1.0)

    def test_gamma_law(self):
        # Lorentz factor of the sum.  Recovering gamma from |w| amplifies
        # the norm's rounding by gamma^2 and a cancelling 1 + u.v inflates
        # the noise in w itself, so the 1e-11 comparison only discriminates
        # where neither effect swamps it; the tanh-domain consistency test
        # covers the full range.
        checked = 0
        for _, _, u, v in regime_pairs(17, 2000, NONPURE):
            gw = bg.gamma_composition(u, v)
            ok = (gw < 30.0) & (1.0 + np.sum(u * v, axis=-1) > 0.5)
            if not np.any(ok):
                continue
            w = bg.einstein_add(u[ok], v[ok])
            direct = 1.0 / np.sqrt((1.0 - bg.bloch_norm(w)) * (1.0 + bg.bloch_norm(w)))
            assert_close_scaled(direct, gw[ok], 1e-11, "gamma of einstein sum")
            checked += int(np.sum(ok))
        assert checked > 5000

    def test_rejects_pure_left_operand(self):
        with pytest.raises(ValueError, match="strictly inside"):
            bg.einstein_add([1, 0, 0], [0, 0.5, 0])

    def test_accepts_pure_right_operand(self):
        w = bg.einstein_add([0.5, 0, 0], [1, 0, 0])
        np.testing.assert_allclose(w, [1, 0, 0], atol=1e-15)

    def test_rejects_antipodal_pure_limit(self):
        u = np.array([0.9999999999999999, 0.0, 0.0])
        with pytest.raises(ValueError, match="antipodal"):
            bg.einstein_add(u, [-1.0, 0.0, 0.0])


class TestGammaComposition:
    def test_both_mixed(self):
        assert bg.gamma_composition([0, 0, 0], [0, 0, 0]) == 1.0

    def test_worked_pair(self):
        np.testing.assert_allclose(
            bg.gamma_composition([0.5, 0, 0], [0, 0.5, 0]), 4.0 / 3.0, atol=1e-15
        )

    def test_opposite_vectors_compose_to_rest(self):
        for t in (0.1, 0.5, 0.9):
            u = np.array([t, 0, 0])
            np.testing.assert_allclose(bg.gamma_composition(u, -u), 1.0, atol=1e-12)
            np.testing.assert_allclose(bg.bloch_norm(bg.einstein_add(u, -u)), 0.0, atol=1e-15)

    def test_rejects_pure(self):
        with pytest.raises(ValueError, match="pure"):
            bg.gamma_composition([0, 1, 0], [0, 0, 0])

    def test_cosine_law_forms_agree(self):
        # The Bloch-side product g_u g_v (1 + u.v) against the same law
        # written in rapidity functions.
        for _, _, u, v in regime_pairs(19, 2000, NONPURE):
            gw = bg.gamma_composition(u, v)
            phi_u = np.arctanh(bg.bloch_norm(u))
            phi_v = np.arctanh(bg.bloch_norm(v))
            uhat = u / np.where(bg.bloch_norm(u) > 0, bg.bloch_norm(u), 1.0)[..., None]
            vhat = v / np.where(bg.bloch_norm(v) > 0, bg.bloch_norm(v), 1.0)[..., None]
            cos_angle = np.sum(uhat * vhat, axis=-1)
            rapidity_side = np.cosh(phi_u) * np.cosh(phi_v) * (
                1.0 + cos_angle * np.tanh(phi_u) * np.tanh(phi_v)
            )
            assert_close_scaled(gw, rapidity_side, 1e-10, "cosine law")

    def test_tanh_domain_consistency(self):
        # |u (+) v| against tanh of the composed rapidity.  Near gw = 1 the
        # reconstruction sqrt(gw^2 - 1) loses half its digits, so tiny
        # angles are compared in the gamma domain instead, where they are
        # exactly as well conditioned as the identity allows.
        for _, _, u, v in regime_pairs(23, 2000, NONPURE):
            gw = bg.gamma_composition(u, v)
            rw = bg.bloch_norm(bg.einstein_add(u, v))
            wide = gw - 1.0 >= 1e-7
            expected = np.sqrt((gw[wide] - 1.0) * (gw[wide] + 1.0)) / gw[wide]
            np.testing.assert_allclose(rw[wide], expected, atol=1e-12)
            tiny = ~wide
            gamma_back = 1.0 / np.sqrt((1.0 - rw[tiny]) * (1.0 + rw[tiny]))
            np.testing.assert_allclose(gamma_back, gw[tiny], atol=1e-12)


class TestFidelityHyperbolic:
    def test_identical_states(self):
        n = bg.random_bloch_indexed(29, "uniform_ball", np.arange(500))
        np.testing.assert_allclose(bg.fidelity_hyperbolic(n, n), 1.0, atol=1e-12)

    def test_against_maximally_mixed(self):
        # cosh(phi_v) = 5/3 gives (1 + 5/3)/2 / (5/3) = 0.8.
        np.testing.assert_allclose(
            bg.fidelity_hyperbolic([0, 0, 0], [0, 0, 0.8]), 0.8, atol=1e-15
        )

    def test_worked_pair(self):
        np.testing.assert_allclose(
            bg.fidelity_hyperbolic([0.5, 0, 0], [0, 0.5, 0]), 0.875, atol=1e-15
        )

    def test_rejects_out_of_regime(self):
        with pytest.raises(ValueError, match="pure"):
            bg.fidelity_hyperbolic([1.0 - 1e-10, 0, 0], [0, 0, 0])

    def test_kernel_rejects_inconsistent_inputs(self):
        # |u.v| <= |u||v| fails here, so the fidelity lands far above 1.
        from buresgeo.hyperbolic import _hyperbolic_fidelity

        with pytest.raises(ValueError, match=r"hyperbolic fidelity .* lies outside \[0, 1\]"):
            _hyperbolic_fidelity(5.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="outside"):
            _hyperbolic_fidelity(np.array([0.0, -5.0]), np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_pure_limit_convergence(self):
        rng = np.random.default_rng(31)
        for delta in (1e-4, 1e-6, 1e-8):
            raw = rng.normal(size=(200, 2, 3))
            hats = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
            u = (1.0 - delta) * hats[:, 0]
            v = (1.0 - delta) * hats[:, 1]
            limit = 0.5 * (1.0 + np.sum(hats[:, 0] * hats[:, 1], axis=-1))
            err = np.abs(bg.fidelity_hyperbolic(u, v) - limit)
            assert np.max(err) <= 10.0 * delta


class TestTriangle:
    def test_worked_right_angle(self):
        tri = bg.triangle([0.5, 0, 0], [0, 0.5, 0])
        np.testing.assert_allclose(tri.angle_a, np.pi / 2, atol=1e-15)
        np.testing.assert_allclose(tri.phi_u, np.arctanh(0.5), atol=1e-15)
        np.testing.assert_allclose(tri.phi_v, np.arctanh(0.5), atol=1e-15)
        # Right angle: cosh(phi_w) = cosh(phi_u) cosh(phi_v) = 4/3.
        np.testing.assert_allclose(np.cosh(tri.phi_w), 4.0 / 3.0, atol=1e-12)

    def test_collinear_same_direction(self):
        tri = bg.triangle([0.3, 0, 0], [0.3, 0, 0])
        np.testing.assert_allclose(tri.angle_a, np.pi, atol=1e-15)
        np.testing.assert_allclose(tri.phi_w, 2.0 * np.arctanh(0.3), atol=1e-12)
        # B and C sit on opposite sides of the origin; D returns to A.
        np.testing.assert_allclose(tri.disk_b, (np.tanh(np.arctanh(0.3) / 2), 0.0), atol=1e-15)
        np.testing.assert_allclose(tri.disk_c, (-np.tanh(np.arctanh(0.3) / 2), 0.0), atol=1e-12)
        np.testing.assert_allclose(tri.disk_d, (0.0, 0.0), atol=1e-12)
        np.testing.assert_allclose(tri.median_ad, 0.0, atol=1e-7)

    def test_antipodal_pair_degenerates(self):
        tri = bg.triangle([0.4, 0, 0], [-0.4, 0, 0])
        np.testing.assert_allclose(tri.angle_a, 0.0, atol=1e-15)
        np.testing.assert_allclose(tri.phi_w, 0.0, atol=1e-12)
        np.testing.assert_allclose(tri.disk_b, tri.disk_c, atol=1e-15)
        np.testing.assert_allclose(tri.median_ad, tri.phi_u, atol=1e-12)

    def test_rejects_degenerate_norm(self):
        with pytest.raises(ValueError, match="degenerate"):
            bg.triangle([0, 0, 0], [0.5, 0, 0])
        with pytest.raises(ValueError, match="degenerate"):
            bg.triangle([0.5, 0, 0], [1e-13, 0, 0])

    def test_rejects_pure(self):
        with pytest.raises(ValueError, match="pure"):
            bg.triangle([1, 0, 0], [0.5, 0, 0])

    def _sampled_triangles(self, count=300):
        idx = np.arange(count)
        pairs = []
        for regime_u, regime_v in (
            ("uniform_ball", "uniform_ball"),
            ("uniform_ball", "near_pure"),
            ("near_pure", "near_pure"),
        ):
            us = bg.random_bloch_indexed(37, regime_u, idx, stream=0)
            vs = bg.random_bloch_indexed(37, regime_v, idx, stream=1)
            for u, v in zip(us, vs):
                if bg.bloch_norm(u) > bg.DEGENERATE_NORM and bg.bloch_norm(v) > bg.DEGENERATE_NORM:
                    pairs.append((u, v, bg.triangle(u, v)))
        return pairs

    def test_law_of_cosines(self):
        for _, _, tri in self._sampled_triangles():
            lhs = np.cosh(tri.phi_w)
            rhs = np.cosh(tri.phi_u) * np.cosh(tri.phi_v) - np.sinh(tri.phi_u) * np.sinh(
                tri.phi_v
            ) * np.cos(tri.angle_a)
            assert_close_scaled(lhs, rhs, 1e-10, "law of cosines")

    def test_triangle_inequality(self):
        for _, _, tri in self._sampled_triangles():
            assert abs(tri.phi_u - tri.phi_v) <= tri.phi_w + 1e-12
            assert tri.phi_w <= tri.phi_u + tri.phi_v + 1e-12

    # Relative bounds: on these triangles the distances measured within
    # 3.2e-13 of the sides, relative.
    def test_disk_embedding_reproduces_sides(self):
        for _, _, tri in self._sampled_triangles():
            np.testing.assert_allclose(bg.disk_distance(tri.disk_a, tri.disk_b), tri.phi_u, rtol=1e-12)
            np.testing.assert_allclose(bg.disk_distance(tri.disk_a, tri.disk_c), tri.phi_v, rtol=1e-12)
            np.testing.assert_allclose(bg.disk_distance(tri.disk_b, tri.disk_c), tri.phi_w, rtol=1e-12)

    def test_midpoint_equidistant(self):
        for _, _, tri in self._sampled_triangles():
            bd = bg.disk_distance(tri.disk_b, tri.disk_d)
            dc = bg.disk_distance(tri.disk_d, tri.disk_c)
            np.testing.assert_allclose(bd, tri.phi_w / 2, rtol=1e-12)
            np.testing.assert_allclose(dc, tri.phi_w / 2, rtol=1e-12)
            # On the geodesic: through-D path adds up to the side itself.
            np.testing.assert_allclose(bd + dc, tri.phi_w, rtol=1e-12)

    def test_median_identity_against_disk_oracle(self):
        # The stored median comes from the cosh identity; the oracle is the
        # hyperbolic distance from A (the origin) to the midpoint coordinates.
        for _, _, tri in self._sampled_triangles():
            oracle = bg.disk_distance(tri.disk_a, tri.disk_d)
            assert_close_scaled(np.cosh(tri.median_ad), np.cosh(oracle), 1e-9, "median")

    def test_disk_distance_matches_mobius_form_moderate(self):
        # The Mobius-quotient oracle agrees on triangles away from the rim.
        idx = np.arange(200)
        us = bg.random_bloch_indexed(41, "uniform_ball", idx, stream=0)
        vs = bg.random_bloch_indexed(41, "uniform_ball", idx, stream=1)
        for u, v in zip(us, vs):
            if min(bg.bloch_norm(u), bg.bloch_norm(v)) <= bg.DEGENERATE_NORM:
                continue
            tri = bg.triangle(u, v)
            for p, q, side in (
                (tri.disk_a, tri.disk_b, tri.phi_u),
                (tri.disk_a, tri.disk_c, tri.phi_v),
                (tri.disk_b, tri.disk_c, tri.phi_w),
            ):
                assert abs(disk_distance_mobius(p, q) - side) <= 1e-9


class TestGeodesicPoints:
    def test_two_samples_are_exact_endpoints(self):
        pts = bg.geodesic_points([0.1, 0.2], [-0.3, 0.4], 2)
        np.testing.assert_array_equal(pts, [[0.1, 0.2], [-0.3, 0.4]])

    def test_points_lie_on_geodesic(self):
        pts = bg.geodesic_points([0.5, 0.0], [0.0, 0.5], 17)
        total = bg.disk_distance(pts[0], pts[-1])
        partial = sum(bg.disk_distance(pts[i], pts[i + 1]) for i in range(16))
        np.testing.assert_allclose(partial, total, atol=1e-12)
        steps = [bg.disk_distance(pts[i], pts[i + 1]) for i in range(16)]
        np.testing.assert_allclose(steps, total / 16, atol=1e-12)

    def test_degenerate_segment(self):
        pts = bg.geodesic_points([0.2, 0.1], [0.2, 0.1], 5)
        np.testing.assert_array_equal(pts, np.tile([0.2, 0.1], (5, 1)))

    def test_rejects_short_count(self):
        with pytest.raises(ValueError, match="at least 2"):
            bg.geodesic_points([0.1, 0.0], [0.2, 0.0], 1)

    @pytest.mark.parametrize("count", [2.5, "8", None, 2**20 + 1, 10**12, 10**23])
    def test_rejects_non_integer_and_huge_counts(self, count):
        with pytest.raises(ValueError, match=r"count must be an integer in \[2, 1048577\)"):
            bg.geodesic_points([0.1, 0.0], [0.2, 0.0], count)

    def test_accepts_the_largest_count_and_numpy_integers(self):
        assert bg.geodesic_points([0.1, 0.0], [0.2, 0.0], 2**20).shape == (2**20, 2)
        assert bg.geodesic_points([0.1, 0.0], [0.2, 0.0], np.int64(3)).shape == (3, 2)


_OFF_DISK = [[1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [1.5, 0.0], [np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0], [1e200, 1e200]]


@pytest.mark.parametrize("point", _OFF_DISK)
def test_disk_functions_reject_points_off_the_open_disk(point):
    # Before the check these returned inf or NaN behind a divide-by-zero
    # or invalid-value warning, or raised ZeroDivisionError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="strictly inside the unit disk"):
            bg.disk_distance(point, [0.5, 0.0])
        with pytest.raises(ValueError, match="strictly inside the unit disk"):
            bg.disk_distance([[0.1, 0.0], [0.2, 0.0]], [[0.3, 0.0], point])
        for p, q in ((point, [0.5, 0.0]), ([0.5, 0.0], point), (point, point)):
            with pytest.raises(ValueError, match="strictly inside the unit disk"):
                bg.geodesic_points(p, q, 4)
        with pytest.raises(ValueError, match="strictly inside the unit disk"):
            bg.geodesic_points(complex(*point), 0j, 4)


def test_geodesic_points_rejects_a_point_without_two_coordinates():
    with pytest.raises(ValueError, match="2 coordinates"):
        bg.geodesic_points([0.1, 0.0, 0.0], [0.2, 0.0], 4)


@settings(max_examples=100, deadline=None)
@given(
    ux=st.floats(-0.57, 0.57), uy=st.floats(-0.57, 0.57), uz=st.floats(-0.57, 0.57),
    vx=st.floats(-0.57, 0.57), vy=st.floats(-0.57, 0.57), vz=st.floats(-0.57, 0.57),
)
def test_einstein_norm_symmetry_property(ux, uy, uz, vx, vy, vz):
    u = np.array([ux, uy, uz])
    v = np.array([vx, vy, vz])
    forward = bg.bloch_norm(bg.einstein_add(u, v))
    backward = bg.bloch_norm(bg.einstein_add(v, u))
    assert abs(forward - backward) <= 1e-12


_DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(lambda d: np.linalg.norm(d) > 0.1)


@settings(max_examples=300, deadline=None)
@given(
    du=_DIRECTION,
    dv=_DIRECTION,
    gap_u=st.floats(1e-15, 1e-6),
    gap_v=st.one_of(st.just(0.0), st.floats(1e-15, 1e-6)),
)
def test_einstein_sum_stays_in_ball_near_sphere(du, dv, gap_u, gap_v):
    u = du / np.linalg.norm(du) * (1.0 - gap_u)
    v = dv / np.linalg.norm(dv) * (1.0 - gap_v)
    assume(bg.bloch_norm(u) < 1.0 and 1.0 + np.dot(u, v) > 1e-12)
    assert bg.bloch_norm(bg.einstein_add(u, v)) <= 1.0


def _oracle_disk_distance(p, q) -> Decimal:
    """disk_distance at 60 digits, as 2 ln(x + sqrt(x^2 + 1)) with x^2 = |p-q|^2 / ((1-|p|^2)(1-|q|^2))."""
    with localcontext() as ctx:
        ctx.prec = 60
        px, py, qx, qy = (Decimal(c) for c in (*p, *q))
        depth = (1 - px * px - py * py) * (1 - qx * qx - qy * qy)
        x = (((px - qx) ** 2 + (py - qy) ** 2) / depth).sqrt()
        return 2 * (x + (x * x + 1).sqrt()).ln()


def _step(pair):
    """(p, q): p at radius r and angle a, q a step of 10**k from it at angle b."""
    r, a, k, b = pair
    p = (r * math.cos(a), r * math.sin(a))
    return p, (p[0] + 10.0**k * math.cos(b), p[1] + 10.0**k * math.sin(b))


_CLOSE_PAIRS = (
    st.tuples(
        st.floats(0.0, 0.999),
        st.floats(-math.pi, math.pi),
        st.floats(-12.0, math.log10(0.5)),
        st.floats(-math.pi, math.pi),
    )
    .map(_step)
    .filter(lambda pq: math.hypot(*pq[1]) <= 0.999)
)


@settings(max_examples=300, deadline=None)
@given(pair=_CLOSE_PAIRS)
@example(pair=((0.3, 0.0), (0.3 + 1e-8, 0.0)))
@example(pair=((0.3, 0.0), (0.3, 1e-12)))
def test_disk_distance_matches_a_60_digit_oracle(pair):
    # The arccosh(1 + 2|p-q|^2 / depth) form lost the small term to 1 + x:
    # 2.107e-8 for 2.198e-8 at the first example, 0.0 at the second.  Near
    # the rim each 1 - |p|^2 is rounded once, so the bound scales with
    # the smaller of them; the measured worst was 1.4 eps over it.
    p, q = pair
    want = _oracle_disk_distance(p, q)
    assert want > 0
    depth = min(1.0 - (p[0] * p[0] + p[1] * p[1]), 1.0 - (q[0] * q[0] + q[1] * q[1]))
    error = abs(Decimal(float(bg.disk_distance(p, q))) - want) / want
    assert error <= Decimal(2.0 * 2.0**-52 / depth), (p, q, float(error))


# ---------------------------------------------------------------------------
# The disk kernels against the forms they replaced, bit for bit.
# ---------------------------------------------------------------------------


def sum_form_distance(p, q):
    """disk_distance as np.sum over the length-2 coordinate axis."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pq2 = np.sum((p - q) ** 2, axis=-1)
    depth = (1.0 - np.sum(p * p, axis=-1)) * (1.0 - np.sum(q * q, axis=-1))
    return 2.0 * np.arcsinh(np.sqrt(pq2 / depth))


def per_edge_polyline(b: complex, c: complex, count: int) -> np.ndarray:
    """One geodesic polyline, built the way geodesic_points built it edge by edge."""
    t = _mobius_to_origin(b, c)
    rt = abs(t)
    fractions = np.linspace(0.0, 1.0, count)
    if rt == 0.0:
        z = np.full(count, b, dtype=complex)
    else:
        d = sum_form_distance((b.real, b.imag), (c.real, c.imag))[()]
        z = _mobius_from_origin(b, np.tanh(fractions * (d / 2.0)) * (t / rt))
    out = np.column_stack([z.real, z.imag])
    out[0] = (b.real, b.imag)
    out[-1] = (c.real, c.imag)
    return out


# Radii across the disk and within 1e-16 of the rim, where 1 - |p|^2 cancels.
_RADII = st.one_of(
    st.floats(0.0, 0.999),
    st.floats(0.999, 1.0, exclude_max=True),
    st.integers(1, 16).map(lambda k: 1.0 - 10.0**-k),
)
_POINT = (
    st.tuples(_RADII, st.floats(-math.pi, math.pi))
    .map(lambda ra: (ra[0] * math.cos(ra[1]), ra[0] * math.sin(ra[1])))
    .filter(lambda p: 1.0 - (p[0] * p[0] + p[1] * p[1]) > 0.0)
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_disk_distance_kernel_matches_the_sum_form_bit_for_bit(data):
    shape = data.draw(
        st.one_of(st.just(()), st.tuples(st.integers(1, 6)), st.tuples(st.integers(1, 4), st.integers(1, 4)))
    )
    size = math.prod(shape)
    p = np.array(data.draw(st.lists(_POINT, min_size=size, max_size=size))).reshape(shape + (2,))
    q = np.array(data.draw(st.lists(_POINT, min_size=size, max_size=size))).reshape(shape + (2,))
    want = np.asarray(sum_form_distance(p, q))
    got = np.asarray(_disk_distance(p[..., 0], p[..., 1], q[..., 0], q[..., 1]))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.asarray(bg.disk_distance(p, q)).tobytes() == want.tobytes()
    # Python floats, as the midpoint and the polylines pass them.
    for (px, py), (qx, qy), w in zip(p.reshape(-1, 2).tolist(), q.reshape(-1, 2).tolist(), want.ravel()):
        assert _disk_distance(px, py, qx, qy).tobytes() == w.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    ends=st.lists(st.tuples(_POINT, _POINT), min_size=1, max_size=3),
    count=st.integers(2, 70),
    repeat=st.booleans(),
)
def test_polyline_kernel_matches_the_per_edge_formula(ends, count, repeat):
    pairs = [(complex(*b), complex(*c)) for b, c in ends]
    if repeat:  # a degenerate edge, once with the end's zero sign flipped
        b = pairs[0][0]
        pairs[0] = (b, b)
        pairs.append((complex(b.real, 0.0), complex(b.real, -0.0)))
    got = _polylines(pairs, count)
    assert got.shape == (len(pairs), count, 2)
    for row, (b, c) in zip(got, pairs):
        assert row.tobytes() == per_edge_polyline(b, c, count).tobytes()
        assert bg.geodesic_points(b, c, count).tobytes() == row.tobytes()
