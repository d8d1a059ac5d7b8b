"""Tests for the Bloch/density correspondence, 2x2 eigensolve and sampler."""

import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import buresgeo as bg
from buresgeo.qubit import _direction, _sample_streams, _splitmix, _stream_keys

RHO_MIXED = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
RHO_UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


# Bloch vectors for hypothesis: a direction scaled to a norm that is often
# exactly 0, exactly 1 or within 1e-9 of the sphere.
_NORMS = st.sampled_from([0.0, 1.0, 1.0 - 1e-9, 1.0 - 1e-13]) | st.floats(0.0, 1.0)
_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda d: math.hypot(*d) > 1e-3)
_BLOCH_VECTORS = st.builds(lambda d, r: r * np.array(d) / math.hypot(*d), _DIRECTIONS, _NORMS)


class TestDensityFromBloch:
    @settings(max_examples=300, deadline=None)
    @given(n=_BLOCH_VECTORS)
    def test_equals_the_pauli_expansion(self, n):
        # (I + n.sigma)/2 from PAULI: the products with 0 and +-1 and the
        # sums with zeros are exact, so every bit must agree.
        expected = (np.eye(2) + np.einsum("k,kij->ij", n, bg.PAULI)) / 2.0
        np.testing.assert_array_equal(bg.density_from_bloch(n), expected)

    def test_maximally_mixed(self):
        np.testing.assert_array_equal(bg.density_from_bloch([0, 0, 0]), RHO_MIXED)

    def test_pure_z(self):
        np.testing.assert_array_equal(bg.density_from_bloch([0, 0, 1]), RHO_UP)

    def test_partial_z(self):
        # (1 + 0.6 sigma_z)/2 by hand: diag(0.8, 0.2).
        rho = bg.density_from_bloch([0, 0, 0.6])
        np.testing.assert_allclose(rho, np.diag([0.8, 0.2]), atol=1e-15)

    def test_off_axis_entries(self):
        rho = bg.density_from_bloch([0.3, 0.4, 0.0])
        np.testing.assert_allclose(rho[0, 1], 0.15 - 0.2j, atol=1e-15)
        np.testing.assert_allclose(rho[1, 0], 0.15 + 0.2j, atol=1e-15)

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError, match="outside the unit ball"):
            bg.density_from_bloch([2.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="outside the unit ball"):
            bg.density_from_bloch([0.0, 0.0, 1.0 + 1e-9])

    def test_accepts_ball_tolerance(self):
        bg.density_from_bloch([0.0, 0.0, 1.0 + 0.5e-12])

    def test_rejects_non_finite(self):
        for bad in ([np.nan, 0, 0], [np.inf, 0, 0], [0, -np.inf, 0]):
            with pytest.raises(ValueError, match="non-finite"):
                bg.density_from_bloch(bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3 components"):
            bg.density_from_bloch([0.1, 0.2])

    def test_norm_overflow_raises_without_a_warning(self):
        # The squares overflow to inf; only the ValueError may escape.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for huge in ([1e308, 1e308, 0.0], [0.0, -1e200, 1e200]):
                with pytest.raises(ValueError, match=r"Bloch vector norm inf lies outside the unit ball"):
                    bg.as_bloch_vector(huge)

    def test_bloch_norm_is_finite_where_the_squares_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = bg.bloch_norm([[1e308, 1e308, 0.0], [0.0, -1e200, 1e200], [1e150, 0.0, 0.0], [2.0, 0.0, 0.0]])
            assert norms.tolist() == [1.4142135623730951e308, 1.414213562373095e200, 1e150, 2.0]
            assert np.isnan(bg.bloch_norm([np.nan, 0.0, 0.0]))
            assert bg.bloch_norm([np.inf, 0.0, 0.0]) == np.inf
            assert bg.bloch_norm([1.7e308, 1.7e308, 1.7e308]) == np.inf  # past the largest double

    @settings(max_examples=300, deadline=None)
    @given(
        mantissas=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        exponents=st.tuples(*[st.integers(-1074, 1023)] * 3),
    )
    @example(mantissas=(0.75, 1.0, 0.0), exponents=(-563, -563, 0))  # (3, 4, 0) * 2**-565, about 1e-170
    @example(mantissas=(1e-170, 0.0, 0.0), exponents=(0, 0, 0))
    @example(mantissas=(1.0, 1.0, 0.0), exponents=(1023, 1023, 0))
    @example(mantissas=(1.0, 1.0, 1.0), exponents=(-1074, -1074, -1074))
    def test_bloch_norm_matches_a_40_digit_oracle(self, mantissas, exponents):
        # Components from the smallest subnormal to 2**1023, each scale
        # its own.  The norm rounds within 1.5 eps of the exact one (three
        # squares, two sums and a square root, each rounded once), plus
        # half the smallest subnormal where the norm itself is subnormal.
        n = [math.ldexp(m, e) for m, e in zip(mantissas, exponents)]
        with decimal.localcontext() as context:
            context.prec = 40
            exact = sum(decimal.Decimal(x) * decimal.Decimal(x) for x in n).sqrt()
            error = abs(decimal.Decimal(float(bg.bloch_norm(n))) - exact)
            assert error <= exact * decimal.Decimal(1.5 * 2.0**-52) + decimal.Decimal(2) ** -1075, (n, exact)

    def test_bloch_norm_rejects_wrong_shape(self):
        for bad in ([0.1, 0.2], np.zeros((4, 2)), 0.5):
            with pytest.raises(ValueError, match="3 components"):
                bg.bloch_norm(bad)

    def test_trace_and_det(self):
        idx = np.arange(2000)
        n = bg.random_bloch_indexed(3, "uniform_ball", idx)
        rho = bg.density_from_bloch(n)
        trace = (rho[..., 0, 0] + rho[..., 1, 1]).real
        np.testing.assert_allclose(trace, 1.0, atol=1e-15)
        det = (rho[..., 0, 0] * rho[..., 1, 1] - rho[..., 0, 1] * rho[..., 1, 0]).real
        r2 = np.sum(n * n, axis=-1)
        np.testing.assert_allclose(det, (1.0 - r2) / 4.0, atol=1e-12)


class TestBlochFromDensity:
    def test_maximally_mixed(self):
        np.testing.assert_array_equal(bg.bloch_from_density(RHO_MIXED), [0, 0, 0])

    def test_pure_z(self):
        np.testing.assert_array_equal(bg.bloch_from_density(RHO_UP), [0, 0, 1])

    def test_real_off_diagonal(self):
        # trace(rho sigma_x) = 2 * 0.3 by hand.
        rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        np.testing.assert_allclose(bg.bloch_from_density(rho), [0.6, 0, 0], atol=1e-15)

    def test_round_trip(self):
        idx = np.arange(10_000)
        n = bg.random_bloch_indexed(11, "uniform_ball", idx)
        recovered = bg.bloch_from_density(bg.density_from_bloch(n))
        np.testing.assert_allclose(recovered, n, atol=1e-12)

    def test_round_trip_matrix_side(self):
        for regime in bg.REGIMES:
            n = bg.random_bloch_indexed(5, regime, np.arange(200))
            rho = bg.density_from_bloch(n)
            again = bg.density_from_bloch(bg.bloch_from_density(rho))
            np.testing.assert_allclose(again, rho, atol=1e-12)


class TestHermitianEigenvalues:
    def test_diagonal(self):
        lo, hi = bg.hermitian_eigenvalues(np.diag([0.8, 0.2]))
        np.testing.assert_allclose([lo, hi], [0.2, 0.8], atol=1e-15)

    def test_sigma_x_offset(self):
        # Characteristic polynomial of I/2 + 0.3 sigma_x has roots 1/2 +- 0.3.
        lo, hi = bg.hermitian_eigenvalues(0.5 * np.eye(2) + 0.3 * bg.SIGMA_X)
        np.testing.assert_allclose([lo, hi], [0.2, 0.8], atol=1e-15)

    def test_identity(self):
        assert bg.hermitian_eigenvalues(np.eye(2)) == (1.0, 1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            bg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_skew_overflow_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not Hermitian"):
                bg.hermitian_eigenvalues(np.array([[0.0, 1e308], [-1e308, 0.0]]))
            with pytest.raises(ValueError, match="not Hermitian"):
                bg.validate_density_matrix(np.array([[0.5, 1e308], [-1e308, 0.5]]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", ["diagonal", "off_real", "off_imag"])
    def test_rejects_non_finite(self, bad, where):
        # Before the Hermitian check: a non-finite entry makes the skew
        # NaN, which passes any tolerance comparison.
        m = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        if where == "diagonal":
            m[0, 0] = bad
        else:
            entry = bad if where == "off_real" else complex(0.0, bad)
            m[0, 1] = entry
            m[1, 0] = np.conj(entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix has non-finite entries"):
                bg.hermitian_eigenvalues(m)

    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        m = a + np.conj(np.swapaxes(a, -1, -2))
        lo, hi = bg.hermitian_eigenvalues(m)
        expected = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(lo, expected[..., 0], atol=1e-12)
        np.testing.assert_allclose(hi, expected[..., 1], atol=1e-12)

    def test_trace_det_identities(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
        m = 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))
        lo, hi = bg.hermitian_eigenvalues(m)
        trace = (m[..., 0, 0] + m[..., 1, 1]).real
        det = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real
        np.testing.assert_allclose(lo + hi, trace, atol=1e-12)
        np.testing.assert_allclose(lo * hi, det, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 1e-310, 1e-320])
    def test_matches_eigvalsh_at_extreme_scales(self, scale):
        # Each matrix is scaled by a power of two before the squares are
        # summed, so huge entries cannot overflow and subnormal ones keep
        # their gap; results are read in units of the largest entry, plus a
        # few subnormal steps for the rounding back onto the subnormal grid.
        rng = np.random.default_rng(17)
        a = rng.normal(size=(400, 2, 2)) + 1j * rng.normal(size=(400, 2, 2))
        m = scale * (0.5 * (a + np.conj(np.swapaxes(a, -1, -2))))
        lo, hi = bg.hermitian_eigenvalues(m)
        expected = np.linalg.eigvalsh(m)
        atol = 1e-14 * np.max(np.abs(m), axis=(-2, -1)) + 4 * 5e-324
        assert np.all(np.abs(lo - expected[..., 0]) <= atol)
        assert np.all(np.abs(hi - expected[..., 1]) <= atol)

    def test_no_overflow_near_the_largest_double(self):
        # ((a - d)/2)^2 alone would overflow; the eigenvalues +-sqrt(2) 1e308 do not.
        lo, hi = bg.hermitian_eigenvalues(np.array([[1e308, 1e308], [1e308, -1e308]]))
        np.testing.assert_allclose([lo, hi], [-np.sqrt(2) * 1e308, np.sqrt(2) * 1e308], rtol=1e-15)

    def test_smallest_subnormal_entries(self):
        lo, hi = bg.hermitian_eigenvalues(np.array([[5e-324, 5e-324j], [-5e-324j, 0.0]]))
        expected = np.linalg.eigvalsh(np.array([[5e-324, 5e-324j], [-5e-324j, 0.0]]))
        np.testing.assert_array_equal([lo, hi], expected)

    def test_density_spectrum_is_bloch_norm(self):
        for regime in bg.REGIMES:
            n = bg.random_bloch_indexed(9, regime, np.arange(1000))
            r = bg.bloch_norm(n)
            lo, hi = bg.hermitian_eigenvalues(bg.density_from_bloch(n))
            np.testing.assert_allclose(lo, (1.0 - r) / 2.0, atol=1e-12)
            np.testing.assert_allclose(hi, (1.0 + r) / 2.0, atol=1e-12)


class TestSqrtDensity:
    def test_scalar_matrix(self):
        np.testing.assert_allclose(
            bg.sqrt_density(RHO_MIXED), np.eye(2) / np.sqrt(2), atol=1e-15
        )

    def test_projector_is_own_root(self):
        np.testing.assert_allclose(bg.sqrt_density(RHO_UP), RHO_UP, atol=1e-15)

    def test_partial_z(self):
        # Entry-wise square root of the diagonal eigenvalues.
        root = bg.sqrt_density(np.diag([0.8, 0.2]).astype(complex))
        np.testing.assert_allclose(
            root, np.diag([0.8944271909999159, 0.4472135954999579]), atol=1e-12
        )

    @pytest.mark.parametrize("regime", bg.REGIMES)
    def test_square_reproduces_input(self, regime):
        n = bg.random_bloch_indexed(21, regime, np.arange(2000))
        rho = bg.density_from_bloch(n)
        root = bg.sqrt_density(rho)
        np.testing.assert_allclose(root @ root, rho, atol=1e-12)

    def test_output_hermitian_psd(self):
        n = bg.random_bloch_indexed(22, "uniform_ball", np.arange(1000))
        root = bg.sqrt_density(bg.density_from_bloch(n))
        np.testing.assert_allclose(root, np.conj(np.swapaxes(root, -1, -2)), atol=1e-14)
        lo, _ = bg.hermitian_eigenvalues(root)
        assert np.all(lo >= -1e-12)

    def test_closed_form_matches_spectral(self):
        # The one-formula root equals the spectral decomposition to an ulp
        # or two in every regime, pure states included (measured 2.2e-16).
        from buresgeo.qubit import PAULI

        for regime in bg.REGIMES:
            n = bg.random_bloch_indexed(23, regime, np.arange(2000))
            rho = bg.density_from_bloch(n)
            root = bg.sqrt_density(rho)
            r = bg.bloch_norm(bg.bloch_from_density(rho))
            lam_hi = (1.0 + r) / 2.0
            lam_lo = np.maximum((1.0 - r) / 2.0, 0.0)
            nhat = n / r[..., None]
            proj_hi = 0.5 * (np.eye(2) + np.einsum("...k,kij->...ij", nhat, PAULI))
            proj_lo = 0.5 * (np.eye(2) - np.einsum("...k,kij->...ij", nhat, PAULI))
            spectral = (
                np.sqrt(lam_hi)[..., None, None] * proj_hi
                + np.sqrt(lam_lo)[..., None, None] * proj_lo
            )
            np.testing.assert_allclose(root, spectral, atol=1e-15)


class TestValidateDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            bg.validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            bg.validate_density_matrix(np.diag([0.6, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            bg.validate_density_matrix(np.diag([1.2, -0.2]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            bg.validate_density_matrix(np.array([[np.nan, 0], [0, 1.0]]))

    def test_huge_off_diagonal_reports_its_eigenvalue(self):
        # Unit trace does not bound b; |b|^2 would overflow to inf unscaled.
        with pytest.raises(ValueError, match=r"negative eigenvalue -1\.000e\+200"):
            bg.validate_density_matrix(np.array([[0.5, 1e200], [1e200, 0.5]]))


class TestRandomBloch:
    def test_deterministic(self):
        for regime in bg.REGIMES:
            a = bg.random_bloch(987654321, regime)
            b = bg.random_bloch(987654321, regime)
            np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self):
        assert not np.array_equal(bg.random_bloch(1, "uniform_ball"), bg.random_bloch(2, "uniform_ball"))

    def test_streams_differ(self):
        idx = np.arange(100)
        a = bg.random_bloch_indexed(5, "uniform_ball", idx, stream=0)
        b = bg.random_bloch_indexed(5, "uniform_ball", idx, stream=1)
        assert not np.allclose(a, b)

    def test_indexed_matches_single(self):
        batch = bg.random_bloch_indexed(77, "near_pure", np.arange(50))
        np.testing.assert_array_equal(batch[0], bg.random_bloch(77, "near_pure"))
        single = bg.random_bloch_indexed(77, "near_pure", 17)
        np.testing.assert_array_equal(batch[17], single)
        # numpy reads [] as float64: a batch with no index is empty whatever its dtype.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for empty in ([], [[]], np.empty(0, dtype=int), np.empty(0, dtype=complex)):
                assert bg.random_bloch_indexed(77, "near_pure", empty).shape == np.shape(empty) + (3,)
        with pytest.raises(ValueError, match="indices must be integers"):
            bg.random_bloch_indexed(77, "near_pure", [0.0])

    def test_partition_invariant(self):
        idx = np.arange(1000)
        whole = bg.random_bloch_indexed(13, "uniform_ball", idx)
        parts = np.concatenate(
            [bg.random_bloch_indexed(13, "uniform_ball", idx[lo : lo + 137]) for lo in range(0, 1000, 137)]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_pure_norm(self):
        n = bg.random_bloch_indexed(31, "pure", np.arange(5000))
        np.testing.assert_allclose(bg.bloch_norm(n), 1.0, atol=1e-15)

    def test_uniform_ball_volume_law(self):
        # |n|^3 is uniform on [0, 1] for uniform sampling in volume.
        n = bg.random_bloch_indexed(41, "uniform_ball", np.arange(100_000))
        assert abs(np.mean(bg.bloch_norm(n) ** 3) - 0.5) < 0.01

    def test_uniform_ball_isotropic(self):
        n = bg.random_bloch_indexed(43, "uniform_ball", np.arange(100_000))
        assert np.all(np.abs(np.mean(n, axis=0)) < 0.01)

    def test_near_pure_band(self):
        n = bg.random_bloch_indexed(47, "near_pure", np.arange(5000))
        gap = 1.0 - bg.bloch_norm(n)
        assert np.all(gap >= 1e-9 - 1e-24) and np.all(gap <= 1e-3)

    def test_near_mixed_band(self):
        n = bg.random_bloch_indexed(53, "near_mixed", np.arange(5000))
        assert np.all(bg.bloch_norm(n) <= 1e-3)

    def test_rejects_unknown_regime(self):
        with pytest.raises(ValueError, match="unknown regime"):
            bg.random_bloch(1, "thermal")

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="seed"):
            bg.random_bloch(-1, "uniform_ball")
        with pytest.raises(ValueError, match="seed"):
            bg.random_bloch(2**64, "uniform_ball")

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="indices"):
            bg.random_bloch_indexed(1, "uniform_ball", -3)

    def test_max_seed_works(self):
        bg.random_bloch(2**64 - 1, "pure")

    def test_splitmix_counter_words_differ(self):
        words = _splitmix(np.uint64(12345), np.arange(1, 1001, dtype=np.uint64))
        assert len(np.unique(words)) == 1000

    @pytest.mark.parametrize("seed", [True, 1.0, "1"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer in"):
            bg.random_bloch(seed, "uniform_ball")

    @pytest.mark.parametrize("stream", [-1, 2**64, True, 1.5])
    def test_rejects_bad_stream(self, stream):
        with pytest.raises(ValueError, match="stream"):
            bg.random_bloch_indexed(1, "uniform_ball", 0, stream=stream)

    def test_max_stream_works(self):
        bg.random_bloch_indexed(1, "uniform_ball", 0, stream=2**64 - 1)


_DIRECTION = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda d: bg.bloch_norm(d) > 0.1
)


@settings(max_examples=200, deadline=None)
@given(
    direction=_DIRECTION,
    radius=st.sampled_from(
        [bg.PURE_NORM, float(np.nextafter(bg.PURE_NORM, 2.0)), 1.0 - 1e-13, 1.0]
    ),
)
def test_sqrt_density_at_the_pure_cutoff(direction, radius):
    # One formula on both sides of PURE_NORM: no seam where a branch switches.
    rho = bg.density_from_bloch(radius * direction / bg.bloch_norm(direction))
    root = bg.sqrt_density(rho)
    np.testing.assert_allclose(root @ root, rho, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(root, np.conj(root.T))
    # A pure state's root has eigenvalue 0; the eigensolve rounds it within an ulp of 1.
    lo, _ = bg.hermitian_eigenvalues(root)
    assert lo >= -1e-15


@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, 2**62 - 1), high=st.integers(2**62, 2**64 - 1))
def test_rejects_indices_that_would_wrap(index, high):
    # Index i owns counters 4i .. 4i + 3, so i + 2**62 would alias i.
    bg.random_bloch_indexed(9, "uniform_ball", index)
    with pytest.raises(ValueError, match="indices"):
        bg.random_bloch_indexed(9, "uniform_ball", high)
    with pytest.raises(ValueError, match="indices"):
        bg.random_bloch_indexed(9, "uniform_ball", np.array([index, high], dtype=np.uint64))


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(-0.57, 0.57),
    y=st.floats(-0.57, 0.57),
    z=st.floats(-0.57, 0.57),
)
def test_round_trip_property(x, y, z):
    n = np.array([x, y, z])
    recovered = bg.bloch_from_density(bg.density_from_bloch(n))
    np.testing.assert_allclose(recovered, n, atol=1e-12)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    regime=st.sampled_from(bg.REGIMES),
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    start=st.integers(0, 2**62 - 1000),
    lengths=st.lists(st.integers(1, 67), min_size=1, max_size=12),
)
def test_batches_equal_rows_of_one_batch(regime, seed, stream, start, lengths):
    # Batch lengths 1-67 cut through the vector kernels' SIMD tails: a
    # row's bits must not depend on where it sits in its batch.
    idx = np.arange(start, start + sum(lengths))
    whole = bg.random_bloch_indexed(seed, regime, idx, stream=stream)
    cuts = np.cumsum([0, *lengths])
    parts = [bg.random_bloch_indexed(seed, regime, idx[lo:hi], stream=stream) for lo, hi in zip(cuts, cuts[1:])]
    assert _same_bits(np.concatenate(parts), whole)
    assert _same_bits(bg.random_bloch_indexed(seed, regime, idx[::-1], stream=stream), whole[::-1])
    assert _same_bits(bg.random_bloch_indexed(seed, regime, idx[1::3], stream=stream), whole[1::3])
    grid = idx[: 2 * (len(idx) // 2)].reshape(2, -1)
    assert _same_bits(bg.random_bloch_indexed(seed, regime, grid, stream=stream), whole[: grid.size].reshape(grid.shape + (3,)))
    for i in (0, len(idx) - 1):
        assert _same_bits(bg.random_bloch_indexed(seed, regime, int(idx[i]), stream=stream), whole[i])
        assert _same_bits(bg.random_bloch_indexed(seed, regime, idx[i], stream=stream), whole[i])


@pytest.mark.parametrize("regimes", [(u, v) for u in bg.REGIMES for v in bg.REGIMES])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.tuples(*[st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1))] * 2),
    start=st.one_of(st.integers(0, 1000), st.integers(0, 2**62 - 200)),
    length=st.integers(1, 133),
)
def test_two_stream_pass_equals_one_stream_calls(regimes, seed, streams, start, length):
    # One pass runs every kernel on both streams' rows at once; lengths
    # 1-133 cut through the SIMD tails differently than one stream does.
    idx = np.arange(start, start + length)
    both = _sample_streams(_stream_keys(seed, streams), regimes, idx.astype(np.uint64))
    assert both.shape == (2, 3, length)
    grid = idx[: 2 * (length // 2)].reshape(2, -1)
    for s, (stream, regime) in enumerate(zip(streams, regimes)):
        rows = both[s].T
        assert _same_bits(bg.random_bloch_indexed(seed, regime, idx, stream=stream), rows)
        assert _same_bits(bg.random_bloch_indexed(seed, regime, grid, stream=stream), rows[: grid.size].reshape(grid.shape + (3,)))
        for i in (0, length - 1):
            assert _same_bits(bg.random_bloch_indexed(seed, regime, int(idx[i]), stream=stream), rows[i])


@pytest.mark.parametrize("u_polar", [0.0, 2.0**-53, 0.25, 0.5, 1.0 - 2.0**-53])
def test_direction_is_finite_and_unit_at_the_azimuth_ends(u_polar):
    # u_azimuth = 0 puts tan at -pi/2 (about -1.6e16); 1 - 2**-53 just below +pi/2.
    u_azimuth = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    x, y, z = _direction(np.full(4, u_polar), u_azimuth)
    assert np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(z).all()
    np.testing.assert_allclose(np.sqrt(x * x + y * y + z * z), 1.0, rtol=0.0, atol=4e-16)
    s = np.sqrt(max(1.0 - (2.0 * u_polar - 1.0) ** 2, 0.0))
    # theta = -pi at both ends (x = -s), within 2 pi 2**-53 = 7e-16 of it one
    # word in, and theta = 0 in the middle (x = s, y = 0).
    np.testing.assert_allclose(x, [-s, -s, s, -s], atol=1e-15)
    np.testing.assert_allclose(y, 0.0, atol=2e-15)
    assert y[2] == 0.0


def test_azimuth_fills_equal_sectors_uniformly():
    # 16 equal sectors of atan2(y, x), 160000 seeded pure states: chi-square
    # with 15 degrees of freedom, against its 0.1% critical value 37.70.
    n = bg.random_bloch_indexed(2718, "pure", np.arange(160_000))
    theta = np.arctan2(n[:, 1], n[:, 0])
    sector = np.minimum(((theta + np.pi) * (16 / (2 * np.pi))).astype(int), 15)
    counts = np.bincount(sector, minlength=16)
    expected = len(theta) / 16
    chi_square = float(np.sum((counts - expected) ** 2 / expected))
    assert chi_square < 37.70, (chi_square, counts)


def _reference_sample(seed, regime, index, stream):
    """Sampler version 2 written out with Python ints and the math module.

    Words at counter positions 4i (polar), 4i + 1 (azimuth), 4i + 2
    (radius); the azimuth is theta = 2 pi (u - 1/2), here through
    math.cos and math.sin rather than the half-angle tangent.
    """
    mask = 2**64 - 1

    def splitmix(key, position):
        x = (key + (position + 1) * 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        return x ^ (x >> 31)

    key = splitmix(splitmix(seed, 0), stream)
    u_polar, u_azimuth, u_radius = ((splitmix(key, 4 * index + j) >> 11) * 2.0**-53 for j in range(3))
    z = 2.0 * u_polar - 1.0
    s = math.sqrt(max(1.0 - z * z, 0.0))
    theta = 2.0 * math.pi * (u_azimuth - 0.5)
    direction = np.array([s * math.cos(theta), s * math.sin(theta), z])
    log_lo, log_hi = math.log(1e-9), math.log(1e-3)
    radius = {
        "uniform_ball": u_radius ** (1.0 / 3.0),
        "near_pure": 1.0 - math.exp(log_lo + u_radius * (log_hi - log_lo)),
        "near_mixed": 1e-3 * u_radius,
        "pure": 1.0,
    }[regime]
    return radius * direction / math.sqrt(float(direction @ direction))


@settings(max_examples=200, deadline=None)
@given(
    regime=st.sampled_from(bg.REGIMES),
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    index=st.one_of(st.integers(0, 1000), st.integers(0, 2**62 - 1)),
)
def test_sampler_matches_its_written_out_definition(regime, seed, stream, index):
    # Pins the word positions, the azimuth range and the radius laws to a
    # few ulps, which CPU dispatch cannot move (measured at most 4.4e-16,
    # with numpy's AVX-512 kernels and with its baseline ones).
    ours = bg.random_bloch_indexed(seed, regime, index, stream=stream)
    np.testing.assert_allclose(ours, _reference_sample(seed, regime, index, stream), rtol=0.0, atol=2e-15)
