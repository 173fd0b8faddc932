import warnings

import numpy as np
import pytest

from qps import (
    InvalidInputError,
    SaturationError,
    Signature,
    StatMoments,
    block_covariance,
    build_shape,
    check_saturation,
    decompose_covariance,
    reconstruct_covariance,
    saturating_moments,
)


class TestMetric:
    def test_minkowski_signature(self):
        m = Signature(1, 3).matrix()
        assert np.array_equal(m, np.diag([1.0, -1.0, -1.0, -1.0]))

    def test_single_spatial_axis(self):
        assert np.array_equal(Signature(0, 1).matrix(), np.array([[-1.0]]))

    def test_two_plus_axes(self):
        assert np.array_equal(Signature(2, 0).matrix(), np.eye(2))

    def test_dimension_validation(self):
        with pytest.raises(InvalidInputError):
            Signature(0, 0)
        with pytest.raises(InvalidInputError):
            Signature(-1, 2)


class TestBuildShape:
    def test_uncorrelated_real_value(self):
        m = saturating_moments(X=[[0.5]])
        shape = build_shape(m, Signature(0, 1), 1.0)
        assert shape.matrix[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert abs(shape.matrix[0, 0].imag) < 1e-15

    def test_correlated_value(self):
        # hbar^2/(4X) - i hbar rho / (2X) at X = rho = 0.5
        m = saturating_moments(X=[[0.5]], rho=[[0.5]])
        shape = build_shape(m, Signature(0, 1), 1.0)
        assert shape.matrix[0, 0] == pytest.approx(0.5 - 0.5j, abs=1e-15)

    def test_decoupled_axes(self):
        m = saturating_moments(X=0.5 * np.eye(2))
        shape = build_shape(m, Signature(0, 2), 1.0)
        assert np.allclose(shape.matrix, 0.5 * np.eye(2), atol=1e-15)

    def test_x_inverse_identity(self):
        m = saturating_moments(X=[[0.7, 0.2], [0.2, 0.9]])
        shape = build_shape(m, Signature(0, 2), 1.0)
        assert np.abs(m.X @ m.x_inv - np.eye(2)).max() < 1e-12

    def test_exponent_decays_for_plus_axis(self):
        m = saturating_moments(X=[[0.5]], sig=Signature(1, 0))
        shape = build_shape(m, Signature(1, 0), 1.0)
        assert np.linalg.eigvalsh(shape.exponent.real).min() > 0.0

    def test_positive_definite_real_part_when_uncorrelated(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            X = A @ A.T + 0.3 * np.eye(2)
            m = saturating_moments(X=X)
            shape = build_shape(m, Signature(0, 2), 1.0)
            assert np.allclose(shape.matrix, shape.matrix.T, atol=1e-12)
            assert np.linalg.eigvalsh(shape.exponent.real).min() > 0.0

    @pytest.mark.parametrize("hbar", [float("nan"), 0.0, 1e200])
    def test_hbar_outside_check_hbar_rejected(self, hbar):
        # NaN fails no comparison and 1e200 overflows hbar**2: `check_hbar` rejects both first
        with pytest.raises(InvalidInputError, match="hbar must be in"):
            build_shape(saturating_moments(X=[[0.5]]), Signature(0, 1), hbar)


class TestCheckSaturation:
    def test_constructed_moments_saturate(self):
        m = saturating_moments(X=[[0.8]], rho=[[0.3]])
        assert check_saturation(m, Signature(0, 1)) <= 1e-12

    def test_doubled_p_breaks_saturation(self):
        m = saturating_moments(X=[[0.8]], rho=[[0.3]])
        m2 = StatMoments(m.mean_p, m.mean_x, 2.0 * m.P, m.X, m.rho)
        assert check_saturation(m2, Signature(0, 1)) > 0.4

    def test_diagonal_two_axis(self):
        m = saturating_moments(X=np.diag([0.5, 1.2]), rho=np.diag([0.2, -0.4]))
        assert check_saturation(m, Signature(0, 2)) <= 1e-12

    def test_mixed_signature(self):
        m = saturating_moments(X=np.diag([0.5, 0.7]), sig=Signature(1, 1))
        assert check_saturation(m, Signature(1, 1)) <= 1e-12

    @pytest.mark.parametrize("block, value", [("P", 1e308), ("rho", 1e308), ("P", 0.0)])
    def test_overflowing_or_zero_moments_read_inf(self, block, value):
        # a residual of nan would pass every `residual > tol` test
        m = saturating_moments(X=[[0.8]], rho=[[0.3]])
        blocks = {"P": m.P, "rho": m.rho, block: [[value]]}
        huge = StatMoments(m.mean_p, m.mean_x, blocks["P"], m.X, blocks["rho"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_saturation(huge, Signature(0, 1)) == np.inf


class TestDecomposeCovariance:
    def test_uncorrelated_factors(self):
        m = saturating_moments(X=[[0.5]])
        f = decompose_covariance(m, Signature(0, 1))
        assert f.a[0, 0] == pytest.approx(1j * np.sqrt(0.5), abs=1e-12)
        assert f.b[0, 0] == pytest.approx(-1j / (2 * np.sqrt(0.5)), abs=1e-12)
        assert abs(f.c[0, 0]) < 1e-12

    def test_correlated_factor_magnitude(self):
        # |c| = rho / sqrt(X); the sign is fixed by requiring exact
        # reconstruction of the block matrix, giving c = -rho/a
        m = saturating_moments(X=[[0.5]], rho=[[0.5]])
        f = decompose_covariance(m, Signature(0, 1))
        assert abs(f.c[0, 0]) == pytest.approx(0.5 / np.sqrt(0.5), abs=1e-12)
        assert f.c[0, 0].real == pytest.approx(0.0, abs=1e-12)
        assert f.c[0, 0] == pytest.approx(-m.rho[0, 0] / f.a[0, 0], abs=1e-12)

    def test_reconstruction_is_defining_property(self, rng):
        for _ in range(10):
            m = saturating_moments(
                X=[[rng.uniform(0.2, 2.0)]], rho=[[rng.uniform(-0.7, 0.7)]]
            )
            f = decompose_covariance(m, Signature(0, 1))
            rebuilt = reconstruct_covariance(f, Signature(0, 1))
            assert np.abs(rebuilt - block_covariance(m)).max() < 1e-10

    def test_two_axis_reconstruction(self):
        m = saturating_moments(X=np.diag([0.5, 1.1]), rho=np.diag([0.25, -0.3]))
        f = decompose_covariance(m, Signature(0, 2))
        rebuilt = reconstruct_covariance(f, Signature(0, 2))
        assert np.abs(rebuilt - block_covariance(m)).max() < 1e-10

    def test_factor_relations(self):
        sig = Signature(0, 2)
        eta = sig.matrix()
        m = saturating_moments(X=np.diag([0.5, 1.1]), rho=np.diag([0.25, -0.3]))
        f = decompose_covariance(m, sig)
        assert np.abs(f.a @ f.b - 0.5 * np.eye(2)).max() < 1e-10
        assert np.abs(f.b @ f.a - 0.5 * np.eye(2)).max() < 1e-10
        assert np.abs(f.a.T - eta @ f.a @ eta).max() < 1e-10
        assert np.abs(f.b.T - eta @ f.b @ eta).max() < 1e-10
        assert np.abs(f.c.T - 2.0 * eta @ f.a @ f.c @ f.b @ eta).max() < 1e-10

    def test_hbar_scaling(self):
        hbar = 0.25
        m = saturating_moments(X=[[0.5]], rho=[[0.2]], hbar=hbar)
        f = decompose_covariance(m, Signature(0, 1), hbar)
        assert np.abs(f.a @ f.b - (hbar / 2.0) * np.eye(1)).max() < 1e-12
        rebuilt = reconstruct_covariance(f, Signature(0, 1))
        assert np.abs(rebuilt - block_covariance(m)).max() < 1e-12

    def test_rejects_non_saturating(self):
        m = saturating_moments(X=[[0.5]])
        bad = StatMoments(m.mean_p, m.mean_x, 3.0 * m.P, m.X, m.rho)
        with pytest.raises(SaturationError):
            decompose_covariance(bad, Signature(0, 1))

    def test_principal_square_root_upper_half_plane(self):
        m = saturating_moments(X=[[0.9]])
        f = decompose_covariance(m, Signature(0, 1))
        assert f.a[0, 0].imag > 0.0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_root_matches_sqrtm_on_diagonal(self, rng, d):
        import scipy.linalg

        for d_plus in range(d + 1):
            sig = Signature(d_plus, d - d_plus)
            for _ in range(20):
                X = np.diag(rng.uniform(0.05, 5.0, d))
                f = decompose_covariance(saturating_moments(X=X, sig=sig), sig)
                reference = scipy.linalg.sqrtm(sig.matrix() @ X).astype(complex)
                assert np.array_equal(f.a, reference)

    @pytest.mark.parametrize("X, sig", [
        ([[0.7, 0.2, -0.1], [0.2, 0.9, 0.3], [-0.1, 0.3, 1.1]], Signature(1, 2)),
        # eta X has the eigenvalues 0.8 and -0.6 (twice) up to 1e-8
        (np.diag([0.8, 0.6, 0.6]) + 1e-8 * np.array([[0, 1, 2], [1, 0, 3], [2, 3, 1]]),
         Signature(1, 2)),
        # a rotation of diag(0.6, 0.6 + 1e-9)
        ([[0.6 + 1e-9 * np.sin(0.4) ** 2, 1e-9 * np.sin(0.4) * np.cos(0.4)],
          [1e-9 * np.sin(0.4) * np.cos(0.4), 0.6 + 1e-9 * np.cos(0.4) ** 2]], Signature(0, 2)),
    ], ids=["correlated-mixed", "near-degenerate-mixed", "near-degenerate-spatial"])
    def test_root_matches_sqrtm_correlated(self, X, sig):
        import scipy.linalg

        X = np.array(X)
        f = decompose_covariance(saturating_moments(X=X, sig=sig), sig)
        reference = scipy.linalg.sqrtm(sig.matrix() @ X)
        assert np.abs(f.a - reference).max() <= 1e-12 * np.abs(reference).max()
        assert np.abs(f.a @ f.a - sig.matrix() @ X).max() <= 1e-12 * np.abs(X).max()

    def test_mixed_signature_reconstruction(self):
        sig = Signature(1, 1)
        m = saturating_moments(X=np.diag([0.6, 0.9]), rho=np.diag([0.2, -0.3]), sig=sig)
        f = decompose_covariance(m, sig)
        # the +1 axis factor is real, the -1 axis factor imaginary
        assert abs(f.a[0, 0].imag) < 1e-12 and f.a[0, 0].real > 0.0
        assert abs(f.a[1, 1].real) < 1e-12 and f.a[1, 1].imag > 0.0
        rebuilt = reconstruct_covariance(f, sig)
        assert np.abs(rebuilt - block_covariance(m)).max() < 1e-10
