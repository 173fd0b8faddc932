import functools
import warnings

import numpy as np
import pytest

from qps import (
    InvalidInputError,
    Signature,
    StatMoments,
    build_shape,
    check_saturation,
    saturating_moments,
)
from qps.metric import ladder_root


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


class TestMomentBlockSymmetry:
    @pytest.mark.parametrize("block", ["P", "X"])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    @pytest.mark.parametrize("over", [False, True])
    def test_asymmetry_bound_is_inclusive(self, block, scale, over):
        # the bound is 1e-12 max(1, |a|max): exactly on it passes, one ulp over fails
        tol = 1e-12 * max(1.0, scale)
        blocks = {"P": scale * np.eye(2), "X": scale * np.eye(2)}
        blocks[block][0, 1] = np.nextafter(tol, 1.0) if over else tol
        make = functools.partial(StatMoments, np.zeros(2), np.zeros(2), blocks["P"],
                                 blocks["X"], np.zeros((2, 2)))
        if over:
            with pytest.raises(InvalidInputError, match=f"{block} must be symmetric"):
                make()
        else:
            assert make().dim == 2


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

    def test_nan_inverse_fails_the_identity_check(self, monkeypatch):
        nan_inv = np.array([[np.nan, 0.0], [0.0, 2.0]])
        monkeypatch.setattr(StatMoments, "x_inv", property(lambda self: nan_inv))
        with pytest.raises(InvalidInputError, match="X inversion failed the 1e-12 identity"):
            build_shape(saturating_moments(X=0.5 * np.eye(2)), Signature(0, 2), 1.0)

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
    """`metric.ladder_root`: the principal root a = sqrt(eta X) of the
    number ladder."""

    def test_uncorrelated_factors(self):
        # the root reads only X, so an uncorrelated state's ladder factor
        # on a -1 axis is i sqrt(X), purely imaginary
        m = saturating_moments(X=[[0.5]])
        a = ladder_root(m.X, Signature(0, 1))
        assert a[0, 0] == pytest.approx(1j * np.sqrt(0.5), abs=1e-12)
        assert a[0, 0].real == 0.0

    def test_principal_square_root_upper_half_plane(self):
        # a -1 axis roots to +i sqrt(X), never -i sqrt(X)
        for x in (0.5, 0.9):
            assert ladder_root(np.array([[x]]), Signature(0, 1))[0, 0] == pytest.approx(
                1j * np.sqrt(x), abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_root_matches_sqrtm_on_diagonal(self, rng, d):
        import scipy.linalg

        for d_plus in range(d + 1):
            sig = Signature(d_plus, d - d_plus)
            for _ in range(20):
                X = np.diag(rng.uniform(0.05, 5.0, d))
                reference = scipy.linalg.sqrtm(sig.matrix() @ X).astype(complex)
                assert np.array_equal(ladder_root(X, sig), reference)

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
        a = ladder_root(X, sig)
        reference = scipy.linalg.sqrtm(sig.matrix() @ X)
        assert np.abs(a - reference).max() <= 1e-12 * np.abs(reference).max()
        assert np.abs(a @ a - sig.matrix() @ X).max() <= 1e-12 * np.abs(X).max()

    def test_mixed_signature_reconstruction(self):
        sig = Signature(1, 1)
        X = np.diag([0.6, 0.9])
        a = ladder_root(X, sig)
        # the +1 axis factor is real, the -1 axis factor imaginary
        assert abs(a[0, 0].imag) < 1e-12 and a[0, 0].real > 0.0
        assert abs(a[1, 1].real) < 1e-12 and a[1, 1].imag > 0.0
        assert np.abs(a @ a - sig.matrix() @ X).max() < 1e-12
