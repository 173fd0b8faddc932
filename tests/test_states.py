import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qps import (
    CoordinateGrid,
    CoverageError,
    GaugeChoice,
    InvalidInputError,
    JointStateSpec,
    SaturationError,
    Signature,
    analytic_overlap,
    apply_momentum,
    apply_position,
    check_saturation,
    coordinate_wavefunction,
    inner_product,
    moments,
    momentum_transform,
    momentum_wavefunction,
    saturating_moments,
    z_eigencheck,
)
from qps.metric import StatMoments
from qps.states import apply_z
from conftest import random_correlated_spec


class TestSpecValidation:
    def test_rejects_non_saturating(self):
        m = saturating_moments(X=[[0.5]])
        bad = StatMoments(m.mean_p, m.mean_x, 2.0 * m.P, m.X, m.rho)
        with pytest.raises(SaturationError):
            JointStateSpec(moments=bad, signature=Signature(0, 1))

    def test_json_round_trip(self, rng):
        spec = random_correlated_spec(rng, gauge=GaugeChoice("half"))
        back = JointStateSpec.from_dict(spec.to_dict())
        assert np.allclose(back.moments.X, spec.moments.X)
        assert np.allclose(back.moments.P, spec.moments.P)
        assert back.gauge == spec.gauge
        assert back.signature == spec.signature

    def test_rho_eta_s_x_is_a_pure_gaussian(self):
        # eta rho X^-1 = S is symmetric, so the exponent is symmetric and the
        # sampled state is an eigenstate of z
        X = np.array([[0.5, 0.1], [0.1, 0.8]])
        S = np.array([[0.3, 0.1], [0.1, -0.25]])
        spec = JointStateSpec.from_covariance(X=X, rho=-S @ X)
        assert check_saturation(spec.moments, spec.signature) < 1e-15
        assert z_eigencheck(spec, CoordinateGrid.square(-12.0, 12.0, 256)) < 1e-7

    def test_rejects_asymmetric_exponent(self):
        # saturates P, but eta rho X^-1 is not symmetric: no pure Gaussian has
        # these moments (one symplectic eigenvalue is below hbar/2)
        with pytest.raises(SaturationError, match="2.96"):
            JointStateSpec.from_covariance(X=[[0.5, 0.1], [0.1, 0.8]], rho=np.diag([0.2, 0.0]))

    def test_mean_z_is_the_eigenvalue_label(self, ground_spec):
        spec = ground_spec.displaced([0.25], [1.5])
        # spatial axis: <z> = <p> - (2i/hbar) B <x>
        expected = 0.25 - 2j * spec.shape.matrix[0, 0] * 1.5
        assert spec.mean_z[0] == pytest.approx(expected)

    def test_equality_of_family_is_by_moments_not_label(self, ground_spec):
        # two different covariances can alias the same mean_z value; the
        # spec never keys on the label
        a = ground_spec.displaced([0.0], [1.0])
        b = JointStateSpec.from_covariance(X=[[0.25]], mean_p=[0.0], mean_x=[0.5])
        assert a.mean_z[0] == pytest.approx(b.mean_z[0])
        assert not np.allclose(a.moments.X, b.moments.X)


class TestCoordinateWavefunction:
    def test_ground_peak_value(self, ground_spec, line_grid):
        psi = coordinate_wavefunction(ground_spec, line_grid)
        i0 = np.argmin(np.abs(line_grid.axis_points(0)))
        assert psi.values[i0].real == pytest.approx(np.pi**-0.25, abs=1e-12)
        assert psi.norm() == pytest.approx(1.0, abs=1e-9)

    def test_translation_moves_peak(self, ground_spec, line_grid):
        psi = coordinate_wavefunction(ground_spec.displaced([0.0], [1.0]), line_grid)
        x = line_grid.axis_points(0)
        assert x[np.argmax(np.abs(psi.values))] == pytest.approx(1.0, abs=line_grid.spacings[0])

    def test_translation_covariance_of_samples(self, ground_spec, line_grid):
        # shifting <x> by an integer number of cells rolls |psi| exactly
        delta = 64 * line_grid.spacings[0]
        base = coordinate_wavefunction(ground_spec, line_grid)
        shifted = coordinate_wavefunction(ground_spec.displaced([0.0], [delta]), line_grid)
        assert np.abs(
            np.abs(shifted.values) - np.roll(np.abs(base.values), 64)
        ).max() < 1e-12

    def test_measured_moments_match_spec(self, wide_grid, rng):
        for _ in range(5):
            spec = random_correlated_spec(rng)
            m = moments(coordinate_wavefunction(spec, wide_grid))
            assert m.mean_x[0] == pytest.approx(spec.moments.mean_x[0], abs=1e-8)
            assert m.mean_p[0] == pytest.approx(spec.moments.mean_p[0], abs=1e-8)
            assert m.X[0, 0] == pytest.approx(spec.moments.X[0, 0], abs=1e-8)
            assert m.P[0, 0] == pytest.approx(spec.moments.P[0, 0], abs=1e-8)
            assert m.rho[0, 0] == pytest.approx(spec.moments.rho[0, 0], abs=1e-8)
            assert check_saturation(m, spec.signature) < 1e-8

    def test_coverage_rejected(self, ground_spec):
        grid = CoordinateGrid.line(-2.0, 2.0, 128)
        with pytest.raises(CoverageError):
            coordinate_wavefunction(ground_spec.displaced([0.0], [1.5]), grid)

    @pytest.mark.parametrize("gauge", [GaugeChoice("zero"), GaugeChoice("full")])
    def test_overflowing_momentum_mean_rejected(self, ground_spec, line_grid, gauge):
        # the phase <p> x / hbar overflows; no numpy warning precedes the error
        spec = dataclasses.replace(ground_spec.displaced([1e308], [1.5]), gauge=gauge)
        with pytest.raises(InvalidInputError, match="non-finite wavefunction samples"):
            coordinate_wavefunction(spec, line_grid)

    def test_gauge_phase_is_global(self, line_grid):
        spec0 = JointStateSpec.from_covariance(X=[[0.5]], mean_p=[0.7], mean_x=[0.9])
        spec_full = dataclasses.replace(spec0, gauge=GaugeChoice("full"))
        a = coordinate_wavefunction(spec0, line_grid)
        b = coordinate_wavefunction(spec_full, line_grid)
        expected = np.exp(1j * (-0.7 * 0.9))  # K_full = -<p><x>/hbar on a spatial axis
        assert np.abs(b.values - expected * a.values).max() < 1e-12


class TestMomentumWavefunction:
    def test_matches_fast_transform(self, line_grid, rng):
        for _ in range(5):
            spec = random_correlated_spec(rng, gauge=GaugeChoice("half"))
            psi = coordinate_wavefunction(spec, line_grid)
            via_fft = momentum_transform(psi)
            closed = momentum_wavefunction(spec, via_fft.grid)
            assert np.abs(via_fft.values - closed.values).max() < 1e-9

    def test_ground_momentum_profile(self, ground_spec, line_grid):
        phi = momentum_wavefunction(ground_spec, momentum_transform(
            coordinate_wavefunction(ground_spec, line_grid)).grid)
        p = phi.grid.axis_points(0)
        i0 = np.argmin(np.abs(p))
        assert abs(phi.values[i0]) == pytest.approx(np.pi**-0.25, abs=1e-12)

    def test_peak_at_mean_momentum(self, line_grid):
        spec = JointStateSpec.from_covariance(X=[[0.5]], mean_p=[1.25])
        phi = momentum_wavefunction(
            spec, momentum_transform(coordinate_wavefunction(spec, line_grid)).grid
        )
        p = phi.grid.axis_points(0)
        assert p[np.argmax(np.abs(phi.values))] == pytest.approx(1.25, abs=phi.grid.spacings[0])

    def test_parseval(self, ground_spec, line_grid):
        grid = momentum_transform(coordinate_wavefunction(ground_spec, line_grid)).grid
        assert momentum_wavefunction(ground_spec, grid).norm() == pytest.approx(1.0, abs=1e-9)

    def test_two_axis_matches_transform(self):
        spec = JointStateSpec.from_covariance(
            X=np.diag([0.5, 0.8]), rho=np.diag([0.2, -0.1]),
            mean_p=[0.3, -0.4], mean_x=[0.5, 0.2],
        )
        grid = CoordinateGrid.square(-12.0, 12.0, 256)
        via_fft = momentum_transform(coordinate_wavefunction(spec, grid))
        closed = momentum_wavefunction(spec, via_fft.grid)
        assert np.abs(via_fft.values - closed.values).max() < 1e-9


class TestZEigencheck:
    def test_valid_specs_are_eigenstates(self, line_grid, rng):
        for _ in range(5):
            spec = random_correlated_spec(rng)
            assert z_eigencheck(spec, line_grid) <= 1e-7

    def test_detects_perturbed_shape(self, ground_spec, line_grid):
        # rebuilding the annihilating combination with 1.1 B leaves an O(0.1)
        # residual: the state is no longer an eigenvector
        spec = ground_spec
        psi = coordinate_wavefunction(spec, line_grid)
        bad_B = 1.1 * spec.shape.matrix[0, 0]
        sign = spec.signature.signs[0]
        z_psi = apply_momentum(psi, 0).values + (2j / spec.hbar) * bad_B * sign \
            * apply_position(psi, 0).values
        eig = spec.moments.mean_p[0] + (2j / spec.hbar) * bad_B * sign * spec.moments.mean_x[0]
        res = np.sqrt(np.sum(np.abs(z_psi - eig * psi.values) ** 2)
                      * line_grid.cell_volume)
        assert res >= 1e-3

    def test_two_axis_diagonal(self):
        grid = CoordinateGrid.square(-12.0, 12.0, 256)
        spec = JointStateSpec.from_covariance(
            X=np.diag([0.5, 0.9]), rho=np.diag([0.2, 0.0]), mean_x=[0.4, -0.2]
        )
        assert z_eigencheck(spec, grid) <= 1e-7

    def test_plus_axis(self, line_grid):
        spec = JointStateSpec.from_covariance(
            X=[[0.5]], mean_p=[0.4], signature=Signature(1, 0)
        )
        assert z_eigencheck(spec, line_grid) <= 1e-7

    def test_mixed_signature_two_axis(self):
        grid = CoordinateGrid.square(-12.0, 12.0, 256)
        spec = JointStateSpec.from_covariance(
            X=np.diag([0.6, 0.9]), rho=np.diag([0.2, -0.3]),
            mean_p=[0.3, -0.1], mean_x=[0.2, 0.4], signature=Signature(1, 1),
        )
        psi = coordinate_wavefunction(spec, grid)
        assert psi.norm() == pytest.approx(1.0, abs=1e-9)
        m = moments(psi)
        assert np.allclose(m.mean_p, spec.moments.mean_p, atol=1e-8)
        assert np.allclose(m.rho, spec.moments.rho, atol=1e-8)
        assert check_saturation(m, spec.signature) < 1e-8
        assert z_eigencheck(spec, grid) <= 1e-7


class TestZAdjoint:
    """<phi, z psi> = <z^dagger phi, psi> on the grid, for shape matrices
    with complex entries (so z^dagger is not z)."""

    @pytest.mark.parametrize("spec, grid", [
        (JointStateSpec.from_covariance(X=[[0.7]], rho=[[0.35]], mean_p=[0.6], mean_x=[-0.8]),
         CoordinateGrid.line(-12.0, 12.0, 1024)),
        # rho = eta S X with S symmetric, so that eta rho X^-1 is symmetric
        (JointStateSpec.from_covariance(
            X=[[0.6, 0.15], [0.15, 0.9]],
            rho=np.diag([1.0, -1.0]) @ np.array([[0.3, 0.1], [0.1, -0.25]])
            @ [[0.6, 0.15], [0.15, 0.9]],
            mean_p=[0.3, -0.1], mean_x=[0.2, 0.4], signature=Signature(1, 1)),
         CoordinateGrid.square(-12.0, 12.0, 128)),
    ], ids=["correlated_one_axis", "mixed_signature_two_axis"])
    def test_adjoint_identity(self, spec, grid):
        assert np.abs(spec.shape.matrix.imag).min() > 0.0
        psi = coordinate_wavefunction(spec, grid)
        phi = coordinate_wavefunction(
            spec.displaced(spec.moments.mean_p + 0.5, spec.moments.mean_x - 0.7), grid)
        for mu in range(spec.dim):
            lhs = inner_product(phi, apply_z(spec, psi, mu))
            assert lhs == pytest.approx(
                inner_product(apply_z(spec, phi, mu, adjoint=True), psi), abs=1e-12)
            # and the adjoint differs from z itself
            assert abs(lhs - inner_product(apply_z(spec, phi, mu), psi)) > 0.1


class TestAnalyticOverlap:
    def test_identical_specs(self, ground_spec):
        assert analytic_overlap(ground_spec, ground_spec) == pytest.approx(1.0)

    @pytest.mark.parametrize("rel, ok", [(0.5e-12, True), (2e-12, False)])
    def test_covariances_match_within_1e_12_relative(self, rel, ok):
        a = JointStateSpec.from_covariance(X=[[0.5]])
        b = JointStateSpec.from_covariance(X=[[0.5 * (1.0 + rel)]])
        if ok:
            assert abs(analytic_overlap(a, b)) == pytest.approx(1.0)
        else:
            with pytest.raises(InvalidInputError, match="identical covariance blocks"):
                analytic_overlap(a, b)

    def test_displaced_pair_value(self, ground_spec):
        a = ground_spec.displaced([0.0], [1.0])
        b = ground_spec.displaced([0.0], [-1.0])
        ov = analytic_overlap(a, b)
        assert ov == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert abs(ov.imag) < 1e-15

    def test_modulus_bounded(self, ground_spec, rng):
        for _ in range(50):
            a = ground_spec.displaced([rng.uniform(-3, 3)], [rng.uniform(-3, 3)])
            b = ground_spec.displaced([rng.uniform(-3, 3)], [rng.uniform(-3, 3)])
            assert abs(analytic_overlap(a, b)) <= 1.0 + 1e-15

    def test_zero_gauge_phase_matches_quadrature(self, ground_spec, line_grid, rng):
        worst = 0.0
        for _ in range(30):
            a = ground_spec.displaced([rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
            b = ground_spec.displaced([rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
            quad = inner_product(
                coordinate_wavefunction(a, line_grid), coordinate_wavefunction(b, line_grid)
            )
            worst = max(worst, abs(quad - analytic_overlap(a, b)))
        assert worst < 1e-8

    def test_nonzero_gauge_matches_when_included(self, line_grid):
        # gauges shift the overlap phase by K_b - K_a; the formula tracks it
        base = JointStateSpec.from_covariance(X=[[0.5]], gauge=GaugeChoice("half"))
        a = base.displaced([0.7], [0.4])
        b = base.displaced([-0.5], [1.1])
        quad = inner_product(
            coordinate_wavefunction(a, line_grid), coordinate_wavefunction(b, line_grid)
        )
        assert abs(quad - analytic_overlap(a, b)) < 1e-10

    def test_zero_gauge_is_the_bare_formula(self, line_grid):
        # the bare closed form (no gauge factor) coincides with quadrature
        # only in the zero gauge; pin that empirically
        for gauge, should_match in ((GaugeChoice("zero"), True), (GaugeChoice("full"), False)):
            base = JointStateSpec.from_covariance(X=[[0.5]], gauge=gauge)
            a = base.displaced([0.7], [0.4])
            b = base.displaced([-0.5], [1.1])
            dp = a.moments.mean_p[0] - b.moments.mean_p[0]
            dx = a.moments.mean_x[0] - b.moments.mean_x[0]
            sx = a.moments.mean_x[0] + b.moments.mean_x[0]
            bare = np.exp(
                -dp**2 / (8 * a.moments.P[0, 0])
                - dx**2 / (8 * a.moments.X[0, 0])
                - 1j * dp * sx / 2.0
            )
            quad = inner_product(
                coordinate_wavefunction(a, line_grid),
                coordinate_wavefunction(b, line_grid),
            )
            assert (abs(quad - bare) < 1e-10) == should_match

    def test_correlated_covariance_rejected(self, rng):
        spec = JointStateSpec.from_covariance(X=[[0.5]], rho=[[0.3]])
        with pytest.raises(InvalidInputError):
            analytic_overlap(spec, spec.displaced([0.1], [0.2]))

    def test_covariance_mismatch_rejected(self, ground_spec):
        other = JointStateSpec.from_covariance(X=[[0.8]])
        with pytest.raises(InvalidInputError):
            analytic_overlap(ground_spec, other)

    def test_every_gauge_pair_matches_quadrature(self, line_grid, rng):
        # each state carries its own exp(iK), so specs in different gauges overlap too
        gauges = (GaugeChoice("zero"), GaugeChoice("full"), GaugeChoice("half"))
        for ga in gauges:
            for gb in gauges:
                for _ in range(5):
                    a = JointStateSpec.from_covariance(X=[[0.5]], gauge=ga).displaced(
                        [rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
                    b = JointStateSpec.from_covariance(X=[[0.5]], gauge=gb).displaced(
                        [rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
                    quad = inner_product(coordinate_wavefunction(a, line_grid),
                                         coordinate_wavefunction(b, line_grid))
                    assert abs(quad - analytic_overlap(a, b)) < 1e-10, (ga.kind, gb.kind)

    def test_two_axis_product(self):
        base = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        a = base.displaced([0.0, 0.0], [1.0, 1.0])
        b = base.displaced([0.0, 0.0], [-1.0, -1.0])
        assert analytic_overlap(a, b) == pytest.approx(np.exp(-2.0), abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(
        st.floats(0.1, 2.0),
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    )
    def test_overlap_kernel_properties(self, X, za, zb):
        base = JointStateSpec.from_covariance(X=[[X]])
        a = base.displaced([za[0]], [za[1]])
        b = base.displaced([zb[0]], [zb[1]])
        ov = analytic_overlap(a, b)
        assert abs(ov) <= 1.0 + 1e-12
        assert analytic_overlap(a, a) == pytest.approx(1.0)
        assert analytic_overlap(b, a) == pytest.approx(np.conj(ov), abs=1e-14)


def loop_wavefunctions(spec, grid, dual):
    """The double-loop quadratic forms and phase sums the einsums replaced."""
    signs, hbar, d = spec.signature.signs, spec.hbar, spec.dim
    mesh = grid.meshgrid()
    norm = ((2.0 * np.pi) ** d * abs(np.linalg.det(spec.moments.X))) ** -0.25
    xi = [mesh[mu] - spec.moments.mean_x[mu] for mu in range(d)]
    quad = np.zeros(grid.shape, dtype=complex)
    for mu in range(d):
        for nu in range(d):
            quad += spec.shape.exponent[mu, nu] * xi[mu] * xi[nu]
    phase = np.zeros(grid.shape)
    for mu in range(d):
        phase -= signs[mu] * spec.moments.mean_p[mu] * mesh[mu] / hbar
    coord = norm * np.exp(-quad / hbar**2 + 1j * (phase + spec.gauge_phase()))
    mesh = dual.meshgrid()
    M = spec.shape.exponent / hbar**2
    M_inv = np.linalg.inv(M)
    pref = norm * (2.0 * np.pi * hbar) ** (-d / 2.0) * np.sqrt(np.pi**d / np.linalg.det(M))
    dp = [signs[mu] * (mesh[mu] - spec.moments.mean_p[mu]) for mu in range(d)]
    quad = np.zeros(dual.shape, dtype=complex)
    for mu in range(d):
        for nu in range(d):
            quad += M_inv[mu, nu] * dp[mu] * dp[nu]
    phase = np.zeros(dual.shape)
    for mu in range(d):
        phase += dp[mu] * spec.moments.mean_x[mu] / hbar
    mom = pref * np.exp(-quad / (4.0 * hbar**2) + 1j * (phase + spec.gauge_phase()))
    return coord, mom


class TestQuadraticForms:
    @pytest.mark.parametrize("spec", [
        JointStateSpec.from_covariance(X=[[0.6]], rho=[[0.3]], mean_p=[0.4], mean_x=[-0.7],
                                       gauge=GaugeChoice("full"), hbar=0.8),
        # rho = eta S X with S symmetric and eta = -1
        JointStateSpec.from_covariance(X=[[0.5, 0.1], [0.1, 0.4]],
                                       rho=-np.array([[0.3, 0.08], [0.08, -0.2]])
                                       @ [[0.5, 0.1], [0.1, 0.4]],
                                       mean_p=[0.4, -0.3], mean_x=[-0.7, 0.5],
                                       gauge=GaugeChoice("half"), hbar=0.8),
    ], ids=["one-axis", "two-axis-correlated"])
    def test_match_the_double_loops(self, spec):
        grid = CoordinateGrid.line() if spec.dim == 1 else CoordinateGrid.square()
        dual = grid.dual(spec.hbar)
        coord, mom = loop_wavefunctions(spec, grid, dual)
        # same products, summed in the same order: equal to a few ulps of the peak
        for got, want in [(coordinate_wavefunction(spec, grid).values, coord),
                          (momentum_wavefunction(spec, dual).values, mom)]:
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()
