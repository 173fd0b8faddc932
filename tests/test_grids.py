import numpy as np
import pytest

from qps import (
    CoordinateGrid,
    CoverageError,
    GridAxis,
    GridWavefunction,
    InvalidInputError,
    JointStateSpec,
    Signature,
    apply_momentum,
    apply_position,
    coordinate_wavefunction,
    inner_product,
    inverse_momentum_transform,
    moments,
    momentum_transform,
    read_wavefunction,
    write_wavefunction,
)
from conftest import random_correlated_spec


def gaussian(grid, x0=0.0, p0=0.0, X=0.5, hbar=1.0):
    spec = JointStateSpec.from_covariance(X=[[X]], mean_p=[p0], mean_x=[x0], hbar=hbar)
    return coordinate_wavefunction(spec, grid)


class TestGridTypes:
    def test_power_of_two_required(self):
        with pytest.raises(InvalidInputError):
            GridAxis(-1.0, 1.0, 1000)

    def test_ordering_required(self):
        with pytest.raises(InvalidInputError):
            GridAxis(1.0, -1.0, 64)

    def test_budget(self):
        with pytest.raises(InvalidInputError):
            CoordinateGrid(axes=((-1, 1, 2**13), (-1, 1, 2**13)))

    def test_three_axes_unsupported(self):
        with pytest.raises(InvalidInputError):
            CoordinateGrid(axes=((-1, 1, 64),) * 3)

    def test_spacing_uniform(self):
        ax = GridAxis(-12.0, 12.0, 1024)
        pts = ax.points()
        assert ax.spacing == pytest.approx(24.0 / 1024)
        assert np.allclose(np.diff(pts), ax.spacing)

    def test_values_shape_checked(self, line_grid):
        with pytest.raises(InvalidInputError):
            GridWavefunction(line_grid, np.zeros(8))


class TestMomentumTransform:
    def test_gaussian_width_pair(self, line_grid):
        psi = gaussian(line_grid, X=0.5)
        phi = momentum_transform(psi)
        m = moments(phi)
        # widths trade as hbar^2/(4 sigma_x^2)
        assert m.X[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_narrow_state_broad_transform_parseval(self, line_grid):
        psi = gaussian(line_grid, X=0.01)
        phi = momentum_transform(psi)
        assert phi.norm() == pytest.approx(1.0, abs=1e-12)
        assert moments(phi).X[0, 0] == pytest.approx(25.0, rel=1e-8)

    def test_round_trip(self, line_grid, rng):
        spec = random_correlated_spec(rng)
        psi = coordinate_wavefunction(spec, line_grid)
        back = inverse_momentum_transform(momentum_transform(psi), line_grid)
        assert np.abs(back.values - psi.values).max() < 1e-10

    def test_unitarity_random_states(self, line_grid, rng):
        for _ in range(100):
            spec = random_correlated_spec(rng)
            psi = coordinate_wavefunction(spec, line_grid)
            assert abs(momentum_transform(psi).norm() - psi.norm()) < 1e-12

    def test_coarse_grid_rejected(self):
        grid = CoordinateGrid.line(-12.0, 12.0, 64)
        # sigma_p ~ 11 > Nyquist/6; coordinate_wavefunction refuses to
        # sample such a state, so the aliased samples are built directly
        x = grid.axis_points(0)
        psi = GridWavefunction(grid, (2 * np.pi * 0.002) ** -0.25 * np.exp(-x**2 / 0.008))
        with pytest.raises(CoverageError):
            momentum_transform(psi)

    def test_coverage_edges_are_inclusive(self):
        from qps.grids import check_coverage

        check_coverage("axis", -2.0, 4.0, 1.0, 3.0)  # exactly [-2, 4]: covered
        for lo, hi in [(-1.5, 4.0), (-2.0, 3.5)]:
            with pytest.raises(CoverageError, match=r"axis \[.*\] does not cover \[-2, 4\]"):
                check_coverage("axis", lo, hi, 1.0, 3.0)


class TestOperators:
    def test_momentum_mean_of_modulated_gaussian(self, line_grid):
        psi = gaussian(line_grid, p0=1.7)
        pv = apply_momentum(psi, 0)
        mean = np.real(inner_product(psi, pv))
        assert mean == pytest.approx(1.7, abs=1e-10)

    def test_even_real_state_zero_momentum(self, line_grid):
        psi = gaussian(line_grid)
        mean = np.real(inner_product(psi, apply_momentum(psi, 0)))
        assert abs(mean) < 1e-12

    def test_canonical_commutator(self, line_grid, rng):
        for _ in range(20):
            spec = random_correlated_spec(rng)
            psi = coordinate_wavefunction(spec, line_grid)
            px = inner_product(psi, apply_momentum(apply_position(psi, 0), 0))
            xp = inner_product(psi, apply_position(apply_momentum(psi, 0), 0))
            # [p, x] = -i hbar on a spatial axis
            assert abs((px - xp) - (-1j)) < 1e-8

    def test_plus_axis_commutator(self, line_grid):
        spec = JointStateSpec.from_covariance(X=[[0.5]], signature=Signature(1, 0))
        psi = coordinate_wavefunction(spec, line_grid)
        px = inner_product(psi, apply_momentum(apply_position(psi, 0), 0))
        xp = inner_product(psi, apply_position(apply_momentum(psi, 0), 0))
        assert abs((px - xp) - 1j) < 1e-8

    def test_axis_out_of_range(self, line_grid):
        psi = gaussian(line_grid)
        with pytest.raises(InvalidInputError):
            apply_momentum(psi, 1)


class TestMoments:
    def test_construction_parameters_recovered(self, line_grid):
        psi = gaussian(line_grid, x0=1.0, p0=0.0, X=0.5)
        m = moments(psi)
        assert m.mean_x[0] == pytest.approx(1.0, abs=1e-8)
        assert m.mean_p[0] == pytest.approx(0.0, abs=1e-8)
        assert m.X[0, 0] == pytest.approx(0.5, abs=1e-8)
        assert m.P[0, 0] == pytest.approx(0.5, abs=1e-8)
        assert abs(m.rho[0, 0]) < 1e-8

    def test_even_real_state_uncorrelated(self, line_grid):
        m = moments(gaussian(line_grid, X=0.8))
        assert abs(m.rho[0, 0]) < 1e-10

    def test_kennard_bound_random_states(self, wide_grid, rng):
        from qps.verify import _random_states

        for psi in _random_states(rng, wide_grid, 1.0, 100):
            m = moments(psi)
            assert np.sqrt(m.X[0, 0] * m.P[0, 0]) >= 0.5 - 1e-8

    def test_determinant_floor_random_states(self, wide_grid, rng):
        # the covariance determinant P X - rho^2 never dips below hbar^2/4
        from qps import uncertainty_determinant
        from qps.verify import _random_states

        for psi in _random_states(rng, wide_grid, 1.0, 100):
            m = moments(psi)
            rep = uncertainty_determinant(m.P[0, 0], m.X[0, 0], m.rho[0, 0])
            assert rep.determinant >= rep.bound - 1e-8
            assert not rep.violated

    def test_cross_axis_commutators_vanish(self):
        grid = CoordinateGrid.square(-12.0, 12.0, 256)
        spec = JointStateSpec.from_covariance(
            X=np.diag([0.5, 0.8]), mean_x=[0.3, -0.2], mean_p=[0.5, 0.1]
        )
        psi = coordinate_wavefunction(spec, grid)
        for mu, nu in ((0, 1), (1, 0)):
            px = inner_product(psi, apply_momentum(apply_position(psi, nu), mu))
            xp = inner_product(psi, apply_position(apply_momentum(psi, mu), nu))
            assert abs(px - xp) < 1e-8
        pp = inner_product(psi, apply_momentum(apply_momentum(psi, 1), 0))
        pp2 = inner_product(psi, apply_momentum(apply_momentum(psi, 0), 1))
        assert abs(pp - pp2) < 1e-8

    def test_requires_normalization(self, line_grid):
        psi = gaussian(line_grid)
        with pytest.raises(InvalidInputError):
            moments(psi.with_values(2.0 * psi.values))

    def test_refinement_stability(self, rng):
        coarse = CoordinateGrid.line(-12.0, 12.0, 1024)
        fine = CoordinateGrid.line(-12.0, 12.0, 2048)
        spec = random_correlated_spec(rng)
        mc = moments(coordinate_wavefunction(spec, coarse))
        mf = moments(coordinate_wavefunction(spec, fine))
        for a, b in ((mc.X, mf.X), (mc.P, mf.P), (mc.rho, mf.rho)):
            assert np.abs(a - b).max() < 1e-6

    def test_two_axis_moments(self):
        grid = CoordinateGrid.square(-12.0, 12.0, 256)
        spec = JointStateSpec.from_covariance(
            X=np.diag([0.5, 0.8]), mean_x=[0.5, -0.25]
        )
        m = moments(coordinate_wavefunction(spec, grid))
        assert np.allclose(m.mean_x, [0.5, -0.25], atol=1e-8)
        assert np.allclose(m.X, np.diag([0.5, 0.8]), atol=1e-8)
        assert np.allclose(m.P, np.diag([0.5, 0.3125]), atol=1e-8)


class TestInnerProduct:
    def test_self_inner_product_is_one(self, line_grid):
        psi = gaussian(line_grid)
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_hermite_pair(self, line_grid, ground_spec):
        from qps import TruncatedBasis, grid_number_states

        states = grid_number_states(TruncatedBasis((2,), ground_spec), line_grid)
        assert abs(inner_product(states[0], states[1])) < 1e-10

    def test_swap_conjugates(self, line_grid):
        a = gaussian(line_grid, x0=0.4, p0=0.7)
        b = gaussian(line_grid, x0=-0.3, p0=0.2)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_grid_mismatch(self, line_grid):
        other = CoordinateGrid.line(-12.0, 12.0, 512)
        with pytest.raises(InvalidInputError):
            inner_product(gaussian(line_grid), gaussian(other))


class TestIo:
    def test_csv_round_trip(self, tmp_path, line_grid, rng):
        spec = random_correlated_spec(rng)
        psi = coordinate_wavefunction(spec, line_grid)
        path = tmp_path / "wf.csv"
        write_wavefunction(psi, path)
        back = read_wavefunction(path)
        assert back.grid == psi.grid
        assert back.hbar == psi.hbar
        assert np.abs(back.values - psi.values).max() < 1e-11

    def test_two_axis_round_trip(self, tmp_path):
        grid = CoordinateGrid.square(-10.0, 10.0, 64)
        spec = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        psi = coordinate_wavefunction(spec, grid)
        path = tmp_path / "wf2.csv"
        write_wavefunction(psi, path)
        back = read_wavefunction(path)
        assert np.abs(back.values - psi.values).max() < 1e-11

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInputError):
            read_wavefunction(tmp_path / "nope.csv")


class TestGridBudgets:
    def test_axis_product_does_not_overflow(self):
        from qps import PhaseGrid

        with pytest.raises(InvalidInputError, match="budget"):
            CoordinateGrid(((0.0, 1.0, 2**40), (0.0, 1.0, 2**40)))
        with pytest.raises(InvalidInputError, match="budget"):
            PhaseGrid(((0.0, 1.0, 2**31, 0.0, 1.0, 2**31),) * 2)

    @pytest.mark.parametrize("bounds", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0),
                                        (-1e308, 1e308)])
    def test_non_finite_ranges_rejected(self, bounds):
        from qps import PhasePair

        with pytest.raises(InvalidInputError):
            GridAxis(*bounds, 64)
        with pytest.raises(InvalidInputError):
            PhasePair(*bounds, 32, -1.0, 1.0, 32)
