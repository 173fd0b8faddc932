import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qps import phasespace
from qps import (
    CoordinateGrid,
    CoverageError,
    GridWavefunction,
    InvalidInputError,
    JointStateSpec,
    PhaseGrid,
    PhasePair,
    TruncatedBasis,
    UnsupportedError,
    analytic_overlap,
    closure_reconstruct,
    coordinate_wavefunction,
    grid_number_states,
    husimi_distribution,
    microstate_hypervolume,
    number_state,
    phase_wavefunction,
    wigner_distribution,
    write_distribution,
)

H = 2.0 * np.pi


@pytest.fixture(scope="module")
def spec():
    return JointStateSpec.from_covariance(X=[[0.5]])


@pytest.fixture(scope="module")
def grid():
    return CoordinateGrid.line(-16.0, 16.0, 1024)


@pytest.fixture(scope="module")
def pgrid():
    return PhaseGrid.symmetric(10.0, 128)


def superposition(grid, spec, seed=7, n_top=3):
    basis = TruncatedBasis((n_top + 1,), spec)
    states = grid_number_states(basis, grid)
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n_top + 1) + 1j * rng.normal(size=n_top + 1)
    c /= np.linalg.norm(c)
    psi = GridWavefunction(grid, sum(ci * s.values for ci, s in zip(c, states)), spec.hbar)
    return psi.with_values(psi.values / psi.norm())


class TestPhaseGridTypes:
    def test_minimum_resolution(self):
        # an axis needs two points for a spacing; past that only the budget counts
        for n_p, n_x in ((1, 128), (128, 1), (0, 2)):
            with pytest.raises(InvalidInputError, match="at least 2 points"):
                PhasePair(-8, 8, n_p, -8, 8, n_x)
        assert PhasePair(-8, 8, 2, -8, 8, 2).p_points().tolist() == [-4.0, 4.0]

    def test_any_number_of_pairs_within_budget(self):
        assert PhaseGrid.symmetric(8.0, 16, npairs=3).shape == (16,) * 6  # 2^24 samples
        with pytest.raises(InvalidInputError, match="budget"):
            PhaseGrid((PhasePair(-8, 8, 32, -8, 8, 16),) + (PhasePair(-8, 8, 16, -8, 8, 16),) * 2)
        with pytest.raises(InvalidInputError, match="at least one pair"):
            PhaseGrid(())

    def test_midpoint_samples(self):
        pair = PhasePair(-8, 8, 32, -8, 8, 32)
        pts = pair.p_points()
        assert pts[0] == pytest.approx(-8 + 0.25)
        assert pts[-1] == pytest.approx(8 - 0.25)

    def test_measure(self):
        pg = PhaseGrid.symmetric(8.0, 64)
        assert pg.measure(1.0) == pytest.approx((16 / 64) ** 2 / (2 * np.pi))


class TestPhaseWavefunction:
    def test_unit_peak_at_matching_point(self, spec, grid):
        # sample exactly on a midpoint cell so the matching family state is hit
        pg = PhaseGrid.symmetric(8.0, 128)
        pair = pg.pairs[0]
        q0 = pair.p_points()[64]
        y0 = pair.x_points()[80]
        psi = coordinate_wavefunction(spec.displaced([q0], [y0]), grid)
        pw = phase_wavefunction(psi, spec, pg)
        assert abs(pw.values[64, 80]) == pytest.approx(1.0, abs=1e-9)

    def test_matches_analytic_overlap_pointwise(self, spec, grid):
        psi_spec = spec.displaced([0.4], [0.9])
        psi = coordinate_wavefunction(psi_spec, grid)
        pw = phase_wavefunction(psi, spec, PhaseGrid.symmetric(8.0, 64))
        pair = pw.grid.pairs[0]
        worst = 0.0
        for j in range(0, 64, 7):
            for k in range(0, 64, 7):
                fam = spec.displaced([pair.p_points()[j]], [pair.x_points()[k]])
                expect = analytic_overlap(fam, psi_spec)
                worst = max(worst, abs(pw.values[j, k] - expect))
        assert worst < 1e-8

    def test_normalization(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec.displaced([0.5], [-0.7]), grid)
        pw = phase_wavefunction(psi, spec, pgrid)
        assert pw.norm_squared() == pytest.approx(1.0, abs=1e-3)

    def test_coverage_failure(self, spec, grid):
        psi = coordinate_wavefunction(spec.displaced([0.0], [6.0]), grid)
        with pytest.raises(CoverageError):
            phase_wavefunction(psi, spec, PhaseGrid.symmetric(8.0, 64))

    def test_entangled_family_rejected_for_two_pairs(self):
        # a non-factorized analyzing covariance has no separable window
        family = JointStateSpec.from_covariance(X=[[0.5, 0.2], [0.2, 0.5]])
        grid2 = CoordinateGrid.square(-12.0, 12.0, 128)
        psi = coordinate_wavefunction(family, grid2)
        with pytest.raises(UnsupportedError):
            phase_wavefunction(psi, family, PhaseGrid.symmetric(8.0, 32, npairs=2))


class TestHusimi:
    def test_coherent_bump(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec.displaced([0.0], [2.0]), grid)
        dist = husimi_distribution(psi, spec, pgrid)
        assert dist.integral() == pytest.approx(1.0, abs=1e-3)
        p_peak, x_peak = dist.argmax_point()
        assert abs(x_peak - 2.0) <= pgrid.pairs[0].dx
        assert abs(p_peak) <= pgrid.pairs[0].dp

    def test_mixture_two_bumps(self, spec, grid, pgrid):
        a = coordinate_wavefunction(spec.displaced([0.0], [3.0]), grid)
        b = coordinate_wavefunction(spec.displaced([0.0], [-3.0]), grid)
        dist = husimi_distribution([(0.5, a), (0.5, b)], spec, pgrid)
        pair = pgrid.pairs[0]
        x = pair.x_points()
        mass_right = dist.values[:, x > 0].sum() * pgrid.measure(1.0)
        mass_left = dist.values[:, x < 0].sum() * pgrid.measure(1.0)
        assert mass_right == pytest.approx(0.5, abs=1e-3)
        assert mass_left == pytest.approx(0.5, abs=1e-3)

    def test_number_state_positivity(self, spec, grid, pgrid):
        basis = TruncatedBasis((3,), spec)
        n1 = number_state(1, basis, grid)
        dist = husimi_distribution(n1, spec, pgrid)
        assert dist.minimum() >= -1e-12
        assert dist.integral() == pytest.approx(1.0, abs=1e-3)

    def test_density_matrix_source(self, spec, grid, pgrid):
        from qps import FockVector, from_pure

        basis = TruncatedBasis((4,), spec)
        rho = from_pure(FockVector.unit(basis, 1))
        dist = husimi_distribution(rho, spec, pgrid, grid_number_states(basis, grid))
        assert dist.minimum() >= -1e-12
        assert dist.integral() == pytest.approx(1.0, abs=1e-3)
        # agrees with the pure-state route
        direct = husimi_distribution(number_state(1, basis, grid), spec, pgrid)
        assert np.abs(dist.values - direct.values).max() < 1e-8

    def test_density_source_needs_its_states(self, spec, grid, pgrid):
        from qps import FockVector, from_pure

        basis = TruncatedBasis((4,), spec)
        rho = from_pure(FockVector.unit(basis, 1))
        states = grid_number_states(TruncatedBasis((3,), spec), grid)
        for wrong in (None, [], states):
            with pytest.raises(InvalidInputError, match="needs its 4 grid number states"):
                husimi_distribution(rho, spec, pgrid, wrong)

    def test_bad_weights_rejected(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec, grid)
        with pytest.raises(InvalidInputError):
            husimi_distribution([(0.7, psi), (0.7, psi)], spec, pgrid)

    @pytest.mark.parametrize("weights", [[np.nan], [np.nan, 1.0], []])
    def test_nan_or_no_weights_rejected(self, spec, grid, pgrid, weights):
        psi = coordinate_wavefunction(spec, grid)
        with pytest.raises(InvalidInputError, match="must be >= 0 and sum to 1"):
            husimi_distribution([(w, psi) for w in weights], spec, pgrid)


class TestWigner:
    def test_ground_gaussian_nonnegative(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec, grid)
        dist = wigner_distribution(psi, pgrid)
        assert dist.minimum() >= -1e-10
        assert dist.integral() == pytest.approx(1.0, abs=1e-3)

    def test_first_excited_negativity(self, spec, grid, pgrid):
        n1 = number_state(1, TruncatedBasis((3,), spec), grid)
        dist = wigner_distribution(n1, pgrid)
        assert dist.integral() == pytest.approx(1.0, abs=1e-3)
        assert dist.minimum() <= -0.25 * dist.maximum()

    def test_origin_value_matches_closed_form(self, spec, grid):
        # W_1(0,0) = -1/(pi hbar); stored density carries the extra h
        pg = PhaseGrid.symmetric(8.0, 128)
        n1 = number_state(1, TruncatedBasis((3,), spec), grid)
        dist = wigner_distribution(n1, pg)
        pair = pg.pairs[0]
        j = np.argmin(np.abs(pair.p_points()))
        k = np.argmin(np.abs(pair.x_points()))
        r2 = pair.p_points()[j] ** 2 + pair.x_points()[k] ** 2
        expected = H * (4 * r2 / 2 - 1) / np.pi * np.exp(-r2)
        assert dist.values[j, k] == pytest.approx(expected, rel=1e-6)

    def test_two_pair_unsupported(self):
        spec2 = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        grid2 = CoordinateGrid.square(-10.0, 10.0, 64)
        psi2 = coordinate_wavefunction(spec2, grid2)
        with pytest.raises(UnsupportedError):
            wigner_distribution(psi2, PhaseGrid.symmetric(8.0, 32, npairs=2))

    @pytest.mark.parametrize("make", [
        lambda spec, grid: coordinate_wavefunction(spec, grid),
        lambda spec, grid: number_state(1, TruncatedBasis((3,), spec), grid),
        lambda spec, grid: coordinate_wavefunction(spec.displaced([1.2], [-0.8]), grid),
    ], ids=["ground", "excited1", "coherent"])
    def test_bit_identical_to_cubic_spline_build(self, spec, grid, pgrid, make,
                                                 cubic_spline, monkeypatch):
        psi = make(spec, grid)
        dist = wigner_distribution(psi, pgrid)
        monkeypatch.setattr(phasespace, "_not_a_knot",
                            lambda x, y: cubic_spline(x, y, extrapolate=False))
        reference = wigner_distribution(psi, pgrid)
        assert np.array_equal(dist.values, reference.values)
        assert np.array_equal(np.signbit(dist.values), np.signbit(reference.values))


@pytest.fixture(scope="module")
def cubic_spline():
    """scipy's CubicSpline, the oracle of the numpy spline (a test-only dependency)."""
    return pytest.importorskip("scipy.interpolate").CubicSpline


def spline_queries(x, rng):
    """Every knot, random interior points, both ends and points just and far outside."""
    span = x[-1] - x[0]
    return np.concatenate([
        x, rng.uniform(x[0], x[-1], 257), x[[0, -1]],
        [np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
         x[0] - span, x[-1] + span, x[0] - 1e300, x[-1] + 1e300],
    ])


class TestNotAKnotSpline:
    """The Wigner fixture's spline is scipy's CubicSpline(extrapolate=False),
    bit for bit, on every uniform grid, and 0 where scipy gives NaN outside."""

    def check(self, cubic_spline, x, y, q):
        got = phasespace._not_a_knot(x, y)(q)
        with np.errstate(all="ignore"):
            want = cubic_spline(x, y, extrapolate=False)(q)
        want = np.where((q >= x[0]) & (q <= x[-1]), want, 0.0)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(2, 4096).filter(lambda n: n != 3),
           lo=st.floats(-1e3, 1e3), log_span=st.floats(-3.0, 5.0),
           log_mag=st.floats(-300.0, 300.0), zeros=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_cubic_spline(self, cubic_spline, n, lo, log_span, log_mag, zeros, seed):
        rng = np.random.default_rng(seed)
        x = np.linspace(lo, lo + 10.0**log_span, n)
        y = rng.standard_normal(n) * 10.0**log_mag
        if zeros:  # runs of -0.0 exercise the signs of zero
            y[rng.random(n) < 0.5] = -0.0
        self.check(cubic_spline, x, y, spline_queries(x, rng))

    def test_two_knots_are_a_straight_line(self, cubic_spline):
        x, y = np.array([-1.5, 0.5]), np.array([2.0, -1.0])
        q = spline_queries(x, np.random.default_rng(0))
        self.check(cubic_spline, x, y, q)
        inside = (q >= x[0]) & (q <= x[1])
        line = y[0] + (q - x[0]) * (y[1] - y[0]) / (x[1] - x[0])
        assert np.allclose(phasespace._not_a_knot(x, y)(q)[inside], line[inside],
                           rtol=0, atol=1e-15)

    def test_three_knots_rejected(self):
        # scipy makes n = 3 a dense-solved parabola; GridAxis has no 3-point axes
        with pytest.raises(UnsupportedError, match="2 or at least 4 knots"):
            phasespace._not_a_knot(np.array([0.0, 1.0, 2.0]), np.ones(3))

    def test_large_values_warn_nothing(self, cubic_spline):
        # overflow inside the spline follows scipy (inf/NaN) without a numpy warning
        x = np.linspace(0.0, 1e-3, 64)
        y = np.where(np.arange(64) % 2, 1e300, -1e300)
        self.check(cubic_spline, x, y, spline_queries(x, np.random.default_rng(1)))


class TestClosure:
    def test_coherent_reconstruction(self, spec, grid):
        psi = coordinate_wavefunction(spec.displaced([0.3], [0.8]), grid)
        res = closure_reconstruct(psi, spec, PhaseGrid.symmetric(12.0, 128))
        assert res.l2_error <= 1e-3

    def test_superposition_reconstruction(self, spec, grid):
        psi = superposition(grid, spec)
        res = closure_reconstruct(psi, spec, PhaseGrid.symmetric(16.0, 128))
        assert res.l2_error <= 1e-3

    def test_refinement_decreases_error(self, spec, grid):
        psi = superposition(grid, spec)
        coarse = closure_reconstruct(psi, spec, PhaseGrid.symmetric(16.0, 32)).l2_error
        fine = closure_reconstruct(psi, spec, PhaseGrid.symmetric(16.0, 64)).l2_error
        assert fine < coarse

    def test_generous_coverage_required(self, spec, grid):
        psi = coordinate_wavefunction(spec.displaced([0.0], [3.5]), grid)
        with pytest.raises(CoverageError):
            closure_reconstruct(psi, spec, PhaseGrid.symmetric(8.0, 64))

    def test_two_pair_reconstruction(self):
        spec2 = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        grid2 = CoordinateGrid.square(-12.0, 12.0, 128)
        psi2 = coordinate_wavefunction(spec2.displaced([0.0, 0.0], [0.5, -0.5]), grid2)
        res = closure_reconstruct(psi2, spec2, PhaseGrid.symmetric(10.0, 48, npairs=2))
        assert res.l2_error <= 1e-3


class TestHypervolume:
    def test_state_independence(self, spec, grid):
        pg = PhaseGrid.symmetric(12.0, 128)
        states = {
            "coherent": coordinate_wavefunction(spec.displaced([0.5], [0.5]), grid),
            "squeezed": coordinate_wavefunction(
                JointStateSpec.from_covariance(X=[[0.25]]), grid
            ),
            "correlated": coordinate_wavefunction(
                JointStateSpec.from_covariance(X=[[0.5]], rho=[[0.4]]), grid
            ),
            "number1": number_state(1, TruncatedBasis((3,), spec), grid),
            "superposition": superposition(grid, spec),
        }
        for name, psi in states.items():
            vol = microstate_hypervolume(psi, spec, pg)
            assert vol == pytest.approx(H, rel=1e-3), name

    def test_two_pair_states(self):
        family = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        grid2 = CoordinateGrid.square(-12.0, 12.0, 128)
        pg2 = PhaseGrid.symmetric(8.0, 48, npairs=2)
        ground2 = coordinate_wavefunction(family, grid2)
        basis2 = TruncatedBasis((2, 2), family)
        excited = number_state((1, 0), basis2, grid2)
        sup = ground2.with_values((ground2.values + excited.values) / np.sqrt(2.0))
        states = {
            "product": ground2,
            "displaced": coordinate_wavefunction(
                family.displaced([0.3, -0.2], [0.5, 0.4]), grid2
            ),
            "squeezed": coordinate_wavefunction(
                JointStateSpec.from_covariance(X=np.diag([0.25, 0.8])), grid2
            ),
            "excited": excited,
            "superposition": sup,
        }
        for name, psi in states.items():
            vol = microstate_hypervolume(psi, family, pg2)
            assert vol == pytest.approx(H**2, rel=1e-3), name

    def test_three_pair_coherent_state(self):
        # h^3 for a displaced D = 3 coherent state on 32^3 points and 12^6 phase samples
        family = JointStateSpec.from_covariance(X=np.diag([0.5] * 3))
        grid3 = CoordinateGrid(((-8.0, 8.0, 32),) * 3)
        psi = coordinate_wavefunction(family.displaced([0.3, -0.2, 0.1], [0.2, 0.4, -0.3]), grid3)
        vol = microstate_hypervolume(psi, family, PhaseGrid.symmetric(8.0, 12, npairs=3))
        assert abs(vol - H**3) <= 3 * 1e-3 * H**3

    @staticmethod
    def traced_peak(psi, family, pgrid):
        tracemalloc.start()
        try:
            vol = microstate_hypervolume(psi, family, pgrid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return vol, peak

    def test_two_pair_peak_memory(self):
        # verify's two-pair row: both pairs take their 128 x 128 Gram matrix,
        # so no array of the 48^4 phase grid is built
        family = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        psi = coordinate_wavefunction(family, CoordinateGrid.square(-12.0, 12.0, 128))
        vol, peak = self.traced_peak(psi, family, PhaseGrid.symmetric(8.0, 48, npairs=2))
        assert vol == pytest.approx(H**2, rel=1e-3)
        assert peak < 0.1 * 16 * 48**4

    def test_three_pair_peak_memory(self):
        # verify's three-pair row: 32^3 samples, no array of the 12^6 phase grid
        family = JointStateSpec.from_covariance(X=np.diag([0.5] * 3))
        psi = coordinate_wavefunction(family.displaced([0.3, -0.2, 0.1], [0.2, 0.4, -0.3]),
                                      CoordinateGrid(((-8.0, 8.0, 32),) * 3))
        vol, peak = self.traced_peak(psi, family, PhaseGrid.symmetric(8.0, 12, npairs=3))
        assert abs(vol - H**3) <= 3 * 1e-3 * H**3
        assert peak < 0.1 * 16 * 12**6

    def test_needs_no_transform(self, monkeypatch, spec, grid):
        # one, two and three pairs: the mass comes from the passes and Gram
        # matrices, never from a phase wavefunction
        from qps.phasespace import PhaseAnalyzer

        def no_transform(self, values):
            raise AssertionError("microstate_hypervolume built psi~")

        monkeypatch.setattr(PhaseAnalyzer, "transform", no_transform)
        psi = coordinate_wavefunction(spec.displaced([0.5], [0.5]), grid)
        assert microstate_hypervolume(psi, spec, PhaseGrid.symmetric(12.0, 128)) == \
            pytest.approx(H, rel=1e-3)
        for d, n, extent, n_phase in [(2, 128, 12.0, 48), (3, 32, 8.0, 12)]:
            family = JointStateSpec.from_covariance(X=np.diag([0.5] * d))
            psi = coordinate_wavefunction(family, CoordinateGrid(((-extent, extent, n),) * d))
            vol = microstate_hypervolume(psi, family, PhaseGrid.symmetric(8.0, n_phase, npairs=d))
            assert abs(vol - H**d) <= d * 1e-3 * H**d

    def test_analyzing_family_independence(self, spec, grid):
        # the law holds for any fixed analyzing covariance
        fam = JointStateSpec.from_covariance(X=[[0.3]])
        psi = coordinate_wavefunction(spec, grid)
        vol = microstate_hypervolume(psi, fam, PhaseGrid.symmetric(12.0, 128))
        assert vol == pytest.approx(H, rel=1e-3)


class TestExport:
    def test_distribution_csv(self, tmp_path, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec, grid)
        dist = husimi_distribution(psi, spec, pgrid)
        path = tmp_path / "dist.csv"
        write_distribution(dist, path, gauge_label="zero")
        lines = path.read_text().splitlines()
        assert lines[0] == "p,x,value"
        assert len(lines) == 1 + 128 * 128
        import json

        meta = json.loads((tmp_path / "dist.csv.json").read_text())
        assert meta["kind"] == "husimi_like"
        assert meta["gauge"] == "zero"


DENSITY_CASES = {
    "16@1024": ((16,), CoordinateGrid.line(), PhaseGrid.symmetric(8.0, 128)),
    "3x3@256^2": ((3, 3), CoordinateGrid.square(), PhaseGrid.symmetric(8.0, 32, npairs=2)),
}


@pytest.fixture(scope="module", params=sorted(DENSITY_CASES))
def density_case(request):
    """Basis, family, grid number states, phase grid and the transformed
    basis-state stack of the full quadratic form, which is the reference the
    rank-streamed path must match."""
    from qps.phasespace import PhaseAnalyzer

    n_max, grid, pgrid = DENSITY_CASES[request.param]
    family = JointStateSpec.from_covariance(X=np.diag([0.5] * len(n_max)))
    basis = TruncatedBasis(n_max, family)
    states = grid_number_states(basis, grid)
    analyzer = PhaseAnalyzer(family, pgrid, grid)
    tilde = np.stack([analyzer.transform(s.values) for s in states])
    return basis, family, states, pgrid, tilde


def random_density(basis, eigenvalues, seed):
    """rho = Q diag(eigenvalues) Q^H with a random unitary Q."""
    from qps import DensityMatrix

    rng = np.random.default_rng(seed)
    d = basis.dim
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    lam = np.zeros(d)
    lam[:len(eigenvalues)] = eigenvalues
    m = (Q * lam) @ Q.conj().T
    return DensityMatrix(basis, 0.5 * (m + m.conj().T))


def quadratic_form_husimi(tilde, rho):
    return np.real(np.einsum("n...,nm,m...->...", tilde, rho.matrix, np.conj(tilde)))


class TestDensityHusimi:
    @pytest.mark.parametrize("rank", [1, 2, 3, "full"])
    def test_matches_quadratic_form(self, density_case, rank, monkeypatch):
        from qps.phasespace import PhaseAnalyzer

        basis, family, states, pgrid, tilde = density_case
        r = basis.dim if rank == "full" else rank
        weights = np.random.default_rng(r).uniform(0.2, 1.0, r)
        rho = random_density(basis, weights / weights.sum(), seed=r)
        calls = []
        transform = PhaseAnalyzer.transform
        monkeypatch.setattr(PhaseAnalyzer, "transform",
                            lambda self, v: calls.append(1) or transform(self, v))
        dist = husimi_distribution(rho, family, pgrid, states)
        expected = quadratic_form_husimi(tilde, rho)
        assert len(calls) == r
        assert np.abs(dist.values - expected).max() <= 1e-12 * np.abs(expected).max()
        assert dist.minimum() >= 0.0

    def test_stored_density_costs_its_rank(self, density_case, tmp_path, monkeypatch):
        # %.12g rounding leaves null-space eigenvalues far above eps * lam_max
        from qps import read_density, write_density
        from qps.phasespace import PhaseAnalyzer

        basis, family, states, pgrid, tilde = density_case
        write_density(random_density(basis, [0.7, 0.3], seed=5), tmp_path / "rho.csv")
        rho = read_density(tmp_path / "rho.csv")
        calls = []
        transform = PhaseAnalyzer.transform
        monkeypatch.setattr(PhaseAnalyzer, "transform",
                            lambda self, v: calls.append(1) or transform(self, v))
        dist = husimi_distribution(rho, family, pgrid, states)
        expected = quadratic_form_husimi(tilde, rho)
        assert len(calls) == 2
        assert np.abs(dist.values - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_round_off_negative_eigenvalue_is_dropped(self, density_case):
        # the tolerated negative weight sits on the widest number state, so the
        # full quadratic form dips below zero in the tails (to -1.4e-16 on (16,))
        from qps import DensityMatrix

        basis, family, states, pgrid, tilde = density_case
        lam = np.zeros(basis.dim)
        lam[[0, 1, -1]] = [0.6, 0.4 + 5e-11, -5e-11]
        rho = DensityMatrix(basis, np.diag(lam))
        dist = husimi_distribution(rho, family, pgrid, states)
        assert dist.minimum() >= 0.0
        expected = quadratic_form_husimi(tilde, rho)
        assert np.abs(dist.values - expected).max() <= 1e-9 * np.abs(expected).max()


class TestMixtureHusimi:
    def test_weighted_sum_of_pure_densities(self, spec, grid, pgrid):
        a = coordinate_wavefunction(spec.displaced([0.5], [1.0]), grid)
        b = number_state(2, TruncatedBasis((3,), spec), grid)
        dist = husimi_distribution([(0.25, a), (0.75, b)], spec, pgrid)
        pure = [husimi_distribution(s, spec, pgrid).values for s in (a, b)]
        assert np.array_equal(dist.values, 0.25 * pure[0] + 0.75 * pure[1])

    def test_components_checked_like_pure_states(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec, grid)
        far = coordinate_wavefunction(spec.displaced([0.0], [7.0]), grid)
        with pytest.raises(InvalidInputError, match="normalized"):
            husimi_distribution([(0.5, psi), (0.5, psi.with_values(2.0 * psi.values))],
                                spec, pgrid)
        with pytest.raises(CoverageError):
            husimi_distribution([(0.5, psi), (0.5, far)], spec, pgrid)

    @pytest.mark.parametrize("other", ["grid", "type", "empty"])
    def test_components_must_share_one_grid(self, spec, grid, pgrid, other):
        psi = coordinate_wavefunction(spec, grid)
        source = {
            "grid": [(0.5, psi), (0.5, coordinate_wavefunction(spec, CoordinateGrid.line()))],
            "type": [(0.5, psi), (0.5, psi.values)],
            "empty": [],
        }[other]
        with pytest.raises(InvalidInputError):
            husimi_distribution(source, spec, pgrid)


def uneven_grid(n1, n2):
    return CoordinateGrid(((-12.0, 12.0, n1), (-12.0, 12.0, n2)))


# the uneven grids make a pass contract a pair through the window-weighted
# samples while another pair's axis is still there (transform on 128x32,
# synthesis on 32x128)
ANALYZER_CASES = {
    "1024->128^2": (CoordinateGrid.line(), PhaseGrid.symmetric(8.0, 128)),
    "256^2->32^4": (CoordinateGrid.square(), PhaseGrid.symmetric(8.0, 32, npairs=2)),
    "128x32->32^4": (uneven_grid(128, 32), PhaseGrid.symmetric(8.0, 32, npairs=2)),
    "32x128->32^4": (uneven_grid(32, 128), PhaseGrid.symmetric(8.0, 32, npairs=2)),
}


def build_analyzer(case, gauge="full"):
    """An analyzer with a complex window (rho != 0) and, in the full, half and
    const(0.3) gauges, a nonzero gauge phase; "zero" and "const(0)" make every
    K table zero."""
    from qps import GaugeChoice
    from qps.phasespace import PhaseAnalyzer

    grid, pgrid = (ANALYZER_CASES | MASS_CASES)[case]
    d = grid.ndim
    gauge = {"full": GaugeChoice.full(), "half": GaugeChoice.half(), "zero": GaugeChoice.zero(),
             "const(0)": GaugeChoice.const(0.0), "const(0.3)": GaugeChoice.const(0.3)}[gauge]
    family = JointStateSpec.from_covariance(X=np.diag([0.5, 0.3, 0.4][:d]),
                                            rho=np.diag([0.2, -0.1, 0.05][:d]),
                                            gauge=gauge, hbar=0.9)
    return PhaseAnalyzer(family, pgrid, grid)


@pytest.fixture(scope="module", params=sorted(ANALYZER_CASES))
def analyzer(request):
    return build_analyzer(request.param)


def gauge_tables(analyzer):
    fam = analyzer.family
    return [fam.gauge.phase(p.p_points()[:, None], p.x_points()[None, :], s, fam.hbar)
            for p, s in zip(analyzer.pgrid.pairs, fam.signature.signs)]


def oracle_transform(a, values):
    """The explicit one- and two-pair transform the separable contraction replaced."""
    if len(a.kernels) == 1:
        (E,), (W,), (K,) = a.kernels, a.windows, gauge_tables(a)
        return a.norm * np.exp(-1j * K) * (E @ (values[:, None] * W))
    (E1, E2), (W1, W2), (K1, K2) = a.kernels, a.windows, gauge_tables(a)
    A1 = E1[:, None, :] * W1.T[None, :, :]
    T = np.tensordot(A1, values, axes=([2], [0]))
    A2 = E2[:, None, :] * W2.T[None, :, :]
    out = np.tensordot(T, A2, axes=([2], [2]))
    phase = np.exp(-1j * (K1[:, :, None, None] + K2[None, None, :, :]))
    return a.norm * phase * out


def oracle_synthesize(a, pw_values):
    """The explicit one- and two-pair synthesis the separable contraction replaced."""
    measure = a.pgrid.measure(a.family.hbar)
    dx = a.grid.spacings
    if len(a.kernels) == 1:
        (E,), (W,), (K,) = a.kernels, a.windows, gauge_tables(a)
        acc = np.conj(E.T) @ (np.exp(1j * K) * pw_values) / dx[0]
        return a.norm * np.sum(np.conj(W) * acc, axis=1) * measure
    (E1, E2), (W1, W2), (K1, K2) = a.kernels, a.windows, gauge_tables(a)
    weighted = np.exp(1j * (K1[:, :, None, None] + K2[None, None, :, :])) * pw_values
    B1 = np.conj(E1[:, None, :] * W1.T[None, :, :]) / dx[0]
    B2 = np.conj(E2[:, None, :] * W2.T[None, :, :]) / dx[1]
    T = np.tensordot(weighted, B2, axes=([2, 3], [0, 1]))
    return a.norm * np.tensordot(B1, T, axes=([0, 1], [0, 1])) * measure


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestSeparableAnalyzer:
    def test_transform_matches_explicit_contraction(self, analyzer):
        v = random_complex(analyzer.grid.shape, 1)
        expected = oracle_transform(analyzer, v)
        got = analyzer.transform(v)
        assert got.shape == analyzer.pgrid.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("case", ["1024->128^2", "256^2->32^4"])
    def test_default_grids_keep_every_bit(self, case):
        # the explicit contractions' order on the default grids: every
        # exported %.12g digit, down to the round-off in the tails, stays
        analyzer = build_analyzer(case)
        v = random_complex(analyzer.grid.shape, 1)
        assert np.array_equal(analyzer.transform(v), oracle_transform(analyzer, v))

    @pytest.mark.parametrize("gauge", ["zero", "const(0)"])
    @pytest.mark.parametrize("case", ["1024->128^2", "256^2->32^4"])
    def test_zero_phase_keeps_every_bit(self, case, gauge):
        # every K is 0, so exp(-/+ i sum K) = 1 + 0j is skipped, not applied
        analyzer = build_analyzer(case, gauge)
        assert not any(K.any() for K in gauge_tables(analyzer))
        v = random_complex(analyzer.grid.shape, 1)
        assert np.array_equal(analyzer.transform(v), oracle_transform(analyzer, v))
        # the oracle synthesis sums in another order, so only its value is
        # compared; the bits are those of the passes behind the applied factor,
        # also for a real input such as family_state's unit sample
        w = random_complex(analyzer.pgrid.shape, 2)
        expected = oracle_synthesize(analyzer, w)
        assert np.abs(analyzer.synthesize(w) - expected).max() <= 1e-13 * np.abs(expected).max()
        unit = np.zeros(analyzer.pgrid.shape)
        unit[(3, 7) * analyzer.pgrid.npairs] = 1.0
        phase = np.exp(1j * reduce(np.add.outer, gauge_tables(analyzer)))
        for pw in (w, unit):
            assert np.array_equal(analyzer.synthesize(pw), analyzer.synthesize(phase * pw))

    @pytest.mark.parametrize("gauge", ["zero", "full"])
    @pytest.mark.parametrize("case", sorted(ANALYZER_CASES))
    def test_inputs_are_not_written(self, case, gauge):
        # the zero-phase transform scales its last contraction in place
        analyzer = build_analyzer(case, gauge)
        v = random_complex(analyzer.grid.shape, 6)
        w = random_complex(analyzer.pgrid.shape, 7)
        v0, w0 = v.copy(), w.copy()
        pw, rec = analyzer.transform(v), analyzer.synthesize(w)
        assert np.array_equal(v, v0) and np.array_equal(w, w0)
        assert not np.shares_memory(pw, v) and not np.shares_memory(rec, w)

    def test_synthesize_matches_explicit_contraction(self, analyzer):
        w = random_complex(analyzer.pgrid.shape, 2)
        expected = oracle_synthesize(analyzer, w)
        got = analyzer.synthesize(w)
        assert got.shape == analyzer.grid.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_synthesis_is_the_adjoint(self, analyzer):
        v = random_complex(analyzer.grid.shape, 3)
        w = random_complex(analyzer.pgrid.shape, 4)
        lhs = np.vdot(analyzer.transform(v), w) * analyzer.pgrid.measure(analyzer.family.hbar)
        rhs = np.vdot(v, analyzer.synthesize(w)) * analyzer.grid.cell_volume
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_transform_is_the_overlap_with_family_states(self, analyzer):
        v = random_complex(analyzer.grid.shape, 5)
        pw = analyzer.transform(v)
        for index in [(20, -1) * analyzer.pgrid.npairs, (3, 7) * analyzer.pgrid.npairs]:
            state = analyzer.family_state(*index)
            assert state.shape == analyzer.grid.shape
            overlap = np.vdot(state, v) * analyzer.grid.cell_volume
            assert abs(pw[index] - overlap) <= 1e-12 * abs(overlap)

    def test_two_pair_family_state_is_an_outer_product(self):
        from qps import GaugeChoice
        from qps.phasespace import PhaseAnalyzer

        grid, pgrid = ANALYZER_CASES["256^2->32^4"]
        X, rho, gauge = [0.5, 0.3], [0.2, -0.1], GaugeChoice.full()
        family = JointStateSpec.from_covariance(X=np.diag(X), rho=np.diag(rho), gauge=gauge)
        index = (3, 17, 29, 8)
        singles = []
        for mu in range(2):
            single = JointStateSpec.from_covariance(X=[[X[mu]]], rho=[[rho[mu]]], gauge=gauge)
            analyzer = PhaseAnalyzer(single, PhaseGrid((pgrid.pairs[mu],)),
                                     CoordinateGrid((grid.axes[mu],)))
            singles.append(analyzer.family_state(*index[2 * mu:2 * mu + 2]))
        expected = np.multiply.outer(*singles)
        got = PhaseAnalyzer(family, pgrid, grid).family_state(*index)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


# pairs that take different routes in `mass`: a 1024-point axis passes to 8 x 8
# phase samples while a 32-point axis keeps its Gram matrix for 16 x 16, in
# either order, and three pairs that all take the Gram route
MASS_CASES = {
    "1024x32->8^2x16^2": (uneven_grid(1024, 32), PhaseGrid(((-8.0, 8.0, 8, -8.0, 8.0, 8),
                                                           (-8.0, 8.0, 16, -8.0, 8.0, 16)))),
    "32x1024->16^2x8^2": (uneven_grid(32, 1024), PhaseGrid(((-8.0, 8.0, 16, -8.0, 8.0, 16),
                                                           (-8.0, 8.0, 8, -8.0, 8.0, 8)))),
    "16^3->8^6": (CoordinateGrid(((-8.0, 8.0, 16),) * 3), PhaseGrid.symmetric(8.0, 8, npairs=3)),
}


class TestMass:
    @pytest.mark.parametrize("gauge", ["zero", "const(0)", "const(0.3)", "full", "half"])
    @pytest.mark.parametrize("case", sorted(ANALYZER_CASES) + sorted(MASS_CASES))
    def test_matches_the_transform(self, case, gauge):
        analyzer = build_analyzer(case, gauge)
        v = random_complex(analyzer.grid.shape, 8)
        t = analyzer.transform(v)
        expected = np.vdot(t, t).real
        got = analyzer.mass(v)
        assert abs(got - expected) <= 1e-12 * expected
        if analyzer.pgrid.npairs == 1 and gauge in ("zero", "const(0)"):
            # the transform's own pass and scaling: verify's one-pair rows keep every bit
            assert got == expected

    def test_real_and_read_only_inputs(self):
        # a real state is scaled into a new array, never in place
        analyzer = build_analyzer("256^2->32^4", "zero")
        v = np.random.default_rng(9).normal(size=analyzer.grid.shape)
        v.setflags(write=False)
        t = analyzer.transform(v)
        assert analyzer.mass(v) == pytest.approx(np.vdot(t, t).real, rel=1e-12)

    def test_gram_over_budget_takes_the_pass(self, monkeypatch):
        # an 8192-point axis: its Gram matrix would hold 2^26 > 2^24 entries,
        # and the analyzer's sizing leaves the pass the cheaper route
        from qps.grids import SAMPLE_BUDGET, check_budget
        from qps.phasespace import PhaseAnalyzer

        sizes = []
        monkeypatch.setattr(phasespace, "check_budget",
                            lambda what, n: sizes.append(n) or check_budget(what, n))
        family = JointStateSpec.from_covariance(X=[[0.5]])
        grid = CoordinateGrid.line(-24.0, 24.0, 8192)
        analyzer = PhaseAnalyzer(family, PhaseGrid.symmetric(8.0, 16), grid)
        psi = coordinate_wavefunction(family, grid)
        t = analyzer.transform(psi.values)
        assert analyzer.mass(psi.values) == np.vdot(t, t).real
        assert max(sizes) <= SAMPLE_BUDGET


class TestAnalyzerBudget:
    @pytest.mark.parametrize("axes, pairs, need", [
        # one pair: the window W (N x n_x), then the kernel E (n_p x N)
        ([(-12.0, 12.0, 1024)], [(-8.0, 8.0, 32, -8.0, 8.0, 524288)], 2**29),
        ([(-12.0, 12.0, 1024)], [(-8.0, 8.0, 524288, -8.0, 8.0, 32)], 2**29),
        # two pairs: the first transform pass carries the 2^19 samples of the
        # second axis into a (2^19, 128, 128) output
        ([(-12.0, 12.0, 32), (-12.0, 12.0, 2**19)],
         [(-8.0, 8.0, 128, -8.0, 8.0, 128), (-8.0, 8.0, 32, -8.0, 8.0, 32)], 2**33),
    ])
    def test_checked_before_any_table(self, monkeypatch, axes, pairs, need):
        from qps.phasespace import PhaseAnalyzer

        def unbuilt(pair):
            raise AssertionError("analyzer tables built before the budget check")

        monkeypatch.setattr(PhasePair, "p_points", unbuilt)
        monkeypatch.setattr(PhasePair, "x_points", unbuilt)
        family = JointStateSpec.from_covariance(X=np.diag([0.5] * len(axes)))
        with pytest.raises(InvalidInputError,
                           match=f"needs arrays of {need} samples, budget is 16777216"):
            PhaseAnalyzer(family, PhaseGrid(pairs), CoordinateGrid(axes))
