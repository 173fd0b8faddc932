import dataclasses
import gc
import tracemalloc
import weakref
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qps import phasespace
from qps import (
    CoordinateGrid,
    CoverageError,
    GaugeChoice,
    GridWavefunction,
    InvalidInputError,
    JointStateSpec,
    PhaseGrid,
    PhasePair,
    Signature,
    TruncatedBasis,
    UnsupportedError,
    analytic_overlap,
    closure_reconstruct,
    coordinate_wavefunction,
    density_husimi,
    grid_number_states,
    husimi_distribution,
    microstate_hypervolume,
    moments,
    number_state,
    phase_wavefunction,
    wigner_distribution,
    write_distribution,
)
from qps.phasespace import _gauge_factor
from conftest import benchmark_inputs

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
        # psi~ in each gauge and |psi~|^2 at random phase points against
        # <family at (q, y)|state> in closed form, for a displaced copy of the
        # family and for every pool spec (rho != 0, X != hbar/2) on the CLI's
        # default grids; at most 1.5e-15 of the peak over 300 points per spec
        # and gauge
        inputs = benchmark_inputs()
        cases = [(spec.displaced([0.4], [0.9]), grid, PhaseGrid.symmetric(8.0, 64))]
        for npairs, count in inputs.GENERATOR["state_cases"].items():
            npairs = int(npairs)
            grids = (CoordinateGrid.line(), PhaseGrid.symmetric(8.0, 128)) if npairs == 1 else \
                (CoordinateGrid.square(), PhaseGrid.symmetric(8.0, 32, npairs=2))
            cases += [(JointStateSpec.from_dict(inputs.state_case(npairs, i)["spec"]), *grids)
                      for i in range(count)]
        rng = np.random.default_rng(5)
        for psi_spec, coords, pg in cases:
            psi = coordinate_wavefunction(psi_spec, coords)
            family = JointStateSpec.from_covariance(
                X=np.diag([psi_spec.hbar / 2.0] * psi_spec.dim), hbar=psi_spec.hbar,
                signature=psi_spec.signature)
            husimi = husimi_distribution(psi, family, pg).values
            axes = [pts for pair in pg.pairs for pts in (pair.p_points(), pair.x_points())]
            points = [tuple(rng.integers(len(a)) for a in axes) for _ in range(64)]
            qy = [np.array([a[i] for a, i in zip(axes, idx)]) for idx in points]  # q1, y1, q2, ..
            for kind in ("zero", "full", "half"):
                # a regauged family keeps its moments, so the analyzer is reused
                fam = dataclasses.replace(family, gauge=GaugeChoice(kind))
                pw = phase_wavefunction(psi, fam, pg).values
                expect = np.array([analytic_overlap(fam.displaced(z[0::2], z[1::2]), psi_spec)
                                   for z in qy])
                got = np.array([pw[idx] for idx in points])
                assert np.abs(got - expect).max() <= 1e-13 * np.abs(pw).max(), (psi_spec, kind)
            # |<family at (q, y)|state>| is the same in every gauge
            got = np.array([husimi[idx] for idx in points])
            assert np.abs(got - np.abs(expect) ** 2).max() <= 1e-13 * husimi.max(), psi_spec

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

    def test_pure_source_checked_like_any_analysis(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec, grid)
        far = coordinate_wavefunction(spec.displaced([0.0], [7.0]), grid)
        with pytest.raises(InvalidInputError, match="normalized"):
            husimi_distribution(psi.with_values(2.0 * psi.values), spec, pgrid)
        with pytest.raises(CoverageError):
            husimi_distribution(far, spec, pgrid)

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
        dist = density_husimi(rho, pgrid)
        assert dist.minimum() >= -1e-12
        assert dist.integral() == pytest.approx(1.0, abs=1e-3)
        # agrees with the pure-state route
        direct = husimi_distribution(number_state(1, basis, grid), spec, pgrid)
        assert np.abs(dist.values - direct.values).max() < 1e-8

    def test_density_source_goes_to_density_husimi(self, spec, pgrid):
        from qps import FockVector, from_pure

        rho = from_pure(FockVector.unit(TruncatedBasis((4,), spec), 1))
        with pytest.raises(InvalidInputError, match="density matrix goes to density_husimi"):
            husimi_distribution(rho, spec, pgrid)

    @staticmethod
    def mixture_source(spec, pgrid, weights):
        # a mixture reaches Husimi as a density source, its weights checked
        # where the mixture is built
        from qps import FockVector, MixtureSpec, from_mixture

        basis = TruncatedBasis((3,), spec)
        mix = MixtureSpec(tuple((w, FockVector.unit(basis, 0)) for w in weights))
        return density_husimi(from_mixture(mix), pgrid)

    def test_bad_weights_rejected(self, spec, pgrid):
        with pytest.raises(InvalidInputError):
            self.mixture_source(spec, pgrid, [0.7, 0.7])

    @pytest.mark.parametrize("weights", [[np.nan], [np.nan, 1.0], []])
    def test_nan_or_no_weights_rejected(self, spec, pgrid, weights):
        with pytest.raises(InvalidInputError, match="must be >= 0 and sum to 1"):
            self.mixture_source(spec, pgrid, weights)


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
        assert dist.minimum() <= -0.25 * dist.values.max()

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

    @pytest.mark.parametrize("signature", [Signature(0, 1), Signature(1, 0)], ids=["-1", "+1"])
    def test_p_marginal_mean_is_mean_p(self, grid, pgrid, signature):
        # the kernel carries the axis's sign; exp(2i p u / hbar) on the +1
        # axis put the Wigner peak at -<p>
        spec = JointStateSpec.from_covariance(X=[[0.5]], mean_p=[1.5], mean_x=[0.3],
                                              signature=signature)
        psi = coordinate_wavefunction(spec, grid)
        marginal = wigner_distribution(psi, pgrid).values.sum(axis=1)
        mean_p = marginal @ pgrid.pairs[0].p_points() / marginal.sum()
        assert mean_p == pytest.approx(moments(psi).mean_p[0], abs=1e-9)

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


PHASE_FREE_CASES = {
    1: (CoordinateGrid.line(-16.0, 16.0, 1024), PhaseGrid.symmetric(12.0, 128)),
    2: (CoordinateGrid.square(-12.0, 12.0, 128), PhaseGrid.symmetric(10.0, 48, npairs=2)),
}


class TestPhaseFreeDensities:
    """Husimi and closure take the zero-gauge transform in every gauge: the
    zero gauge keeps every bit of the phased route, the others move by
    round-off only."""

    @staticmethod
    def phased(gauge, npairs):
        from qps.phasespace import PhaseAnalyzer

        grid, pgrid = PHASE_FREE_CASES[npairs]
        family = JointStateSpec.from_covariance(X=np.diag([0.5, 0.6][:npairs]),
                                                gauge=GaugeChoice(gauge))
        psi = coordinate_wavefunction(family.displaced([0.3, -0.2][:npairs],
                                                       [0.8, 0.4][:npairs]), grid)
        analyzer = PhaseAnalyzer(family, pgrid, grid)
        pw = analyzer.transform(psi.values, _gauge_factor(family, pgrid))
        rec = analyzer.synthesize(synthesis_input(family, pgrid, pw))
        l2 = np.sqrt(np.sum(np.abs(rec - psi.values) ** 2) * grid.cell_volume)
        return family, psi, pgrid, np.abs(pw) ** 2, l2

    @pytest.mark.parametrize("npairs", [1, 2])
    def test_zero_gauge_keeps_every_bit(self, npairs):
        family, psi, pgrid, husimi, l2 = self.phased("zero", npairs)
        assert np.array_equal(husimi_distribution(psi, family, pgrid).values, husimi)
        assert closure_reconstruct(psi, family, pgrid).l2_error == l2

    @pytest.mark.parametrize("npairs", [1, 2])
    @pytest.mark.parametrize("gauge", ["full", "half"])
    def test_other_gauges_move_by_round_off(self, gauge, npairs):
        family, psi, pgrid, husimi, l2 = self.phased(gauge, npairs)
        dist = husimi_distribution(psi, family, pgrid)
        assert np.abs(dist.values - husimi).max() <= 1e-15 * husimi.max()
        assert dist.gauge == family.gauge
        assert closure_reconstruct(psi, family, pgrid).l2_error == pytest.approx(l2, rel=1e-9)


class TestSharedAnalyzer:
    def test_previous_analyzer_dead_before_the_next_build(self, monkeypatch, spec, grid, pgrid):
        # one setup shares one analyzer (grids match by value); a new setup
        # drops it before building, so two table sets are never alive at once
        from qps.phasespace import PhaseAnalyzer, _shared_analyzer

        first = weakref.ref(_shared_analyzer(spec, pgrid, grid))
        shared = _shared_analyzer(spec, PhaseGrid.symmetric(10.0, 128),
                                  CoordinateGrid.line(-16.0, 16.0, 1024)) is first()
        assert shared
        alive = []
        init = PhaseAnalyzer.__init__

        def build(self, *args):
            gc.collect()
            alive.append(first() is not None)
            init(self, *args)

        monkeypatch.setattr(PhaseAnalyzer, "__init__", build)
        _shared_analyzer(spec, PhaseGrid.symmetric(10.0, 64), grid)
        assert alive == [False]

    def test_keyed_by_what_the_tables_read(self, monkeypatch, spec, grid, pgrid):
        # a regauged spec keeps the moments object, so every gauge shares one
        # build; the same moments under another metric sign build again
        import dataclasses

        from qps import Signature
        from qps.phasespace import PhaseAnalyzer, _drop_shared_analyzer, _shared_analyzer

        built, init = [], PhaseAnalyzer.__init__
        monkeypatch.setattr(PhaseAnalyzer, "__init__",
                            lambda self, *a: built.append(a[0].gauge.label) or init(self, *a))
        _drop_shared_analyzer()
        first = _shared_analyzer(spec, pgrid, grid)
        for gauge in (GaugeChoice("full"), GaugeChoice("half"), GaugeChoice("const", 0.3)):
            assert _shared_analyzer(dataclasses.replace(spec, gauge=gauge), pgrid, grid) is first
        assert built == ["zero"]
        flipped = dataclasses.replace(spec, signature=Signature(1, 0))
        assert flipped.moments is spec.moments
        assert _shared_analyzer(flipped, pgrid, grid) is not first
        assert built == ["zero", "zero"]
        _drop_shared_analyzer()


class TestFamilyUnits:
    """An analysis rejects a family in other units than its state: the image
    of a state with <p> = 1.5 peaked at p = -1.56 under a +1 metric sign, and
    at p = 3.06, labelled hbar 2, under a family at hbar 2."""

    ENTRIES = [phase_wavefunction, husimi_distribution, closure_reconstruct,
               microstate_hypervolume]

    @staticmethod
    def state(grid):
        return coordinate_wavefunction(JointStateSpec.from_covariance(X=[[0.5]], mean_p=[1.5]),
                                       grid)

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda f: f.__name__)
    def test_metric_signs_must_match(self, entry, grid, pgrid):
        from qps import Signature

        family = JointStateSpec.from_covariance(X=[[0.5]], signature=Signature(1, 0))
        with pytest.raises(InvalidInputError, match="hbar or metric signs"):
            entry(self.state(grid), family, pgrid)

    @pytest.mark.parametrize("entry", ENTRIES, ids=lambda f: f.__name__)
    def test_hbar_must_match(self, entry, grid, pgrid):
        family = JointStateSpec.from_covariance(X=[[1.0]], hbar=2.0)
        with pytest.raises(InvalidInputError, match="hbar or metric signs"):
            entry(self.state(grid), family, pgrid)


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
        write_distribution(dist, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "p,x,value"
        assert len(lines) == 1 + 128 * 128
        import json

        meta = json.loads((tmp_path / "dist.csv.json").read_text())
        assert meta["kind"] == "husimi_like"
        assert meta["gauge"] == "zero"

    @staticmethod
    def sidecar(tmp_path, dist) -> dict:
        import json

        write_distribution(dist, tmp_path / "d.csv")
        return json.loads((tmp_path / "d.csv.json").read_text())

    def test_phasewave_gauge_read_from_family(self, tmp_path, grid):
        family = JointStateSpec.from_covariance(X=[[0.5]], gauge=GaugeChoice("full"))
        psi = coordinate_wavefunction(family, grid)
        pw = phase_wavefunction(psi, family, PhaseGrid.symmetric(10.0, 32))
        meta = self.sidecar(tmp_path, pw)
        assert (meta["kind"], meta["gauge"]) == ("phasewave", "full")
        assert list(meta) == ["schema", "hbar", "kind", "pairs", "gauge"]

    def test_husimi_gauge_read_from_family(self, tmp_path, spec, grid):
        family = JointStateSpec.from_covariance(X=[[0.5]], gauge=GaugeChoice("half"))
        psi = coordinate_wavefunction(spec, grid)
        hus = husimi_distribution(psi, family, PhaseGrid.symmetric(10.0, 32))
        meta = self.sidecar(tmp_path, hus)
        assert (meta["kind"], meta["gauge"]) == ("husimi_like", "half")

    def test_wigner_has_no_gauge(self, tmp_path, spec, grid):
        psi = coordinate_wavefunction(spec, grid)
        meta = self.sidecar(tmp_path, wigner_distribution(psi, PhaseGrid.symmetric(10.0, 32)))
        assert meta["kind"] == "wigner" and "gauge" not in meta


DENSITY_CASES = {
    "16@1024": ((16,), CoordinateGrid.line(), PhaseGrid.symmetric(8.0, 128)),
    "3x3@256^2": ((3, 3), CoordinateGrid.square(), PhaseGrid.symmetric(8.0, 32, npairs=2)),
}


@pytest.fixture(scope="module", params=sorted(DENSITY_CASES))
def density_case(request):
    """Basis, family, phase grid and the grid oracle's number-state images
    (every number state built on the grid and transformed), from which the
    full quadratic form, the reference the closed form must match, is taken."""
    from qps.phasespace import PhaseAnalyzer

    n_max, grid, pgrid = DENSITY_CASES[request.param]
    family = JointStateSpec.from_covariance(X=np.diag([0.5] * len(n_max)))
    basis = TruncatedBasis(n_max, family)
    analyzer = PhaseAnalyzer(family, pgrid, grid)
    tilde = np.stack([analyzer.transform(s.values) for s in grid_number_states(basis, grid)])
    return basis, family, pgrid, tilde


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


def grid_oracle_husimi(rho, grid, pgrid):
    """The density Husimi the grid way: each resolved eigenvector realized on
    the grid from the number states and transformed, sum_k w_k |psi~_k|^2."""
    from qps.phasespace import PhaseAnalyzer, _resolved_eigenpairs

    weights, vectors = _resolved_eigenpairs(rho.matrix)
    states = np.stack([s.values for s in grid_number_states(rho.basis, grid)])
    analyzer = PhaseAnalyzer(rho.basis.reference, pgrid, grid)
    values = 0.0
    for w, v in zip(weights, vectors.T):
        values = values + w * np.abs(analyzer.transform(np.tensordot(v, states, axes=1))) ** 2
    return values


class TestDensityHusimi:
    @pytest.mark.parametrize("rank", [1, 2, 3, "full"])
    def test_matches_quadratic_form(self, density_case, rank, monkeypatch):
        from qps.phasespace import PhaseAnalyzer

        basis, family, pgrid, tilde = density_case
        r = basis.dim if rank == "full" else rank
        weights = np.random.default_rng(r).uniform(0.2, 1.0, r)
        rho = random_density(basis, weights / weights.sum(), seed=r)
        calls = []
        monkeypatch.setattr(PhaseAnalyzer, "transform", lambda *a, **k: calls.append(1))
        dist = density_husimi(rho, pgrid)
        expected = quadratic_form_husimi(tilde, rho)
        assert calls == []  # the closed form transforms nothing
        assert np.abs(dist.values - expected).max() <= 1e-12 * np.abs(expected).max()
        assert dist.minimum() >= 0.0
        assert (dist.kind, dist.hbar, dist.gauge) == ("husimi_like", family.hbar, family.gauge)

    def test_stored_density_costs_its_rank(self, density_case, tmp_path, monkeypatch):
        # %.12g rounding leaves null-space eigenvalues far above eps * lam_max
        from qps import phasespace, read_density, write_density

        basis, family, pgrid, tilde = density_case
        write_density(random_density(basis, [0.7, 0.3], seed=5), tmp_path / "rho.csv")
        rho = read_density(tmp_path / "rho.csv")
        kept = []
        resolve = phasespace._resolved_eigenpairs
        monkeypatch.setattr(phasespace, "_resolved_eigenpairs",
                            lambda m: (lambda r: kept.append(len(r[0])) or r)(resolve(m)))
        dist = density_husimi(rho, pgrid)
        expected = quadratic_form_husimi(tilde, rho)
        assert kept == [2]
        assert np.abs(dist.values - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_round_off_negative_eigenvalue_is_dropped(self, density_case):
        # the tolerated negative weight sits on the widest number state, so the
        # full quadratic form dips below zero in the tails (to -1.4e-16 on (16,))
        from qps import DensityMatrix

        basis, family, pgrid, tilde = density_case
        lam = np.zeros(basis.dim)
        lam[[0, 1, -1]] = [0.6, 0.4 + 5e-11, -5e-11]
        rho = DensityMatrix(basis, np.diag(lam))
        dist = density_husimi(rho, pgrid)
        assert dist.minimum() >= 0.0
        expected = quadratic_form_husimi(tilde, rho)
        assert np.abs(dist.values - expected).max() <= 1e-9 * np.abs(expected).max()


def closed_form_case(hbar, gauge, shape):
    """(density, coordinate grid, phase grid) of one closed-form sweep case:
    a displaced reference with rho != 0 where the shape allows it, a random
    rank-3 density, and grids scaled by sqrt(hbar)."""
    from qps import Signature

    s = np.sqrt(hbar)
    gauge = GaugeChoice(gauge, 0.7 if gauge == "const" else 0.0)
    if shape == "1pair-20":
        n_max, signature, rho = (20,), None, [[0.2 * hbar]]
        grid = CoordinateGrid.line(-16.0 * s, 16.0 * s, 1024)
        pgrid = PhaseGrid.symmetric(10.0 * s, 64)
    elif shape in ("2pair", "2pair-signature-1-1"):
        n_max, rho = (4, 3), np.diag([0.1, -0.2]) * hbar
        signature = Signature(1, 1) if shape == "2pair-signature-1-1" else None
        grid = CoordinateGrid(((-12.0 * s, 12.0 * s, 128),) * 2)
        pgrid = PhaseGrid.symmetric(8.0 * s, 24, npairs=2)
    else:  # "3pair"
        n_max, signature, rho = (2, 2, 2), None, None
        grid = CoordinateGrid(((-9.0 * s, 9.0 * s, 64),) * 3)
        pgrid = PhaseGrid.symmetric(6.0 * s, 8, npairs=3)
    D = len(n_max)
    rng = np.random.default_rng(len(shape))
    family = JointStateSpec.from_covariance(
        X=np.diag(rng.uniform(0.4, 0.7, D)) * hbar, rho=rho, signature=signature,
        mean_p=rng.uniform(-0.5, 0.5, D) * s, mean_x=rng.uniform(-0.5, 0.5, D) * s,
        gauge=gauge, hbar=hbar)
    basis = TruncatedBasis(n_max, family)
    weights = rng.uniform(0.2, 1.0, 3)
    return random_density(basis, weights / weights.sum(), seed=D), grid, pgrid


class TestClosedFormHusimi:
    @pytest.mark.parametrize("shape", ["1pair-20", "2pair", "2pair-signature-1-1"])
    @pytest.mark.parametrize("gauge", ["zero", "full", "half", "const"])
    @pytest.mark.parametrize("hbar", [1e-6, 1.0, 2.5])
    def test_matches_grid_oracle(self, hbar, gauge, shape):
        rho, grid, pgrid = closed_form_case(hbar, gauge, shape)
        expected = grid_oracle_husimi(rho, grid, pgrid)
        dist = density_husimi(rho, pgrid)
        assert np.abs(dist.values - expected).max() <= 1e-12 * expected.max()
        assert dist.gauge == rho.basis.reference.gauge

    def test_three_pairs_match_grid_oracle(self):
        rho, grid, pgrid = closed_form_case(1.0, "full", "3pair")
        expected = grid_oracle_husimi(rho, grid, pgrid)
        assert np.abs(density_husimi(rho, pgrid).values - expected).max() <= 1e-12 * expected.max()

    @pytest.mark.parametrize("shape", ["1pair-20", "2pair"])
    def test_blocks_of_the_last_pair_change_nothing(self, shape, monkeypatch):
        from qps import phasespace

        rho, _, pgrid = closed_form_case(1.0, "zero", shape)
        whole = density_husimi(rho, pgrid).values
        monkeypatch.setattr(phasespace, "_BLOCK", 100)  # 5 columns per (20,) block
        blocked = density_husimi(rho, pgrid).values
        assert np.abs(blocked - whole).max() <= 1e-14 * whole.max()

    def test_underflowed_envelope_gives_zero(self):
        from qps.phasespace import _rungs

        beta = np.array([0.5 + 0.5j, 40.0, 1e200 + 1e200j, np.inf, 2e308 * 1j])
        with np.errstate(over="raise", invalid="raise"):  # underflow to 0 is the point
            table = _rungs(beta, 20)
        assert np.isfinite(table).all()
        assert np.array_equal(table[:, 2:], np.zeros((20, 3)))
        n = np.arange(20)
        log_t = -0.5 * 40.0**2 + n * np.log(40.0) - 0.5 * np.array(
            [np.sum(np.log(np.arange(1, k + 1))) for k in n])
        assert np.allclose(table[:, 1].real, np.exp(log_t), rtol=1e-12, atol=0.0)

    def test_non_factorized_reference_unsupported(self):
        family = JointStateSpec.from_covariance(X=[[0.5, 0.2], [0.2, 0.5]])
        rho = random_density(TruncatedBasis((2, 2), family), [1.0], seed=1)
        with pytest.raises(UnsupportedError, match="axis-factorized"):
            density_husimi(rho, PhaseGrid.symmetric(8.0, 16, npairs=2))


class TestMixtureHusimi:
    def test_weighted_sum_of_pure_densities(self, spec, grid, pgrid):
        # a mixture is a density source: rho = 0.25 |1><1| + 0.75 |2><2|
        from qps import FockVector, MixtureSpec, from_mixture

        basis = TruncatedBasis((3,), spec)
        states = grid_number_states(basis, grid)
        mix = MixtureSpec(((0.25, FockVector.unit(basis, 1)), (0.75, FockVector.unit(basis, 2))))
        dist = density_husimi(from_mixture(mix), pgrid)
        pure = [husimi_distribution(states[n], spec, pgrid).values for n in (1, 2)]
        expected = 0.25 * pure[0] + 0.75 * pure[1]
        assert np.abs(dist.values - expected).max() <= 1e-12 * expected.max()

    @pytest.mark.parametrize("other", ["list", "array", "empty"])
    def test_other_sources_rejected(self, spec, grid, pgrid, other):
        # a (weight, state) list is no source: a mixture enters as a density
        psi = coordinate_wavefunction(spec, grid)
        source = {"list": [(1.0, psi)], "array": psi.values, "empty": []}[other]
        with pytest.raises(InvalidInputError, match="unsupported husimi source"):
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
    """A family with a complex window (rho != 0) and, in the full, half and
    const(0.3) gauges, a nonzero gauge phase ("zero" and "const(0)" make every
    K table zero), and its analyzer."""
    from qps import GaugeChoice
    from qps.phasespace import PhaseAnalyzer

    grid, pgrid = (ANALYZER_CASES | MASS_CASES)[case]
    d = grid.ndim
    gauge = {"full": GaugeChoice("full"), "half": GaugeChoice("half"), "zero": GaugeChoice("zero"),
             "const(0)": GaugeChoice("const", 0.0), "const(0.3)": GaugeChoice("const", 0.3)}[gauge]
    family = JointStateSpec.from_covariance(X=np.diag([0.5, 0.3, 0.4][:d]),
                                            rho=np.diag([0.2, -0.1, 0.05][:d]),
                                            gauge=gauge, hbar=0.9)
    return family, PhaseAnalyzer(family, pgrid, grid)


@pytest.fixture(scope="module", params=sorted(ANALYZER_CASES))
def family_analyzer(request):
    return build_analyzer(request.param)


def gauge_tables(family, pgrid):
    """K(q_j, y_k) of each pair, as the seed's analyzer tabulated it."""
    return [family.gauge.phase(p.p_points()[:, None], p.x_points()[None, :], s, family.hbar)
            for p, s in zip(pgrid.pairs, family.signature.signs)]


def synthesis_input(family, pgrid, pw_values):
    """The seed synthesis's phased samples: exp(+i sum K) pw, built as the
    seed built it, or pw itself where every K is 0."""
    K = gauge_tables(family, pgrid)
    if not any(k.any() for k in K):
        return pw_values
    return np.exp(np.multiply(1j, reduce(np.add.outer, K))) * pw_values


def oracle_transform(a, values, K):
    """The explicit one- and two-pair transform the separable contraction
    replaced, in the gauge of the K tables."""
    if len(a.kernels) == 1:
        (E,), (W,), (K,) = a.kernels, a.windows, K
        return a.norm * np.exp(-1j * K) * (E @ (values[:, None] * W))
    (E1, E2), (W1, W2), (K1, K2) = a.kernels, a.windows, K
    A1 = E1[:, None, :] * W1.T[None, :, :]
    T = np.tensordot(A1, values, axes=([2], [0]))
    A2 = E2[:, None, :] * W2.T[None, :, :]
    out = np.tensordot(T, A2, axes=([2], [2]))
    phase = np.exp(-1j * (K1[:, :, None, None] + K2[None, None, :, :]))
    return a.norm * phase * out


def oracle_synthesize(a, pw_values, K):
    """The explicit one- and two-pair synthesis the separable contraction
    replaced, the adjoint of `oracle_transform` in the gauge of the K tables."""
    measure = a.pgrid.measure(a.hbar)
    dx = a.grid.spacings
    if len(a.kernels) == 1:
        (E,), (W,), (K,) = a.kernels, a.windows, K
        acc = np.conj(E.T) @ (np.exp(1j * K) * pw_values) / dx[0]
        return a.norm * np.sum(np.conj(W) * acc, axis=1) * measure
    (E1, E2), (W1, W2), (K1, K2) = a.kernels, a.windows, K
    weighted = np.exp(1j * (K1[:, :, None, None] + K2[None, None, :, :])) * pw_values
    B1 = np.conj(E1[:, None, :] * W1.T[None, :, :]) / dx[0]
    B2 = np.conj(E2[:, None, :] * W2.T[None, :, :]) / dx[1]
    T = np.tensordot(weighted, B2, axes=([2, 3], [0, 1]))
    return a.norm * np.tensordot(B1, T, axes=([0, 1], [0, 1])) * measure


def random_complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestSeparableAnalyzer:
    def test_transform_matches_explicit_contraction(self, family_analyzer):
        family, analyzer = family_analyzer
        v = random_complex(analyzer.grid.shape, 1)
        expected = oracle_transform(analyzer, v, gauge_tables(family, analyzer.pgrid))
        got = analyzer.transform(v, _gauge_factor(family, analyzer.pgrid))
        assert got.shape == analyzer.pgrid.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("case", ["1024->128^2", "256^2->32^4"])
    def test_default_grids_keep_every_bit(self, case):
        # the explicit contractions' order on the default grids: every
        # exported %.12g digit, down to the round-off in the tails, stays
        family, analyzer = build_analyzer(case)
        v = random_complex(analyzer.grid.shape, 1)
        assert np.array_equal(analyzer.transform(v, _gauge_factor(family, analyzer.pgrid)),
                              oracle_transform(analyzer, v, gauge_tables(family, analyzer.pgrid)))

    @pytest.mark.parametrize("gauge", ["zero", "const(0)"])
    @pytest.mark.parametrize("case", ["1024->128^2", "256^2->32^4"])
    def test_zero_phase_keeps_every_bit(self, case, gauge):
        # every K is 0, so exp(-/+ i sum K) = 1 + 0j is skipped, not applied
        family, analyzer = build_analyzer(case, gauge)
        K = gauge_tables(family, analyzer.pgrid)
        assert not any(k.any() for k in K)
        assert _gauge_factor(family, analyzer.pgrid) is None
        v = random_complex(analyzer.grid.shape, 1)
        assert np.array_equal(analyzer.transform(v), oracle_transform(analyzer, v, K))
        # the oracle synthesis sums in another order, so only its value is
        # compared; the bits are those of the passes behind the applied factor,
        # also for a real input such as a unit sample
        w = random_complex(analyzer.pgrid.shape, 2)
        expected = oracle_synthesize(analyzer, w, K)
        assert np.abs(analyzer.synthesize(w) - expected).max() <= 1e-13 * np.abs(expected).max()
        unit = np.zeros(analyzer.pgrid.shape)
        unit[(3, 7) * analyzer.pgrid.npairs] = 1.0
        phase = np.exp(1j * reduce(np.add.outer, K))
        for pw in (w, unit):
            assert np.array_equal(analyzer.synthesize(pw), analyzer.synthesize(phase * pw))

    @pytest.mark.parametrize("gauge", ["zero", "full"])
    @pytest.mark.parametrize("case", sorted(ANALYZER_CASES))
    def test_inputs_are_not_written(self, case, gauge):
        # the zero-phase transform scales its last contraction in place
        family, analyzer = build_analyzer(case, gauge)
        v = random_complex(analyzer.grid.shape, 6)
        w = random_complex(analyzer.pgrid.shape, 7)
        v0, w0 = v.copy(), w.copy()
        pw = analyzer.transform(v, _gauge_factor(family, analyzer.pgrid))
        rec = analyzer.synthesize(w)
        assert np.array_equal(v, v0) and np.array_equal(w, w0)
        assert not np.shares_memory(pw, v) and not np.shares_memory(rec, w)

    def test_synthesize_matches_explicit_contraction(self, family_analyzer):
        family, analyzer = family_analyzer
        w = random_complex(analyzer.pgrid.shape, 2)
        expected = oracle_synthesize(analyzer, w, gauge_tables(family, analyzer.pgrid))
        got = analyzer.synthesize(synthesis_input(family, analyzer.pgrid, w))
        assert got.shape == analyzer.grid.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_synthesis_is_the_adjoint(self, family_analyzer):
        family, analyzer = family_analyzer
        v = random_complex(analyzer.grid.shape, 3)
        w = random_complex(analyzer.pgrid.shape, 4)
        lhs = (np.vdot(analyzer.transform(v, _gauge_factor(family, analyzer.pgrid)), w)
               * analyzer.pgrid.measure(analyzer.hbar))
        rhs = (np.vdot(v, analyzer.synthesize(synthesis_input(family, analyzer.pgrid, w)))
               * analyzer.grid.cell_volume)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("case", sorted(ANALYZER_CASES))
    def test_transform_is_the_overlap_with_family_states(self, case):
        # against the closed-form family state at (q, y), in a family wide
        # enough in x for a 32-point axis on +-12 to sample its momenta
        from qps import GaugeChoice
        from qps.phasespace import PhaseAnalyzer

        grid, pgrid = ANALYZER_CASES[case]
        d = grid.ndim
        family = JointStateSpec.from_covariance(X=np.diag([2.0, 1.5][:d]),
                                                rho=np.diag([0.2, -0.1][:d]),
                                                gauge=GaugeChoice("full"), hbar=0.9)
        analyzer = PhaseAnalyzer(family, pgrid, grid)
        v = random_complex(grid.shape, 5)
        pw = analyzer.transform(v, _gauge_factor(family, pgrid))
        for q0, y0 in [(-0.3, -2.7), (0.8, 2.3)]:
            index = sum(((int(np.argmin(np.abs(p.p_points() - q0))),
                          int(np.argmin(np.abs(p.x_points() - y0)))) for p in pgrid.pairs), ())
            q = [p.p_points()[j] for p, j in zip(pgrid.pairs, index[0::2])]
            y = [p.x_points()[k] for p, k in zip(pgrid.pairs, index[1::2])]
            state = coordinate_wavefunction(family.displaced(q, y), grid)
            overlap = np.vdot(state.values, v) * grid.cell_volume
            assert abs(pw[index] - overlap) <= 1e-12 * abs(overlap)

    def test_two_pair_family_state_is_an_outer_product(self):
        # the synthesis of a unit sample is the family state at its phase
        # point, the closed form of both pairs and the product of each pair's
        from qps import GaugeChoice
        from qps.phasespace import PhaseAnalyzer

        grid, pgrid = ANALYZER_CASES["256^2->32^4"]
        X, rho, gauge = [0.5, 0.3], [0.2, -0.1], GaugeChoice("full")
        family = JointStateSpec.from_covariance(X=np.diag(X), rho=np.diag(rho), gauge=gauge)
        index = (3, 17, 29, 8)
        q = [p.p_points()[j] for p, j in zip(pgrid.pairs, index[0::2])]
        y = [p.x_points()[k] for p, k in zip(pgrid.pairs, index[1::2])]
        singles = []
        for mu in range(2):
            single = JointStateSpec.from_covariance(X=[[X[mu]]], rho=[[rho[mu]]], gauge=gauge)
            singles.append(coordinate_wavefunction(single.displaced([q[mu]], [y[mu]]),
                                                   CoordinateGrid((grid.axes[mu],))).values)
        expected = coordinate_wavefunction(family.displaced(q, y), grid).values
        product = np.multiply.outer(*singles)
        assert np.abs(product - expected).max() <= 1e-13 * np.abs(expected).max()
        unit = np.zeros(pgrid.shape)
        unit[index] = 1.0
        got = PhaseAnalyzer(family, pgrid, grid).synthesize(synthesis_input(family, pgrid, unit))
        got /= pgrid.measure(family.hbar)
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
        family, analyzer = build_analyzer(case, gauge)
        v = random_complex(analyzer.grid.shape, 8)
        t = analyzer.transform(v, _gauge_factor(family, analyzer.pgrid))
        expected = np.vdot(t, t).real
        got = analyzer.mass(v)
        assert abs(got - expected) <= 1e-12 * expected
        if analyzer.pgrid.npairs == 1 and gauge in ("zero", "const(0)"):
            # the transform's own pass and scaling: verify's one-pair rows keep every bit
            assert got == expected

    def test_real_and_read_only_inputs(self):
        # a real state is scaled into a new array, never in place
        _, analyzer = build_analyzer("256^2->32^4", "zero")
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


# the seed's tables and contractions, written out: the in-place builds, real
# windows, blocked weighting and in-place conjugation keep every bit of them.
# The mass takes the pass on one pair and Gram matrices on 256^2 -> 32^4 and
# 32 -> 512^2, where a real W @ W.T would sum its 512 terms in another order.
BIT_CASES = {
    "1024->128^2": (CoordinateGrid.line(), PhaseGrid.symmetric(8.0, 128)),
    "1024->192^2": (CoordinateGrid.line(-16.0, 16.0, 1024), PhaseGrid.symmetric(12.0, 192)),
    "256^2->32^4": (CoordinateGrid.square(), PhaseGrid.symmetric(8.0, 32, npairs=2)),
    "32->512^2": (CoordinateGrid.line(-12.0, 12.0, 32), PhaseGrid.symmetric(8.0, 512)),
}


def seed_tables(fam, pgrid, grid):
    hbar = fam.hbar
    kernels, windows = [], []
    for mu, pair in enumerate(pgrid.pairs):
        x, y, q = grid.axis_points(mu), pair.x_points(), pair.p_points()
        bp = fam.shape.exponent[mu, mu]
        windows.append(np.exp(-np.conj(bp) / hbar**2 * (x[:, None] - y[None, :]) ** 2))
        kernels.append(np.exp(1j / hbar * fam.signature.signs[mu] * q[:, None] * x[None, :])
                       * grid.axes[mu].spacing)
    return kernels, windows


def seed_pass(out, E, W):
    if out.size // len(W) <= len(E):
        weighted = out[..., None] * np.expand_dims(W, tuple(range(1, out.ndim)))
        return np.moveaxis(np.tensordot(E, weighted, axes=1), 0, -2)
    return np.tensordot(out, E[:, None, :] * W.T[None, :, :], axes=([0], [2]))


def seed_transform(fam, pgrid, grid, values, phased):
    """(exp(-i sum K) norm) passes, or norm passes unphased or where every K is 0."""
    out = values
    for E, W in zip(*seed_tables(fam, pgrid, grid)):
        out = seed_pass(out, E, W)
    norm, K = fam.moments.gaussian_norm, gauge_tables(fam, pgrid)
    if not (phased and any(k.any() for k in K)):
        return out * norm
    return np.exp(np.multiply(-1j, reduce(np.add.outer, K))) * norm * out


def seed_synthesize(fam, pgrid, grid, pw_values, phased):
    out = synthesis_input(fam, pgrid, pw_values) if phased else pw_values
    for E, W in zip(*seed_tables(fam, pgrid, grid)):
        if out.size // (len(E) * W.shape[1]) <= len(E):
            acc = np.tensordot(E.conj(), out, axes=([0], [0]))
            out = np.moveaxis(np.einsum("mk...,mk->m...", acc, W.conj()), 0, -1)
        else:
            out = np.tensordot(out, np.conj(E[:, None, :] * W.T[None, :, :]),
                               axes=([0, 1], [0, 1]))
    return out * (fam.moments.gaussian_norm / grid.cell_volume * pgrid.measure(fam.hbar))


def seed_mass(fam, pgrid, grid, values):
    out, grams = values, []
    for E, W in zip(*seed_tables(fam, pgrid, grid)):
        n, n_p, n_x = len(W), len(E), W.shape[1]
        if n * n * (n_p + n_x) + n * out.size < out.size * n_p * n_x:
            grams.append((E.conj().T @ E) * (W.conj() @ W.T))
            out = np.moveaxis(out, 0, -1)
        else:
            grams.append(None)
            out = seed_pass(out, E, W)
    out = out * fam.moments.gaussian_norm
    image, axis = out, 0
    for G in grams:
        if G is None:
            axis += 2
        else:
            image = np.moveaxis(np.tensordot(G, image, axes=(1, axis)), 0, axis)
            axis += 1
    return float(np.vdot(out, image).real)


class TestSeedBits:
    @pytest.mark.parametrize("gauge", ["zero", "full"])
    @pytest.mark.parametrize("rho", [0.0, 0.2])
    @pytest.mark.parametrize("case", sorted(BIT_CASES))
    def test_every_output_keeps_its_bits(self, case, rho, gauge):
        from qps.phasespace import PhaseAnalyzer

        grid, pgrid = BIT_CASES[case]
        d = grid.ndim
        family = JointStateSpec.from_covariance(
            X=np.diag([0.5, 0.3][:d]), rho=np.diag([rho, -rho][:d]),
            gauge={"zero": GaugeChoice("zero"), "full": GaugeChoice("full")}[gauge], hbar=0.9)
        a = PhaseAnalyzer(family, pgrid, grid)
        kernels, windows = seed_tables(family, pgrid, grid)
        for E, W, E_seed, W_seed in zip(a.kernels, a.windows, kernels, windows):
            assert np.array_equal(E, E_seed) and np.array_equal(W, W_seed)
            # a window with every imaginary part 0 is stored real
            assert W.dtype == (np.complex128 if W_seed.imag.any() else np.float64)
            assert W.dtype == (np.float64 if rho == 0.0 else np.complex128)
        v = random_complex(grid.shape, 1)
        w = random_complex(pgrid.shape, 2)
        # the seed's phased transform is the transform given the gauge factor,
        # its phased synthesis the synthesis of exp(+i sum K) w
        setup = family, pgrid, grid
        assert np.array_equal(a.transform(v, _gauge_factor(family, pgrid)),
                              seed_transform(*setup, v, True))
        assert np.array_equal(a.transform(v), seed_transform(*setup, v, False))
        assert np.array_equal(a.synthesize(synthesis_input(family, pgrid, w)),
                              seed_synthesize(*setup, w, True))
        assert np.array_equal(a.synthesize(w), seed_synthesize(*setup, w, False))
        assert a.mass(v) == seed_mass(*setup, v)

    @pytest.mark.parametrize("gauge", ["half", "const(0.3)"])
    @pytest.mark.parametrize("npairs", [1, 2])
    def test_phase_wavefunction_keeps_its_bits(self, npairs, gauge):
        # in a nonzero gauge psi~ is (exp(-i sum K) norm) passes, as the
        # seed's phased transform built it
        grid, pgrid = PHASE_FREE_CASES[npairs]
        family = JointStateSpec.from_covariance(
            X=np.diag([0.5, 0.6][:npairs]), rho=np.diag([0.1, -0.2][:npairs]),
            gauge={"half": GaugeChoice("half"), "const(0.3)": GaugeChoice("const", 0.3)}[gauge])
        psi = coordinate_wavefunction(family.displaced([0.3, -0.2][:npairs],
                                                       [0.8, 0.4][:npairs]), grid)
        expected = seed_transform(family, pgrid, grid, psi.values, True)
        assert np.array_equal(phase_wavefunction(psi, family, pgrid).values, expected)


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
