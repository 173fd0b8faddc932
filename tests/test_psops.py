import dataclasses

import numpy as np
import pytest

from qps import (
    CoordinateGrid,
    GaugeChoice,
    InvalidInputError,
    JointStateSpec,
    PhaseGrid,
    Signature,
    TruncatedBasis,
    analytic_overlap,
    apply_position,
    apply_ptilde,
    apply_xtilde,
    ccr_residual,
    coordinate_wavefunction,
    consistency_check,
    continuous_kernel,
    number_state,
    phase_wavefunction,
)
from qps.grids import spectral_derivative
from qps.phasespace import PhasePair


@pytest.fixture(scope="module")
def spec():
    return JointStateSpec.from_covariance(X=[[0.5]])


@pytest.fixture(scope="module")
def grid():
    return CoordinateGrid.line(-16.0, 16.0, 1024)


@pytest.fixture(scope="module")
def pgrid():
    return PhaseGrid.symmetric(12.0, 192)


@pytest.fixture(scope="module")
def psi(spec, grid):
    return coordinate_wavefunction(spec.displaced([0.4], [0.6]), grid)


@pytest.fixture(scope="module")
def pw(spec, psi, pgrid):
    return phase_wavefunction(psi, spec, pgrid)


@pytest.fixture(scope="module")
def analyzed(spec, psi, pgrid):
    """psi~ of the displaced state analyzed in the given gauge."""
    return lambda gauge: phase_wavefunction(psi, dataclasses.replace(spec, gauge=gauge), pgrid)


GAUGES = (GaugeChoice.zero(), GaugeChoice.full(), GaugeChoice.half())


class TestGaugeBlocks:
    def test_zero_gauge_xtilde_is_bare_derivative(self, pw):
        # spatial axis: xtilde = +i hbar d/dq with no additive term
        out = apply_xtilde(pw, 0)
        q = pw.grid.pairs[0].p_points()
        bare = 1j * spectral_derivative(pw.values, q[1] - q[0], 0)
        assert np.abs(out.values - bare).max() < 1e-12

    def test_full_gauge_ptilde_is_bare_derivative(self, analyzed):
        # spatial axis: ptilde = -i hbar d/dy with no additive term
        pw_full = analyzed(GaugeChoice.full())
        out = apply_ptilde(pw_full, 0)
        y = pw_full.grid.pairs[0].x_points()
        bare = -1j * spectral_derivative(pw_full.values, y[1] - y[0], 1)
        assert np.abs(out.values - bare).max() < 1e-12

    def test_half_gauge_carries_half_means(self, analyzed):
        # spatial axis: ptilde = -i hbar d/dy + q/2 and xtilde = +i hbar d/dq + y/2
        pw_half = analyzed(GaugeChoice.half())
        q_points, y_points = pw_half.grid.pairs[0].p_points(), pw_half.grid.pairs[0].x_points()
        q, y = q_points[:, None], y_points[None, :]
        d_y = spectral_derivative(pw_half.values, y_points[1] - y_points[0], 1)
        pt = apply_ptilde(pw_half, 0)
        assert np.abs(pt.values - (-1j * d_y + 0.5 * q * pw_half.values)).max() < 1e-12
        d_q = spectral_derivative(pw_half.values, q_points[1] - q_points[0], 0)
        xt = apply_xtilde(pw_half, 0)
        assert np.abs(xt.values - (1j * d_q + 0.5 * y * pw_half.values)).max() < 1e-12

    def test_const_gauge_matches_zero_operators(self, analyzed):
        # a constant K has no slope, so ptilde is the zero gauge's i hbar s d/dy + q
        pw_const = analyzed(GaugeChoice.const(0.37))
        q_points, y_points = pw_const.grid.pairs[0].p_points(), pw_const.grid.pairs[0].x_points()
        d_y = spectral_derivative(pw_const.values, y_points[1] - y_points[0], 1)
        zero_rule = -1j * d_y + q_points[:, None] * pw_const.values
        assert np.abs(apply_ptilde(pw_const, 0).values - zero_rule).max() < 1e-15

    def test_linearity(self, pw, rng):
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        other = pw.with_values(np.roll(pw.values, 5, axis=1))
        combo = pw.with_values(alpha * pw.values + beta * other.values)
        for op in (apply_ptilde, apply_xtilde):
            direct = op(combo, 0).values
            split = alpha * op(pw, 0).values + beta * op(other, 0).values
            assert np.abs(direct - split).max() < 1e-12


class TestCcr:
    def test_all_gauges_small_residual(self, analyzed):
        for gauge in GAUGES:
            assert ccr_residual(analyzed(gauge)) <= 1e-8

    def test_gauge_agreement(self, analyzed):
        vals = [ccr_residual(analyzed(g)) for g in GAUGES]
        assert max(vals) - min(vals) <= 1e-10

    def test_plus_axis_sign(self, grid):
        # on a +1 axis the commutator defect is measured against +i hbar
        spec_p = JointStateSpec.from_covariance(X=[[0.5]], signature=Signature(1, 0))
        psi = coordinate_wavefunction(spec_p, grid)
        pw_p = phase_wavefunction(psi, spec_p, PhaseGrid.symmetric(12.0, 192))
        assert ccr_residual(pw_p) <= 1e-8

    def test_cross_pair_commutators_vanish(self):
        spec2 = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        grid2 = CoordinateGrid.square(-12.0, 12.0, 128)
        psi2 = coordinate_wavefunction(spec2, grid2)
        pw2 = phase_wavefunction(psi2, spec2, PhaseGrid.symmetric(10.0, 48, npairs=2))
        assert ccr_residual(pw2) <= 1e-8

    def test_two_pairs_apply_each_single_operator_once(self, monkeypatch):
        import qps.psops as psops

        spec2 = JointStateSpec.from_covariance(X=np.diag([0.5, 0.7]), mean_p=[0.3, -0.2],
                                               mean_x=[0.5, 0.1])
        psi2 = coordinate_wavefunction(spec2, CoordinateGrid.square(-12.0, 12.0, 64))
        pw2 = phase_wavefunction(psi2, dataclasses.replace(spec2, gauge=GaugeChoice.half()),
                                 PhaseGrid.symmetric(10.0, 32, npairs=2))
        # the formula before the single applications were shared
        eta = pw2.family.signature.matrix()
        reference = 0.0
        for mu in range(2):
            for nu in range(2):
                pt_xt = apply_ptilde(apply_xtilde(pw2, nu), mu).values
                xt_pt = apply_xtilde(apply_ptilde(pw2, mu), nu).values
                res = pt_xt - xt_pt - 1j * pw2.hbar * eta[mu, nu] * pw2.values
                reference = max(reference,
                                float(np.linalg.norm(res) / np.linalg.norm(pw2.values)))
        calls = []

        def counted(op):
            def wrapper(*args, **kwargs):
                calls.append(op.__name__)
                return op(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(psops, "apply_ptilde", counted(apply_ptilde))
        monkeypatch.setattr(psops, "apply_xtilde", counted(apply_xtilde))
        assert ccr_residual(pw2) == reference
        # 2 x 2 single applications, then one more on each of 2 x 4 products
        assert len(calls) == 12


@pytest.fixture(scope="module")
def small(spec):
    grid = CoordinateGrid.line(-12.0, 12.0, 512)
    pgrid = PhaseGrid((PhasePair(-6.0, 6.0, 32, -6.0, 6.0, 32),))
    return spec, grid, pgrid


class TestContinuousKernel:
    def test_budget_checked_before_building(self, spec):
        # 128x128 phase points would need a 16384^2 complex kernel (4.3 GB)
        def op(_):
            raise AssertionError("the operator must not be applied")

        grid = CoordinateGrid.line(-12.0, 12.0, 512)
        with pytest.raises(InvalidInputError, match="budget"):
            continuous_kernel(op, spec, PhaseGrid.symmetric(6.0, 128), grid)

    def test_budget_edge_is_allowed(self, spec):
        # 64x64 phase points give exactly 2^24 kernel entries, the budget
        class Reached(Exception):
            pass

        def op(_):
            raise Reached

        grid = CoordinateGrid.line(-12.0, 12.0, 512)
        with pytest.raises(Reached):
            continuous_kernel(op, spec, PhaseGrid.symmetric(6.0, 64), grid)

    def test_identity_kernel_is_overlap_function(self, small):
        spec, grid, pgrid = small
        kernel = continuous_kernel(lambda s: s, spec, pgrid, grid)
        pair = pgrid.pairs[0]
        qs, ys = pair.p_points(), pair.x_points()
        idx = [(3, 7), (16, 16), (25, 9)]
        for (ja, ka) in idx:
            for (jb, kb) in idx:
                row = ja * pair.n_x + ka
                col = jb * pair.n_x + kb
                a = spec.displaced([qs[ja]], [ys[ka]])
                b = spec.displaced([qs[jb]], [ys[kb]])
                assert kernel.values[row, col] == pytest.approx(
                    analytic_overlap(a, b), abs=1e-8
                )

    def test_hermitian_symmetry_for_position(self, small):
        spec, grid, pgrid = small
        kernel = continuous_kernel(lambda s: apply_position(s, 0), spec, pgrid, grid)
        assert kernel.hermiticity_defect() < 1e-8

    def test_contraction_reproduces_direct_action(self, small):
        spec, grid, pgrid = small
        psi = coordinate_wavefunction(spec.displaced([0.3], [-0.4]), grid)
        pw = phase_wavefunction(psi, spec, pgrid)
        kernel = continuous_kernel(lambda s: apply_position(s, 0), spec, pgrid, grid)
        via_kernel = kernel.contract(pw)
        from qps.phasespace import PhaseAnalyzer

        direct = PhaseAnalyzer(spec, pgrid, grid).transform(apply_position(psi, 0).values)
        assert np.abs(via_kernel - direct).max() < 1e-3


    def test_two_pair_kernel(self):
        # rows and columns run over the 4^4 phase points in row-major order
        family = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        grid2 = CoordinateGrid.square(-8.0, 8.0, 64)
        pgrid2 = PhaseGrid.symmetric(3.0, 4, npairs=2)
        position = continuous_kernel(lambda s: apply_position(s, 1), family, pgrid2, grid2)
        assert position.hermiticity_defect() < 1e-8
        identity = continuous_kernel(lambda s: s, family, pgrid2, grid2)
        pair = pgrid2.pairs[0]
        qs, ys = pair.p_points(), pair.x_points()
        points = list(np.ndindex(*pgrid2.shape))
        for row in (0, 37, 255):
            for col in (0, 90, 200):
                (j1, k1, j2, k2), (l1, m1, l2, m2) = points[row], points[col]
                a = family.displaced([qs[j1], qs[j2]], [ys[k1], ys[k2]])
                b = family.displaced([qs[l1], qs[l2]], [ys[m1], ys[m2]])
                assert identity.values[row, col] == pytest.approx(
                    analytic_overlap(a, b), abs=1e-8)


class TestConsistency:
    def test_coherent_state(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec.displaced([0.4], [0.6]), grid)
        rep = consistency_check(psi, spec, pgrid)
        assert rep.p_error <= 1e-3
        assert rep.x_error <= 1e-3

    def test_number_state(self, spec, grid, pgrid):
        n1 = number_state(1, TruncatedBasis((3,), spec), grid)
        rep = consistency_check(n1, spec, pgrid)
        assert rep.p_error <= 1e-3
        assert rep.x_error <= 1e-3

    def test_all_gauges(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec.displaced([0.2], [0.5]), grid)
        for gauge in (GaugeChoice.full(), GaugeChoice.half()):
            fam = dataclasses.replace(spec, gauge=gauge)
            rep = consistency_check(psi, fam, pgrid)
            assert rep.p_error <= 1e-3
            assert rep.x_error <= 1e-3
