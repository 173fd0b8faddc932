import dataclasses

import numpy as np
import pytest

from qps import (
    CoordinateGrid,
    GaugeChoice,
    GaugeMismatchError,
    InvalidInputError,
    JointStateSpec,
    PhaseGrid,
    PhaseOperator,
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
def pw(spec, grid, pgrid):
    psi = coordinate_wavefunction(spec.displaced([0.4], [0.6]), grid)
    return phase_wavefunction(psi, spec, pgrid)


class TestGaugeBlocks:
    def test_zero_gauge_xtilde_is_bare_derivative(self, pw):
        # spatial axis: xtilde = +i hbar d/dq with no additive term
        out = apply_xtilde(pw, 0, GaugeChoice.zero())
        q = pw.grid.pairs[0].p_points()
        bare = 1j * spectral_derivative(pw.values, q[1] - q[0], 0)
        assert np.abs(out.values - bare).max() < 1e-12

    def test_full_gauge_ptilde_is_bare_derivative(self, pw):
        # spatial axis: ptilde = -i hbar d/dy with no additive term
        out = apply_ptilde(pw, 0, GaugeChoice.full())
        y = pw.grid.pairs[0].x_points()
        bare = -1j * spectral_derivative(pw.values, y[1] - y[0], 1)
        assert np.abs(out.values - bare).max() < 1e-12

    def test_half_gauge_carries_half_means(self, pw):
        q = pw.grid.pairs[0].p_points()[:, None]
        y = pw.grid.pairs[0].x_points()[None, :]
        pt = apply_ptilde(pw, 0, GaugeChoice.half())
        pt_full = apply_ptilde(pw, 0, GaugeChoice.full())
        assert np.abs(pt.values - (pt_full.values + 0.5 * q * pw.values)).max() < 1e-12
        xt = apply_xtilde(pw, 0, GaugeChoice.half())
        xt_zero = apply_xtilde(pw, 0, GaugeChoice.zero())
        assert np.abs(xt.values - (xt_zero.values + 0.5 * y * pw.values)).max() < 1e-12

    def test_const_gauge_matches_zero_operators(self, pw):
        a = apply_ptilde(pw, 0, GaugeChoice.zero())
        b = apply_ptilde(pw, 0, GaugeChoice.const(0.37))
        assert np.abs(a.values - b.values).max() < 1e-15

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
    def test_all_gauges_small_residual(self, pw):
        for gauge in (GaugeChoice.zero(), GaugeChoice.full(), GaugeChoice.half()):
            assert ccr_residual(gauge, pw) <= 1e-8

    def test_gauge_agreement(self, pw):
        vals = [
            ccr_residual(g, pw)
            for g in (GaugeChoice.zero(), GaugeChoice.full(), GaugeChoice.half())
        ]
        assert max(vals) - min(vals) <= 1e-10

    def test_plus_axis_sign(self, grid):
        # on a +1 axis the commutator defect is measured against +i hbar
        spec_p = JointStateSpec.from_covariance(X=[[0.5]], signature=Signature(1, 0))
        psi = coordinate_wavefunction(spec_p, grid)
        pw_p = phase_wavefunction(psi, spec_p, PhaseGrid.symmetric(12.0, 192))
        assert ccr_residual(GaugeChoice.zero(), pw_p) <= 1e-8

    def test_cross_pair_commutators_vanish(self):
        spec2 = JointStateSpec.from_covariance(X=np.diag([0.5, 0.5]))
        grid2 = CoordinateGrid.square(-12.0, 12.0, 128)
        psi2 = coordinate_wavefunction(spec2, grid2)
        pw2 = phase_wavefunction(psi2, spec2, PhaseGrid.symmetric(10.0, 48, npairs=2))
        assert ccr_residual(GaugeChoice.zero(), pw2) <= 1e-8

    def test_two_pairs_apply_each_single_operator_once(self, monkeypatch):
        import qps.psops as psops

        spec2 = JointStateSpec.from_covariance(X=np.diag([0.5, 0.7]), mean_p=[0.3, -0.2],
                                               mean_x=[0.5, 0.1])
        psi2 = coordinate_wavefunction(spec2, CoordinateGrid.square(-12.0, 12.0, 64))
        pw2 = phase_wavefunction(psi2, spec2, PhaseGrid.symmetric(10.0, 32, npairs=2))
        gauge = GaugeChoice.half()
        # the formula before the single applications were shared
        eta = pw2.family.signature.matrix()
        reference = 0.0
        for mu in range(2):
            for nu in range(2):
                pt_xt = apply_ptilde(apply_xtilde(pw2, nu, gauge), mu, gauge).values
                xt_pt = apply_xtilde(apply_ptilde(pw2, mu, gauge), nu, gauge).values
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
        assert ccr_residual(gauge, pw2) == reference
        # 2 x 2 single applications, then one more on each of 2 x 4 products
        assert len(calls) == 12

    def test_phase_operator_composition(self, pw):
        composed = PhaseOperator((("ptilde", 0), ("xtilde", 0)), GaugeChoice.zero())
        manual = apply_ptilde(apply_xtilde(pw, 0, GaugeChoice.zero()), 0, GaugeChoice.zero())
        assert np.abs(composed.apply(pw).values - manual.values).max() < 1e-15


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


class TestConsistency:
    def test_coherent_state(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec.displaced([0.4], [0.6]), grid)
        rep = consistency_check(psi, spec, pgrid, GaugeChoice.zero())
        assert rep.p_error <= 1e-3
        assert rep.x_error <= 1e-3

    def test_number_state(self, spec, grid, pgrid):
        n1 = number_state(1, TruncatedBasis((3,), spec), grid)
        rep = consistency_check(n1, spec, pgrid, GaugeChoice.zero())
        assert rep.p_error <= 1e-3
        assert rep.x_error <= 1e-3

    def test_all_gauges(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec.displaced([0.2], [0.5]), grid)
        for gauge in (GaugeChoice.full(), GaugeChoice.half()):
            fam = dataclasses.replace(spec, gauge=gauge)
            rep = consistency_check(psi, fam, pgrid, gauge)
            assert rep.p_error <= 1e-3
            assert rep.x_error <= 1e-3

    def test_gauge_mismatch_is_loud(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec, grid)
        with pytest.raises(GaugeMismatchError):
            consistency_check(psi, spec, pgrid, GaugeChoice.full())
