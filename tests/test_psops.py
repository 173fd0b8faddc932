import dataclasses

import numpy as np
import pytest

from qps import (
    CoordinateGrid,
    GaugeChoice,
    JointStateSpec,
    PhaseGrid,
    Signature,
    TruncatedBasis,
    apply_ptilde,
    apply_xtilde,
    ccr_residual,
    coordinate_wavefunction,
    consistency_check,
    number_state,
    phase_wavefunction,
)
from qps.grids import spectral_derivative
from qps.phasespace import PhaseWavefunction


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


GAUGES = (GaugeChoice("zero"), GaugeChoice("full"), GaugeChoice("half"))


class TestGaugeBlocks:
    def test_zero_gauge_xtilde_is_bare_derivative(self, pw):
        # spatial axis: xtilde = +i hbar d/dq with no additive term
        out = apply_xtilde(pw, 0)
        q = pw.grid.pairs[0].p_points()
        bare = 1j * spectral_derivative(pw.values, q[1] - q[0], 0)
        assert np.abs(out.values - bare).max() < 1e-12

    def test_full_gauge_ptilde_is_bare_derivative(self, analyzed):
        # spatial axis: ptilde = -i hbar d/dy with no additive term
        pw_full = analyzed(GaugeChoice("full"))
        out = apply_ptilde(pw_full, 0)
        y = pw_full.grid.pairs[0].x_points()
        bare = -1j * spectral_derivative(pw_full.values, y[1] - y[0], 1)
        assert np.abs(out.values - bare).max() < 1e-12

    def test_half_gauge_carries_half_means(self, analyzed):
        # spatial axis: ptilde = -i hbar d/dy + q/2 and xtilde = +i hbar d/dq + y/2
        pw_half = analyzed(GaugeChoice("half"))
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
        pw_const = analyzed(GaugeChoice("const", 0.37))
        q_points, y_points = pw_const.grid.pairs[0].p_points(), pw_const.grid.pairs[0].x_points()
        d_y = spectral_derivative(pw_const.values, y_points[1] - y_points[0], 1)
        zero_rule = -1j * d_y + q_points[:, None] * pw_const.values
        assert np.abs(apply_ptilde(pw_const, 0).values - zero_rule).max() < 1e-15

    def test_linearity(self, pw, rng):
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        other = PhaseWavefunction(pw.grid, np.roll(pw.values, 5, axis=1), pw.family)
        combo = PhaseWavefunction(pw.grid, alpha * pw.values + beta * other.values, pw.family)
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
        pw2 = phase_wavefunction(psi2, dataclasses.replace(spec2, gauge=GaugeChoice("half")),
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


class TestConsistency:
    def test_coherent_state(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec.displaced([0.4], [0.6]), grid)
        rep = consistency_check(psi, phase_wavefunction(psi, spec, pgrid))
        assert rep.p_error <= 1e-3
        assert rep.x_error <= 1e-3

    def test_number_state(self, spec, grid, pgrid):
        n1 = number_state(1, TruncatedBasis((3,), spec), grid)
        rep = consistency_check(n1, phase_wavefunction(n1, spec, pgrid))
        assert rep.p_error <= 1e-3
        assert rep.x_error <= 1e-3

    def test_all_gauges(self, spec, grid, pgrid):
        psi = coordinate_wavefunction(spec.displaced([0.2], [0.5]), grid)
        for gauge in (GaugeChoice("full"), GaugeChoice("half")):
            fam = dataclasses.replace(spec, gauge=gauge)
            rep = consistency_check(psi, phase_wavefunction(psi, fam, pgrid))
            assert rep.p_error <= 1e-3
            assert rep.x_error <= 1e-3
